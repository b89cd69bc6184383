//! End-to-end ingestion contracts:
//!
//! * **Planted recovery** — truncating the synthetic world at a time
//!   cutoff and replaying the remainder (including the planted polarized
//!   Eclipse ratings) through the ingest API must yield the same SM/DM
//!   explanations as loading everything up front.
//! * **Concurrency** — commits racing explains must only ever produce
//!   responses a quiesced serial run could have produced: every racing
//!   response is byte-identical to the explanation of *some* committed
//!   snapshot, and the quiesced dataset matches the serial replay.

use maprat_core::query::ItemQuery;
use maprat_core::{Miner, SearchSettings};
use maprat_data::subset::by_time;
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::{Dataset, ItemId, Rating, Score, TimeRange, Timestamp, UserId};
use maprat_explore::MapRatEngine;
use maprat_ingest::{
    IngestBuffer, IngestService, ItemSpec, NewItem, NewUser, RatingEvent, UserSpec,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Replays every rating of `full` at or after `cut` as monthly ingest
/// commits against an engine seeded with the pre-`cut` truncation.
/// Entities the truncation dropped (no pre-cut ratings) re-enter through
/// the new-user / new-item ingest path. Returns the service after the
/// last commit.
fn replay_tail(full: &Dataset, truncated: Dataset, cut: Timestamp) -> IngestService {
    let kept = TimeRange::until(cut);

    // Reconstruct the truncation's id maps: `subset` densifies ids by
    // scanning the tables in order, so survivors map sequentially.
    let mut user_map: HashMap<UserId, UserId> = HashMap::new();
    let mut item_map: HashMap<ItemId, ItemId> = HashMap::new();
    let mut survives_user = vec![false; full.users().len()];
    let mut survives_item = vec![false; full.items().len()];
    for r in full.ratings() {
        if kept.contains(r.ts) {
            survives_user[r.user.index()] = true;
            survives_item[r.item.index()] = true;
        }
    }
    for (old, s) in survives_user.iter().enumerate() {
        if *s {
            user_map.insert(UserId::from_index(old), UserId::from_index(user_map.len()));
        }
    }
    for (old, s) in survives_item.iter().enumerate() {
        if *s {
            item_map.insert(ItemId::from_index(old), ItemId::from_index(item_map.len()));
        }
    }
    assert_eq!(user_map.len(), truncated.users().len());
    assert_eq!(item_map.len(), truncated.items().len());

    // Tail ratings, bucketed into monthly commit batches.
    let mut by_month: BTreeMap<_, Vec<&Rating>> = BTreeMap::new();
    for r in full.ratings() {
        if !kept.contains(r.ts) {
            by_month.entry(r.ts.month_key()).or_default().push(r);
        }
    }
    assert!(by_month.len() >= 3, "cut leaves a multi-month tail");

    let svc = IngestService::new(MapRatEngine::new(Arc::new(truncated)));
    let mut next_user = user_map.len();
    let mut next_item = item_map.len();
    for indexes in by_month.values() {
        let mut buffer = IngestBuffer::new();
        for &r in indexes {
            let user = match user_map.get(&r.user) {
                Some(&mapped) => UserSpec::Existing(mapped),
                None => {
                    // First post-cut appearance: allocation is sequential,
                    // so the commit will assign exactly this id.
                    user_map.insert(r.user, UserId::from_index(next_user));
                    next_user += 1;
                    let u = full.user(r.user);
                    UserSpec::New(NewUser {
                        age: u.age,
                        gender: u.gender,
                        occupation: u.occupation,
                        zip: u.zip,
                    })
                }
            };
            let item = match item_map.get(&r.item) {
                Some(&mapped) => ItemSpec::Existing(mapped),
                None => {
                    item_map.insert(r.item, ItemId::from_index(next_item));
                    next_item += 1;
                    let it = full.item(r.item);
                    ItemSpec::New(NewItem {
                        title: it.title.clone(),
                        year: it.year,
                        genres: it.genres,
                    })
                }
            };
            buffer
                .push(RatingEvent {
                    user,
                    item,
                    score: r.score,
                    ts: r.ts,
                })
                .unwrap();
        }
        svc.commit(buffer).unwrap();
    }
    svc
}

fn assert_explanations_match(
    full: &Dataset,
    replayed: &Dataset,
    query: &ItemQuery,
    settings: &SearchSettings,
) {
    let baseline = Miner::new(full).explain(query, settings).unwrap();
    let recovered = Miner::new(replayed).explain(query, settings).unwrap();
    assert_eq!(baseline.num_ratings, recovered.num_ratings);
    assert_eq!(
        format!("{:?}", baseline.total),
        format!("{:?}", recovered.total)
    );
    for (a, b) in [
        (&baseline.similarity, &recovered.similarity),
        (&baseline.diversity, &recovered.diversity),
    ] {
        assert_eq!(
            a.objective,
            b.objective,
            "{}: objective drifted",
            query.describe()
        );
        assert_eq!(
            a.coverage,
            b.coverage,
            "{}: coverage drifted",
            query.describe()
        );
        assert_eq!(
            format!("{:?}", a.groups),
            format!("{:?}", b.groups),
            "{}: groups drifted",
            query.describe()
        );
    }
}

#[test]
fn planted_scenarios_recover_after_ingest_replay() {
    let full = generate(&SynthConfig::small(42)).unwrap();
    let cut = Timestamp::from_ymd(2002, 9, 1);
    let truncated = by_time(&full, TimeRange::until(cut)).unwrap();
    assert!(truncated.num_ratings() < full.num_ratings());

    let svc = replay_tail(&full, truncated, cut);
    let replayed = svc.engine().dataset();
    assert_eq!(replayed.num_ratings(), full.num_ratings());
    // Entities without a single rating can't re-enter through the rating
    // stream; everything that ever rated (or was rated) must be back.
    let rated_users: HashSet<UserId> = full.ratings().map(|r| r.user).collect();
    let rated_items: HashSet<ItemId> = full.ratings().map(|r| r.item).collect();
    assert_eq!(replayed.users().len(), rated_users.len());
    assert_eq!(replayed.items().len(), rated_items.len());
    assert_eq!(
        svc.watermark().unwrap().month,
        Timestamp::from_ymd(2003, 2, 1).month_key()
    );

    // §1 Eclipse: DM separates the planted lovers/haters identically.
    assert_explanations_match(
        &full,
        &replayed,
        &ItemQuery::title("The Twilight Saga: Eclipse"),
        &SearchSettings::default()
            .with_require_geo(false)
            .with_min_coverage(0.08)
            .with_max_groups(2),
    );
    // §1 Eclipse SM and FIG2 Toy Story (geo-anchored) agree too.
    assert_explanations_match(
        &full,
        &replayed,
        &ItemQuery::title("The Twilight Saga: Eclipse"),
        &SearchSettings::default()
            .with_require_geo(false)
            .with_min_coverage(0.1),
    );
    assert_explanations_match(
        &full,
        &replayed,
        &ItemQuery::title("Toy Story"),
        &SearchSettings::default().with_min_coverage(0.2),
    );
}

/// Deterministic commit batches for the concurrency test: each commit
/// introduces fresh reviewers rating the two watched titles plus one
/// previously unseen item.
fn stress_batches() -> Vec<Vec<RatingEvent>> {
    (0..6u32)
        .map(|c| {
            let mut events = Vec::new();
            for k in 0..3u32 {
                events.push(RatingEvent {
                    user: UserSpec::New(NewUser {
                        age: maprat_data::AgeGroup::From25To34,
                        gender: if k % 2 == 0 {
                            maprat_data::Gender::Female
                        } else {
                            maprat_data::Gender::Male
                        },
                        occupation: maprat_data::Occupation::Artist,
                        zip: maprat_data::Zip::new(94103 + c * 7 + k),
                    }),
                    item: ItemSpec::ByTitle(if k == 0 { "Jaws" } else { "Toy Story" }.into()),
                    score: Score::new(1 + ((c + k) % 5) as u8).unwrap(),
                    ts: Timestamp::from_ymd(2003, 1 + (c % 3) as i64 as u32, 3 + k),
                });
            }
            events.push(RatingEvent {
                user: UserSpec::Existing(UserId(c)),
                item: ItemSpec::New(NewItem {
                    title: format!("Midnight Premiere {c}"),
                    year: 2003,
                    genres: [maprat_data::Genre::Thriller].into_iter().collect(),
                }),
                score: Score::new(3).unwrap(),
                ts: Timestamp::from_ymd(2003, 2, 10 + c),
            });
            events
        })
        .collect()
}

fn buffer_of(events: &[RatingEvent]) -> IngestBuffer {
    let mut buffer = IngestBuffer::new();
    for e in events {
        buffer.push(e.clone()).unwrap();
    }
    buffer
}

#[test]
fn racing_commits_and_explains_match_a_quiesced_serial_run() {
    let base = Arc::new(generate(&SynthConfig::tiny(77)).unwrap());
    let queries = [ItemQuery::title("Toy Story"), ItemQuery::title("Jaws")];
    let settings = SearchSettings::default().with_min_coverage(0.1);
    let batches = stress_batches();

    // Serial reference: commit the same batches one at a time; after every
    // commit (and before the first) record each query's explanation from a
    // fresh engine over that snapshot.
    let mut states: Vec<Arc<Dataset>> = vec![Arc::clone(&base)];
    let serial = IngestService::new(MapRatEngine::new(Arc::clone(&base)));
    for events in &batches {
        serial.commit(buffer_of(events)).unwrap();
        states.push(serial.engine().dataset());
    }
    let mut admissible: HashSet<(usize, String)> = HashSet::new();
    for state in &states {
        let engine = MapRatEngine::new(Arc::clone(state));
        for (qi, query) in queries.iter().enumerate() {
            let r = engine.explain_query(query, &settings);
            let e = r.as_ref().as_ref().expect("serial explain succeeds");
            admissible.insert((qi, format!("{:?}", e.explanation)));
        }
    }

    // Race: one committer applying the same batches against explain
    // threads hammering the same queries through the serving engine.
    let svc = Arc::new(IngestService::new(MapRatEngine::new(Arc::clone(&base))));
    let done = Arc::new(AtomicBool::new(false));
    let committer = {
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        let batches = batches.clone();
        std::thread::spawn(move || {
            for events in &batches {
                svc.commit(buffer_of(events)).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let done = Arc::clone(&done);
            let queries = queries.clone();
            let settings = settings.clone();
            std::thread::spawn(move || {
                let mut observed: Vec<(usize, String)> = Vec::new();
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    for (qi, query) in queries.iter().enumerate() {
                        let r = svc.engine().explain_query(query, &settings);
                        let e = r.as_ref().as_ref().expect("racing explain succeeds");
                        observed.push((qi, format!("{:?}", e.explanation)));
                    }
                    if finished {
                        return observed;
                    }
                }
            })
        })
        .collect();
    committer.join().unwrap();
    let mut total = 0usize;
    for reader in readers {
        for obs in reader.join().unwrap() {
            assert!(
                admissible.contains(&obs),
                "racing explain observed a response no committed snapshot produces (query {})",
                obs.0
            );
            total += 1;
        }
    }
    assert!(total >= 2 * queries.len(), "readers made progress");

    // Quiesced, the raced engine holds exactly the serial final snapshot.
    let raced = svc.engine().dataset();
    let serial_final = states.last().unwrap();
    assert_eq!(raced.num_ratings(), serial_final.num_ratings());
    assert!(raced.ratings().eq(serial_final.ratings()));
    for it in serial_final.items() {
        assert_eq!(raced.chunk(it.id), serial_final.chunk(it.id));
    }
    assert_eq!(svc.commit_seq(), batches.len() as u64);
}
