//! Property-based tests on the data substrate's invariants.

use maprat_data::synth::{generate, SynthConfig};
use maprat_data::{
    zipcode, AgeGroup, AppendBatch, Dataset, DatasetBuilder, Gender, Genre, GenreSet, IdAllocator,
    Item, ItemId, Occupation, Person, Rating, RatingIdx, RatingStats, Score, TimeRange, Timestamp,
    UsState, User, Zip,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::{Arc, OnceLock};

proptest! {
    /// Civil calendar conversion round-trips over four decades of days.
    #[test]
    fn timestamp_ymd_round_trip(days in -10_000i64..20_000) {
        let ts = Timestamp(days * 86_400);
        let (y, m, d) = ts.to_ymd();
        prop_assert_eq!(Timestamp::from_ymd(y, m, d), ts);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    /// Mid-day timestamps bucket into the same month as their midnight.
    #[test]
    fn month_key_ignores_time_of_day(days in 0i64..20_000, secs in 0i64..86_400) {
        let midnight = Timestamp(days * 86_400);
        let later = Timestamp(days * 86_400 + secs);
        prop_assert_eq!(midnight.month_key(), later.month_key());
    }

    /// `TimeRange::between` contains exactly `[start, end)`.
    #[test]
    fn time_range_half_open(a in -1_000_000i64..1_000_000, len in 0i64..1_000_000, probe in -2_000_000i64..2_000_000) {
        let range = TimeRange::between(Timestamp(a), Timestamp(a + len));
        let expected = probe >= a && probe < a + len;
        prop_assert_eq!(range.contains(Timestamp(probe)), expected);
    }

    /// Score::saturating always lands on the scale and is monotone.
    #[test]
    fn score_saturating_on_scale(x in -100i64..100, y in -100i64..100) {
        let sx = Score::saturating(x);
        let sy = Score::saturating(y);
        prop_assert!((1..=5).contains(&sx.get()));
        if x <= y {
            prop_assert!(sx <= sy);
        }
    }

    /// Every zip code resolves to *some* state via the fallback, and the
    /// direct mapping (when defined) agrees with it.
    #[test]
    fn zip_fallback_total(raw in 0u32..100_000) {
        let zip = Zip::new(raw);
        let fallback = zip.state_or_fallback();
        if let Some(direct) = zip.state() {
            prop_assert_eq!(direct, fallback);
        }
        // Display is always five digits.
        prop_assert_eq!(zip.to_string().len(), 5);
    }

    /// Prefix ranges and `state_for_prefix` agree.
    #[test]
    fn prefix_ranges_consistent(prefix in 0u32..1000) {
        match zipcode::state_for_prefix(prefix) {
            Some(state) => {
                prop_assert!(
                    zipcode::prefix_ranges(state).any(|(lo, hi)| (lo..=hi).contains(&prefix))
                );
            }
            None => {
                for s in UsState::ALL {
                    prop_assert!(
                        !zipcode::prefix_ranges(s).any(|(lo, hi)| (lo..=hi).contains(&prefix))
                    );
                }
            }
        }
    }

    /// RatingStats::merge is equivalent to folding the concatenation, and
    /// its derived statistics stay within the scale's bounds.
    #[test]
    fn stats_merge_associative(
        xs in proptest::collection::vec(1u8..=5, 0..40),
        ys in proptest::collection::vec(1u8..=5, 0..40),
    ) {
        let score = |v: u8| Score::new(v).unwrap();
        let a = RatingStats::from_scores(xs.iter().copied().map(score));
        let b = RatingStats::from_scores(ys.iter().copied().map(score));
        let mut merged = a;
        merged.merge(&b);
        let direct = RatingStats::from_scores(xs.iter().chain(&ys).copied().map(score));
        prop_assert_eq!(merged, direct);
        if let Some(m) = merged.mean() {
            prop_assert!((1.0..=5.0).contains(&m));
            prop_assert!(merged.mean_abs_deviation().unwrap() <= 4.0);
            prop_assert!(merged.variance().unwrap() >= 0.0);
        }
        prop_assert_eq!(merged.count() as usize, xs.len() + ys.len());
    }

    /// MAD is never larger than the standard deviation² relationship allows
    /// and both vanish exactly for constant samples.
    #[test]
    fn stats_constant_samples(v in 1u8..=5, n in 1usize..50) {
        let stats = RatingStats::from_scores(
            std::iter::repeat_with(|| Score::new(v).unwrap()).take(n),
        );
        prop_assert_eq!(stats.mean().unwrap(), f64::from(v));
        prop_assert_eq!(stats.variance().unwrap(), 0.0);
        prop_assert_eq!(stats.mean_abs_deviation().unwrap(), 0.0);
    }

    /// MovieLens code round trips over the whole categorical domains.
    #[test]
    fn categorical_round_trips(age_idx in 0usize..7, occ_idx in 0usize..21, g in 0usize..2) {
        let age = AgeGroup::from_index(age_idx).unwrap();
        prop_assert_eq!(AgeGroup::from_movielens_code(age.movielens_code()).unwrap(), age);
        let occ = Occupation::from_index(occ_idx).unwrap();
        prop_assert_eq!(Occupation::from_movielens_code(occ.movielens_code()).unwrap(), occ);
        let gender = Gender::from_index(g).unwrap();
        prop_assert_eq!(Gender::from_letter(gender.letter()).unwrap(), gender);
    }
}

/// A few shared base datasets: generation dominates the cost, so the
/// cases below vary only the appended batch.
fn base_datasets() -> &'static [Dataset] {
    static DATASETS: OnceLock<Vec<Dataset>> = OnceLock::new();
    DATASETS.get_or_init(|| {
        [5u64, 71]
            .into_iter()
            .map(|seed| generate(&SynthConfig::tiny(seed)).unwrap())
            .collect()
    })
}

/// Turns generated `(kind, a, b, score, offset)` ops into an append batch
/// over `dataset`: `kind` 0 splices into an existing item's time range
/// (ties with an existing timestamp included), 1 appends past the
/// dataset's last rating, 2 has a new reviewer rate an existing item and
/// 3 rates a new item. New items that no op rates stay unrated. Ops that
/// would repeat an `(item, ts, user)` key are dropped, so the sorted
/// order of the merged column is unique.
fn append_batch(
    dataset: &Dataset,
    new_users: usize,
    new_items: usize,
    ops: &[(u8, u32, u32, u8, i64)],
) -> AppendBatch {
    let mut alloc = IdAllocator::for_dataset(dataset);
    let mut batch = AppendBatch::new();
    for k in 0..new_users {
        let mut user = dataset.users()[k * 7 % dataset.users().len()].clone();
        user.id = alloc.alloc_user();
        batch.users.push(user);
    }
    for k in 0..new_items {
        let id = alloc.alloc_item();
        let title = format!("Appended Feature {k}");
        batch
            .items
            .push(Item::new(id, title, 2004, GenreSet::of([Genre::Drama])));
    }
    let (_, last) = dataset.time_span().expect("non-empty base");
    let (users, items) = (dataset.users().len() as u32, dataset.items().len() as u32);
    for &(kind, a, b, score, offset) in ops {
        let (user, item, ts) = match kind {
            0 => {
                let item = ItemId(a % items);
                let slice = dataset.ratings_for_item(item);
                if slice.is_empty() {
                    continue;
                }
                let anchor = slice[b as usize % slice.len()].ts;
                (
                    dataset.users()[(a ^ b) as usize % users as usize].id,
                    item,
                    Timestamp(anchor.0 + offset),
                )
            }
            1 => (
                dataset.users()[b as usize % users as usize].id,
                ItemId(a % items),
                Timestamp(last.0 + 1 + offset.abs()),
            ),
            2 if new_users > 0 => (
                batch.users[b as usize % new_users].id,
                ItemId(a % items),
                Timestamp(last.0 - offset.abs() * 3_600),
            ),
            3 if new_items > 0 => (
                dataset.users()[b as usize % users as usize].id,
                batch.items[a as usize % new_items].id,
                Timestamp(last.0 + offset),
            ),
            _ => continue,
        };
        let key = |r: &Rating| (r.item, r.ts, r.user) == (item, ts, user);
        let in_base = item.0 < items && dataset.ratings_for_item(item).iter().any(&key);
        if in_base || batch.ratings.iter().any(key) {
            continue;
        }
        batch
            .ratings
            .push(Rating::new(user, item, Score::new(score).unwrap(), ts));
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `with_appended` is indistinguishable from a `DatasetBuilder`
    /// rebuild of the merged tables: same rating, packed-code and score
    /// columns, item ranges, time span and title index — and it reports
    /// exactly the items the batch rated or created as changed.
    #[test]
    fn with_appended_matches_rebuild(
        ds in 0usize..2,
        new_users in 0usize..3,
        new_items in 0usize..3,
        ops in proptest::collection::vec(
            (0u8..4, any::<u32>(), any::<u32>(), 1u8..=5, -2i64..3),
            0..24,
        ),
    ) {
        let dataset = &base_datasets()[ds];
        let batch = append_batch(dataset, new_users, new_items, &ops);

        let mut builder = DatasetBuilder::new();
        for u in dataset.users().iter().chain(&batch.users) {
            builder.add_user(u.clone());
        }
        for it in dataset.items().iter().chain(&batch.items) {
            builder.add_item(it.clone());
        }
        for p in dataset.persons() {
            builder.add_person(p.clone());
        }
        for r in dataset.ratings().chain(&batch.ratings) {
            builder.add_rating(*r);
        }
        let rebuilt = builder.build().unwrap();

        let mut changed: Vec<ItemId> = batch
            .ratings
            .iter()
            .map(|r| r.item)
            .chain(batch.items.iter().map(|it| it.id))
            .collect();
        changed.sort_unstable();
        changed.dedup();
        let new_titles: Vec<(String, ItemId)> =
            batch.items.iter().map(|it| (it.title.clone(), it.id)).collect();

        let out = dataset.with_appended(batch).unwrap();
        let merged = &out.dataset;
        prop_assert!(merged.ratings().eq(rebuilt.ratings()));
        prop_assert_eq!(merged.items().len(), rebuilt.items().len());
        for it in rebuilt.items() {
            prop_assert_eq!(merged.chunk(it.id), rebuilt.chunk(it.id));
            prop_assert_eq!(
                merged.rating_range_for_item(it.id),
                rebuilt.rating_range_for_item(it.id)
            );
        }
        prop_assert_eq!(merged.time_span(), rebuilt.time_span());
        for (title, id) in &new_titles {
            prop_assert_eq!(merged.find_title(title), Some(*id));
        }
        prop_assert_eq!(&out.changed_items, &changed);
    }
}

/// The tables a dataset version was merged from, kept apart from it.
#[derive(Clone)]
struct Tables {
    users: Vec<User>,
    items: Vec<Item>,
    persons: Vec<Person>,
    ratings: Vec<Rating>,
}

impl Tables {
    fn of(dataset: &Dataset) -> Tables {
        Tables {
            users: dataset.users().to_vec(),
            items: dataset.items().to_vec(),
            persons: dataset.persons().to_vec(),
            ratings: dataset.ratings().copied().collect(),
        }
    }

    fn extend(&mut self, batch: &AppendBatch) {
        self.users.extend(batch.users.iter().cloned());
        self.items.extend(batch.items.iter().cloned());
        self.ratings.extend(&batch.ratings);
    }

    /// A `DatasetBuilder` rebuild of the tables.
    fn rebuild(&self) -> Dataset {
        let mut builder = DatasetBuilder::new();
        for u in &self.users {
            builder.add_user(u.clone());
        }
        for it in &self.items {
            builder.add_item(it.clone());
        }
        for p in &self.persons {
            builder.add_person(p.clone());
        }
        for r in &self.ratings {
            builder.add_rating(*r);
        }
        builder.build().unwrap()
    }
}

/// Every rating accessor of `merged` agrees with `rebuilt`.
fn assert_same_ratings(merged: &Dataset, rebuilt: &Dataset) -> Result<(), TestCaseError> {
    prop_assert_eq!(merged.num_ratings(), rebuilt.num_ratings());
    prop_assert_eq!(merged.ratings().count(), rebuilt.num_ratings());
    prop_assert!(merged.ratings().eq(rebuilt.ratings()));
    prop_assert_eq!(merged.items().len(), rebuilt.items().len());
    for it in rebuilt.items() {
        prop_assert_eq!(merged.chunk(it.id), rebuilt.chunk(it.id));
        prop_assert_eq!(
            merged.rating_range_for_item(it.id),
            rebuilt.rating_range_for_item(it.id)
        );
    }
    let mut cursor = merged.cursor();
    for (idx, r) in rebuilt.ratings().enumerate() {
        let idx = RatingIdx(idx as u32);
        prop_assert_eq!(merged.rating(idx), r);
        prop_assert_eq!(cursor.rating(idx), r);
    }
    prop_assert_eq!(merged.month_partitions(), rebuilt.month_partitions());
    prop_assert_eq!(merged.time_span(), rebuilt.time_span());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chains of 1–8 `with_appended` batches (splices, tail appends, new
    /// reviewers, new items with and without ratings) stay equal to a
    /// `DatasetBuilder` rebuild through every accessor. Each version
    /// shares with its parent every chunk outside `changed_items` and,
    /// for a batch without new reviewers or items, the catalogue tables;
    /// `copied_ratings` counts exactly the ratings of the rebuilt chunks.
    #[test]
    fn chained_appends_share_untouched_chunks(
        ds in 0usize..2,
        steps in proptest::collection::vec(
            (
                0usize..3,
                0usize..3,
                proptest::collection::vec(
                    (0u8..4, any::<u32>(), any::<u32>(), 1u8..=5, -2i64..3),
                    0..12,
                ),
            ),
            1..=8,
        ),
    ) {
        let mut parent = base_datasets()[ds].clone();
        let mut tables = Tables::of(&parent);
        for (new_users, new_items, ops) in &steps {
            let batch = append_batch(&parent, *new_users, *new_items, ops);
            tables.extend(&batch);
            let mut rated: Vec<ItemId> = batch.ratings.iter().map(|r| r.item).collect();
            rated.sort_unstable();
            rated.dedup();
            let mut changed: Vec<ItemId> = rated
                .iter()
                .copied()
                .chain(batch.items.iter().map(|it| it.id))
                .collect();
            changed.sort_unstable();
            changed.dedup();

            let out = parent.with_appended(batch).unwrap();
            let child = &out.dataset;
            prop_assert_eq!(&out.changed_items, &changed);
            for it in parent.items() {
                if changed.binary_search(&it.id).is_err() {
                    prop_assert!(Arc::ptr_eq(child.chunk(it.id), parent.chunk(it.id)));
                }
            }
            let copied: usize = rated.iter().map(|&item| child.chunk(item).len()).sum();
            prop_assert_eq!(out.copied_ratings, copied);
            if *new_users == 0 {
                prop_assert!(std::ptr::eq(child.users(), parent.users()));
            }
            if *new_items == 0 {
                prop_assert!(std::ptr::eq(child.items(), parent.items()));
                prop_assert!(std::ptr::eq(child.persons(), parent.persons()));
            }
            assert_same_ratings(child, &tables.rebuild())?;
            parent = out.dataset;
        }
    }
}
