//! Subprocess crash-recovery harness for the ingest WAL.
//!
//! Each scenario spawns this same test binary as a child (`--exact` on
//! the child-runner test below) with `MAPRAT_FAULTS` armed to abort the
//! process at a chosen commit site — before the log write, after it,
//! after publish, or mid-frame (a torn write). The child acknowledges
//! each successful commit on stdout; the parent then reopens the WAL
//! directory onto a fresh base engine and checks the two durability
//! invariants:
//!
//! * **Zero acknowledged-write loss** — every commit the child ACKed is
//!   replayed.
//! * **Serial equivalence** — the recovered dataset is byte-identical
//!   (ratings, tables, and mined explanations) to an uncrashed service
//!   that committed the same prefix.

use maprat_core::query::ItemQuery;
use maprat_core::{Miner, SearchSettings};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::{Score, Timestamp, UserId};
use maprat_explore::MapRatEngine;
use maprat_ingest::{
    IngestBuffer, IngestService, ItemSpec, NewItem, NewUser, RatingEvent, UserSpec,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 4242;
const COMMITS: usize = 6;
/// When set, this binary is the crash child; the value is the WAL dir.
const CHILD_ENV: &str = "MAPRAT_WAL_CRASH_CHILD_DIR";

/// The deterministic commit schedule shared by the child and the serial
/// oracle: fresh reviewers rating two planted titles plus one new item
/// per commit, spread across three month partitions (so recovery spans
/// multiple WAL segments).
fn batches() -> Vec<Vec<RatingEvent>> {
    (0..COMMITS as u32)
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
                    ts: Timestamp::from_ymd(2003, 1 + (c % 3), 3 + k),
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

fn fresh_engine() -> MapRatEngine {
    MapRatEngine::from_dataset(generate(&SynthConfig::tiny(SEED)).unwrap())
}

/// The crash child. Inert (instantly green) in a normal test run; when
/// spawned by a parent with [`CHILD_ENV`] set it commits the schedule
/// through a WAL-backed service, ACKing each receipt on stdout, until
/// the armed fault aborts the process.
#[test]
fn crash_child_commits_until_killed() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (svc, _) = IngestService::with_wal(fresh_engine(), &dir).unwrap();
    let mut out = std::io::stdout();
    for events in batches() {
        let receipt = svc.commit(buffer_of(&events)).unwrap();
        writeln!(out, "ACK {}", receipt.seq).unwrap();
        out.flush().unwrap();
    }
}

struct Cycle {
    dir: PathBuf,
    acks: Vec<u64>,
    crashed: bool,
}

/// Runs one child under `faults` against a fresh WAL dir.
fn run_child(tag: &str, faults: &str) -> Cycle {
    let dir = std::env::temp_dir().join(format!(
        "maprat-wal-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["crash_child_commits_until_killed", "--exact", "--nocapture"])
        .env(CHILD_ENV, &dir)
        .env("MAPRAT_FAULTS", faults)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Under `--nocapture` libtest's own progress line precedes the
    // first ACK without a newline, so match the marker anywhere.
    let acks: Vec<u64> = stdout
        .lines()
        .filter_map(|l| l[l.find("ACK ")? + 4..].trim().parse().ok())
        .collect();
    Cycle {
        dir,
        acks,
        crashed: !out.status.success(),
    }
}

/// Recovers the WAL onto a fresh base and checks both invariants.
/// Returns how many commits the replay restored.
fn assert_recovery(cycle: &Cycle, context: &str) -> u64 {
    let (svc, report) = IngestService::with_wal(fresh_engine(), &cycle.dir).unwrap();
    assert!(
        report.replayed >= cycle.acks.len() as u64,
        "{context}: acknowledged writes lost — {} ACKed but only {} replayed",
        cycle.acks.len(),
        report.replayed
    );
    assert!(report.replayed <= COMMITS as u64, "{context}");

    // Serial oracle: the same prefix through an uncrashed, non-durable
    // service must yield the identical dataset and explanations.
    let oracle = IngestService::new(fresh_engine());
    for events in batches().iter().take(report.replayed as usize) {
        oracle.commit(buffer_of(events)).unwrap();
    }
    let recovered = svc.engine().dataset();
    let expected = oracle.engine().dataset();
    assert!(recovered.ratings().eq(expected.ratings()), "{context}");
    assert_eq!(recovered.users().len(), expected.users().len(), "{context}");
    assert_eq!(recovered.items().len(), expected.items().len(), "{context}");
    assert_eq!(svc.commit_seq(), oracle.commit_seq(), "{context}");

    if report.replayed > 0 {
        let settings = SearchSettings::default()
            .with_require_geo(false)
            .with_min_coverage(0.1);
        let query = ItemQuery::title("Toy Story");
        let a = Miner::new(&recovered).explain(&query, &settings).unwrap();
        let b = Miner::new(&expected).explain(&query, &settings).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{context}: recovered explanation drifted from the oracle"
        );
    }
    let _ = std::fs::remove_dir_all(&cycle.dir);
    report.replayed
}

#[test]
fn crash_after_log_recovers_the_unacked_commit() {
    // Abort after the 3rd commit's WAL append (fsynced, not published):
    // the child ACKs 2, but all 3 are durable and must replay.
    let cycle = run_child("post-log", "seed:1,ingest.commit.post-log@3");
    assert!(cycle.crashed, "fault did not fire");
    assert_eq!(cycle.acks, vec![1, 2]);
    let replayed = assert_recovery(&cycle, "post-log@3");
    assert_eq!(replayed, 3, "logged-but-unacked commit must be recovered");
}

#[test]
fn crash_before_log_loses_only_the_unlogged_commit() {
    let cycle = run_child("pre-log", "seed:1,ingest.commit.pre-log@2");
    assert!(cycle.crashed, "fault did not fire");
    assert_eq!(cycle.acks, vec![1]);
    let replayed = assert_recovery(&cycle, "pre-log@2");
    assert_eq!(replayed, 1, "nothing past the last durable commit exists");
}

#[test]
fn torn_frame_is_dropped_and_earlier_commits_survive() {
    // The 3rd append aborts mid-frame: repair must truncate the torn
    // tail and replay exactly the two complete commits.
    let cycle = run_child("torn", "seed:1,wal.torn@3");
    assert!(cycle.crashed, "fault did not fire");
    assert_eq!(cycle.acks, vec![1, 2]);
    let replayed = assert_recovery(&cycle, "wal.torn@3");
    assert_eq!(replayed, 2, "the torn frame must not replay");
}

/// Deep-CI seed matrix: every crash site at several positions. Run with
/// `cargo test -p maprat-ingest --test wal_recovery -- --ignored`.
#[test]
#[ignore = "slow: spawns 12 crash/restart cycles; exercised by scheduled CI"]
fn crash_recovery_seed_matrix() {
    let sites = [
        "ingest.commit.pre-log",
        "ingest.commit.post-log",
        "ingest.commit.post-publish",
        "wal.torn",
    ];
    for (seed, site) in (1u64..).zip(sites.iter().cycle()).take(12) {
        let at = 1 + (seed as usize % COMMITS);
        let faults = format!("seed:{seed},{site}@{at}");
        let cycle = run_child(&format!("matrix-{seed}"), &faults);
        assert!(cycle.crashed, "{faults}: fault did not fire");
        assert_recovery(&cycle, &faults);
    }
}
