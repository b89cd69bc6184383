//! Huge-scale hybrid-cover memory check — the PR 10 acceptance bound.
//!
//! Builds the iceberg cube over the full 10M-rating AQP-scale universe
//! and compares the bytes the hybrid covers actually reference
//! (dense word windows at 8 B/block, sparse run containers at 12 B/entry
//! — [`Bitmap::cover_bytes`]) against what the pre-PR-10 all-dense
//! representation would have spent (`ceil(universe/64) * 8` per cover).
//! The density-chosen representation must cut total cover storage by at
//! least 30%.
//!
//! Rides the scheduled `deep` CI job (`cargo test --workspace --release
//! -- --ignored`); too slow for the per-push suite.

use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::synth::{generate, SynthConfig};

#[test]
#[ignore = "slow: generates a 10M-rating dataset and builds its full cube; exercised by scheduled CI"]
fn hybrid_covers_cut_cover_bytes_at_huge_scale() {
    let d = generate(&SynthConfig::huge(23)).expect("generate huge dataset");
    let universe: Vec<u32> = (0..d.num_ratings() as u32).collect();
    let n = universe.len();
    let cube = RatingCube::build(
        &d,
        universe,
        CubeOptions {
            min_support: 5,
            require_geo: false,
            max_arity: 4,
        },
    );
    assert!(!cube.is_empty(), "huge cube has survivors");

    let hybrid: usize = cube.groups().iter().map(|g| g.cover.cover_bytes()).sum();
    let dense_per_cover = n.div_ceil(64) * 8;
    let all_dense = cube.len() * dense_per_cover;
    let reduction = 1.0 - hybrid as f64 / all_dense as f64;
    let sparse = cube.groups().iter().filter(|g| g.cover.is_sparse()).count();
    println!(
        "huge-scale covers: {} groups over {n} ratings; hybrid {:.1} MiB vs all-dense {:.1} MiB \
         = {:.1}% reduction ({sparse} sparse / {} dense)",
        cube.len(),
        hybrid as f64 / (1 << 20) as f64,
        all_dense as f64 / (1 << 20) as f64,
        reduction * 100.0,
        cube.len() - sparse,
    );
    // Both representations must actually be in play: density selection,
    // not a blanket choice, is what the bound certifies.
    assert!(sparse > 0, "no cover chose the sparse container");
    assert!(sparse < cube.len(), "no cover chose the dense window");
    assert!(
        reduction >= 0.30,
        "hybrid covers must cut cover bytes by >=30%: got {:.1}%",
        reduction * 100.0
    );
}
