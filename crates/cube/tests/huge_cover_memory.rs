//! Hybrid-cover memory checks.
//!
//! Each builds an iceberg cube and compares the bytes its covers actually
//! reference (dense word windows at 8 B/block, sparse run containers at
//! 12 B/entry — [`Bitmap::cover_bytes`]) against what an all-dense
//! representation would spend (`ceil(universe/64) * 8` per cover).
//!
//! * The catalogue-scale check runs per push: a small-synth universe of
//!   8 000 ratings (125 words per cover), where the density rule alone —
//!   no universe size floor — puts most cells in the sparse container.
//! * The huge-scale check — the PR 10 acceptance bound, a ≥30% cut over
//!   a 10M-rating universe — rides the scheduled `deep` CI job (`cargo
//!   test --workspace --release -- --ignored`); it is too slow per push.
//!
//! [`Bitmap::cover_bytes`]: maprat_cube::Bitmap::cover_bytes

use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::synth::{generate, SynthConfig};

#[test]
fn hybrid_covers_cut_cover_bytes_at_catalogue_scale() {
    let d = generate(&SynthConfig::small(23)).expect("generate small dataset");
    // The rating runs of the first items: a multi-title universe of the
    // filmography kind.
    let universe: Vec<u32> = (0..8_000).collect();
    let n = universe.len();
    // The engine's default cube options.
    let cube = RatingCube::build(
        &d,
        universe,
        CubeOptions {
            min_support: 5,
            require_geo: true,
            max_arity: 4,
        },
    );
    let hybrid: usize = cube.groups().iter().map(|g| g.cover.cover_bytes()).sum();
    let all_dense = cube.len() * n.div_ceil(64) * 8;
    let sparse = cube.groups().iter().filter(|g| g.cover.is_sparse()).count();
    println!(
        "catalogue-scale covers: {} groups over {n} ratings; hybrid {hybrid} B vs all-dense \
         {all_dense} B ({sparse} sparse / {} dense)",
        cube.len(),
        cube.len() - sparse,
    );
    assert!(sparse > 0, "no cover chose the sparse container");
    assert!(sparse < cube.len(), "no cover chose the dense window");
    assert!(
        hybrid * 3 <= all_dense,
        "hybrid covers must take at most a third of the all-dense bytes: \
         {hybrid} B vs {all_dense} B"
    );
    // The representation is a pure function of the plan, so the bytes
    // are exact: a change to the density rule or to the fill pass's fold
    // shows here first. (All-dense, as under a universe size floor, is
    // 2 782 000 B.)
    assert_eq!(hybrid, 716_952);
}

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
