//! Property-based equivalence of the dense two-pass cube builder and the
//! retained naive HashMap-oracle builder (`maprat_cube::oracle`): same
//! candidates, same (coarse-to-fine) order, same covers, same stats —
//! byte for byte — over randomized synthetic datasets, both `require_geo`
//! modes and every `max_arity`; plus worker-count determinism for the
//! parallel per-cuboid build.

use maprat_cube::oracle::build_naive;
use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A few shared datasets — generation is the expensive part; the
/// variation proptest explores is (dataset, universe, options).
fn datasets() -> &'static [Dataset] {
    static DATASETS: OnceLock<Vec<Dataset>> = OnceLock::new();
    DATASETS.get_or_init(|| {
        [11u64, 29, 73]
            .into_iter()
            .map(|seed| generate(&SynthConfig::tiny(seed)).unwrap())
            .collect()
    })
}

fn assert_cubes_identical(naive: &RatingCube, dense: &RatingCube) {
    assert_eq!(naive.universe(), dense.universe());
    assert_eq!(naive.total_stats(), dense.total_stats(), "total stats");
    assert_eq!(naive.len(), dense.len(), "candidate count");
    for (a, b) in naive.groups().iter().zip(dense.groups()) {
        assert_eq!(a.desc, b.desc, "candidate order");
        assert_eq!(a.stats, b.stats, "stats of {}", a.desc);
        assert_eq!(a.cover, b.cover, "cover of {}", a.desc);
    }
    // Lookup structures agree with the shared order.
    for (i, g) in dense.groups().iter().enumerate() {
        assert_eq!(dense.index_of(&g.desc), Some(i));
        assert_eq!(naive.index_of(&g.desc), Some(i));
    }
}

proptest! {
    /// Dense two-pass builder ≡ naive oracle, for every option shape.
    #[test]
    fn dense_builder_matches_naive_oracle(
        ds in 0usize..3,
        item_pick in 0usize..40,
        min_support in 1usize..8,
        require_geo in any::<bool>(),
        max_arity in 1usize..5,
    ) {
        let dataset = &datasets()[ds];
        let item = &dataset.items()[item_pick % dataset.items().len()];
        let idx: Vec<u32> = dataset.rating_range_for_item(item.id).collect();
        let options = CubeOptions { min_support, require_geo, max_arity };
        let naive = build_naive(dataset, idx.clone(), options.clone());
        let dense = RatingCube::build(dataset, idx, options);
        assert_cubes_identical(&naive, &dense);
    }

    /// The pooled per-cuboid build is bit-identical for any worker count.
    #[test]
    fn build_is_deterministic_in_thread_count(
        ds in 0usize..3,
        item_pick in 0usize..40,
        require_geo in any::<bool>(),
    ) {
        let dataset = &datasets()[ds];
        let item = &dataset.items()[item_pick % dataset.items().len()];
        let idx: Vec<u32> = dataset.rating_range_for_item(item.id).collect();
        let options = CubeOptions { min_support: 3, require_geo, max_arity: 4 };
        let single = RatingCube::build_with_threads(dataset, idx.clone(), options.clone(), 1);
        for threads in [2, 4, 16] {
            let parallel =
                RatingCube::build_with_threads(dataset, idx.clone(), options.clone(), threads);
            assert_cubes_identical(&single, &parallel);
        }
    }
}

/// Multi-item universes (the catalogue/trilogy shape: concatenated,
/// non-contiguous rating ranges) go through the same equivalence check.
#[test]
fn multi_item_universe_matches_oracle() {
    let dataset = &datasets()[0];
    let mut idx: Vec<u32> = Vec::new();
    for item in dataset.items().iter().take(7) {
        idx.extend(dataset.rating_range_for_item(item.id));
    }
    for require_geo in [false, true] {
        let options = CubeOptions {
            min_support: 5,
            require_geo,
            max_arity: 4,
        };
        let naive = build_naive(dataset, idx.clone(), options.clone());
        let dense = RatingCube::build(dataset, idx.clone(), options);
        assert_cubes_identical(&naive, &dense);
    }
}

/// A whole-dataset universe (94 words per cover) puts fine and coarse
/// cells alike in the sparse container: finest cells copy one profile's
/// ascending run, coarser ones fold several profiles' interleaved runs.
/// Both must equal the oracle's covers.
#[test]
fn sparse_covers_of_every_arity_match_oracle() {
    let dataset = &datasets()[1];
    let idx: Vec<u32> = (0..dataset.num_ratings() as u32).collect();
    for require_geo in [false, true] {
        let options = CubeOptions {
            min_support: 5,
            require_geo,
            max_arity: 4,
        };
        let naive = build_naive(dataset, idx.clone(), options.clone());
        let built = RatingCube::build(dataset, idx.clone(), options);
        assert_cubes_identical(&naive, &built);
        let sparse_at = |fine: bool| {
            built
                .groups()
                .iter()
                .filter(|g| g.cover.is_sparse() && (g.desc.arity() == 4) == fine)
                .count()
        };
        assert!(sparse_at(true) > 0, "no finest-cuboid cover went sparse");
        assert!(sparse_at(false) > 0, "no rolled-up cover went sparse");
    }
}

/// An empty universe builds an empty cube through both builders.
#[test]
fn empty_universe_matches_oracle() {
    let dataset = &datasets()[0];
    let naive = build_naive(dataset, Vec::new(), CubeOptions::default());
    let dense = RatingCube::build(dataset, Vec::new(), CubeOptions::default());
    assert_cubes_identical(&naive, &dense);
    assert!(dense.is_empty());
}
