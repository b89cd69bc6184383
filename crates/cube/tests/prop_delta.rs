//! Property-based equivalence of **partition merging** and a
//! from-scratch build, pinned to the retained naive oracle
//! (`maprat_cube::oracle`): over random partitions of a universe, the
//! cube built from `ProfileSummary::merge` of the per-partition scans
//! (the time slider's path) is byte-for-byte the cube the naive builder
//! produces over the concatenated universe.

use maprat_cube::oracle::build_naive;
use maprat_cube::{CubeOptions, ProfileSummary, RatingCube};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A few shared datasets — generation is the expensive part; the
/// variation proptest explores is (dataset, universe, splits, options).
fn datasets() -> &'static [Dataset] {
    static DATASETS: OnceLock<Vec<Dataset>> = OnceLock::new();
    DATASETS.get_or_init(|| {
        [17u64, 53, 97]
            .into_iter()
            .map(|seed| generate(&SynthConfig::tiny(seed)).unwrap())
            .collect()
    })
}

fn assert_cubes_identical(naive: &RatingCube, dense: &RatingCube) {
    assert_eq!(naive.rating_indexes(), dense.rating_indexes(), "universe");
    assert_eq!(naive.total_stats(), dense.total_stats(), "total stats");
    assert_eq!(naive.len(), dense.len(), "candidate count");
    for (a, b) in naive.groups().iter().zip(dense.groups()) {
        assert_eq!(a.desc, b.desc, "candidate order");
        assert_eq!(a.stats, b.stats, "stats of {}", a.desc);
        assert_eq!(a.cover, b.cover, "cover of {}", a.desc);
    }
}

/// Splits a universe into `1 + fractions.len()` contiguous segments at
/// the (sorted, deduplicated) fractional cut points.
fn segments(idx: &[u32], fractions: &[f64]) -> Vec<Vec<u32>> {
    let mut cuts: Vec<usize> = fractions
        .iter()
        .map(|f| ((idx.len() as f64) * f) as usize)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut segments = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for cut in cuts.into_iter().chain([idx.len()]) {
        segments.push(idx[start..cut].to_vec());
        start = cut;
    }
    segments
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random partitioning: merging per-partition summaries (the time
    /// slider's path) mines the same cube as scanning the concatenation.
    #[test]
    fn merged_partitions_match_oracle(
        ds in 0usize..3,
        item_pick in 0usize..40,
        require_geo in any::<bool>(),
        fractions in proptest::collection::vec(0.0f64..1.0, 1..5),
    ) {
        let dataset = &datasets()[ds];
        let item = &dataset.items()[item_pick % dataset.items().len()];
        let idx: Vec<u32> = dataset.rating_range_for_item(item.id).collect();
        let options = CubeOptions { min_support: 3, require_geo, max_arity: 4 };
        let parts: Vec<ProfileSummary> = segments(&idx, &fractions)
            .into_iter()
            .map(|seg| ProfileSummary::scan(dataset, seg))
            .collect();
        let merged = ProfileSummary::merge(parts.iter());
        prop_assert_eq!(merged.universe(), idx.len());
        let naive = build_naive(dataset, idx, options.clone());
        assert_cubes_identical(&naive, &merged.build(options));
    }
}

/// Merging one-rating partitions — the worst case for boundary-word
/// folding (every part lands mid-word) — stays oracle-identical at every
/// prefix.
#[test]
fn single_rating_partitions_match_oracle() {
    let dataset = &datasets()[0];
    let item = &dataset.items()[0];
    let idx: Vec<u32> = dataset.rating_range_for_item(item.id).collect();
    let take = idx.len().min(70); // spans a 64-bit word boundary
    assert!(take > 64, "the item must span a word boundary");
    let options = CubeOptions {
        min_support: 2,
        require_geo: false,
        max_arity: 4,
    };
    let parts: Vec<ProfileSummary> = idx[..take]
        .iter()
        .map(|&ridx| ProfileSummary::scan(dataset, vec![ridx]))
        .collect();
    for end in 1..=take {
        let merged = ProfileSummary::merge(parts[..end].iter());
        assert_eq!(merged.universe(), end);
        let naive = build_naive(dataset, idx[..end].to_vec(), options.clone());
        assert_cubes_identical(&naive, &merged.build(options.clone()));
    }
}
