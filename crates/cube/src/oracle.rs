//! The retained naive cube builder — the pre-dense reference
//! implementation, kept as the equivalence oracle.
//!
//! This is, verbatim in behavior, the original hash-accumulating
//! materialization: every rating × every cuboid projects a
//! [`GroupDesc`], hashes it into a `HashMap`, grows a per-cell position
//! list, and finally re-materializes each surviving list into a
//! [`Bitmap`]. It exists so the dense two-pass builder
//! ([`RatingCube::build`]) can be property-tested against it — same
//! candidates, same order, same covers, same stats — and so benches can
//! report an honest old-vs-new ratio on the same machine and dataset.
//! Production code must never call it.

use crate::bitmap::Bitmap;
use crate::builder::{CandidateGroup, CubeOptions, RatingCube};
use crate::group::GroupDesc;
use crate::lattice::{attribute_subsets, geo_cuboids, Cuboid};
use maprat_data::{Dataset, RatingIdx, RatingStats};
use std::collections::HashMap;

/// Materializes the iceberg cube the pre-dense way (hashing a
/// `GroupDesc` per rating × cuboid into per-cell position lists).
pub fn build_naive(dataset: &Dataset, rating_idx: Vec<u32>, options: CubeOptions) -> RatingCube {
    let universe = rating_idx.len();
    let cuboids: Vec<Cuboid> = if options.require_geo {
        geo_cuboids()
    } else {
        attribute_subsets()
    }
    .into_iter()
    .filter(|c| {
        let d = c.dimensionality() as usize;
        d >= 1 && d <= options.max_arity
    })
    .collect();

    let mut cells: HashMap<GroupDesc, (RatingStats, Vec<u32>)> = HashMap::new();
    let mut total = RatingStats::new();
    let mut cursor = dataset.cursor();
    for (pos, &ridx) in rating_idx.iter().enumerate() {
        let rating = cursor.rating(RatingIdx(ridx));
        let user = dataset.user(rating.user);
        total.push(rating.score);
        for &cuboid in &cuboids {
            let desc = GroupDesc::project(user, cuboid.0);
            let (stats, positions) = cells.entry(desc).or_default();
            stats.push(rating.score);
            positions.push(pos as u32);
        }
    }

    let mut groups: Vec<CandidateGroup> = cells
        .into_iter()
        .filter(|(_, (stats, _))| stats.count() as usize >= options.min_support)
        .map(|(desc, (stats, positions))| CandidateGroup {
            desc,
            cover: Bitmap::from_positions(universe, positions.iter().map(|&p| p as usize)),
            stats,
        })
        .collect();
    // Deterministic candidate order: coarse-to-fine, then descriptor.
    groups.sort_by_key(|g| (g.desc.arity(), g.desc));

    RatingCube::from_parts(rating_idx, groups, total, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    #[test]
    fn oracle_and_dense_builder_agree_on_a_fixture() {
        let dataset = generate(&SynthConfig::tiny(99)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let options = CubeOptions {
            min_support: 3,
            require_geo: false,
            max_arity: 3,
        };
        let naive = build_naive(&dataset, idx.clone(), options.clone());
        let dense = RatingCube::build(&dataset, idx, options);
        assert_eq!(naive.len(), dense.len());
        assert_eq!(naive.total_stats(), dense.total_stats());
        for (a, b) in naive.groups().iter().zip(dense.groups()) {
            assert_eq!(a.desc, b.desc);
            assert_eq!(a.cover, b.cover);
            assert_eq!(a.stats, b.stats);
        }
    }
}
