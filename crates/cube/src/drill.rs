//! State → city drill-down over a group's cover (§2.3: "if the original geo
//! condition was over a state, the drill down provides city level
//! statistics").

use crate::builder::{CandidateGroup, RatingCube};
use maprat_data::cities;
use maprat_data::{Dataset, RatingStats, UsState};

/// City-level aggregate produced by drilling into a state-anchored group.
#[derive(Debug, Clone, PartialEq)]
pub struct CityStats {
    /// City display name.
    pub city: &'static str,
    /// Index of the city within its state's table.
    pub city_index: u8,
    /// Aggregate over the group's ratings from that city.
    pub stats: RatingStats,
}

/// Splits a state-anchored group's cover into per-city aggregates.
///
/// Returns `None` if the group carries no state condition (nothing to drill
/// into). Cities with zero ratings are included with empty stats so the
/// exploration UI can render the full city list.
pub fn drill_to_cities(
    dataset: &Dataset,
    cube: &RatingCube,
    group: &CandidateGroup,
) -> Option<Vec<CityStats>> {
    let state: UsState = group.desc.state()?;
    let table = cities::cities(state);
    let mut per_city: Vec<RatingStats> = vec![RatingStats::new(); table.len()];
    // Cover positions ascend, so the cursor walks the universe's per-item
    // runs forward.
    let mut cursor = dataset.cursor();
    for pos in group.cover.iter() {
        let rating = cursor.rating(cube.rating_index_at(pos));
        let user = dataset.user(rating.user);
        debug_assert_eq!(user.state, state, "cover member outside geo condition");
        per_city[usize::from(user.city).min(table.len() - 1)].push(rating.score);
    }
    Some(
        per_city
            .into_iter()
            .enumerate()
            .map(|(i, stats)| CityStats {
                city: table[i].name,
                city_index: i as u8,
                stats,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CubeOptions;
    use crate::group::GroupDesc;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::Gender;

    fn setup() -> (Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::small(31)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(&dataset, idx, CubeOptions::default());
        (dataset, cube)
    }

    #[test]
    fn drill_partitions_the_cover() {
        let (dataset, cube) = setup();
        let group = cube
            .find(&GroupDesc::from_pairs([
                Gender::Male.into(),
                UsState::CA.into(),
            ]))
            .expect("planted CA males present");
        let cities = drill_to_cities(&dataset, &cube, group).unwrap();
        assert_eq!(cities.len(), maprat_data::cities::cities(UsState::CA).len());
        let total: u64 = cities.iter().map(|c| c.stats.count()).sum();
        assert_eq!(total, group.stats.count(), "city stats partition the group");
    }

    #[test]
    fn drill_requires_geo_condition() {
        let (dataset, _) = setup();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                require_geo: false,
                min_support: 3,
                max_arity: 2,
            },
        );
        let group = cube
            .find(&GroupDesc::from_pairs([maprat_data::AVPair::from(
                Gender::Male,
            )]))
            .expect("male group present");
        assert!(drill_to_cities(&dataset, &cube, group).is_none());
    }

    #[test]
    fn city_means_stay_on_scale() {
        let (dataset, cube) = setup();
        for group in cube.groups().iter().take(20) {
            if let Some(cities) = drill_to_cities(&dataset, &cube, group) {
                for c in cities {
                    if let Some(m) = c.stats.mean() {
                        assert!((1.0..=5.0).contains(&m));
                    }
                }
            }
        }
    }
}
