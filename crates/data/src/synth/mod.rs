//! Synthetic MovieLens-scale dataset generation.
//!
//! The paper's demo runs on the MovieLens-1M dataset joined with IMDB
//! metadata (§3), which this reproduction cannot ship. This module builds a
//! statistically faithful substitute:
//!
//! * the same cardinalities (6040 users / ~3900 movies / 1M ratings at the
//!   `movielens_1m` preset) and the same attribute domains;
//! * MovieLens-like marginals — age/gender/occupation distributions from
//!   the published ML-1M statistics, state distribution proportional to
//!   population, Zipf-like item popularity, long-tailed user activity;
//! * a latent *demographic affinity* rating model, so that demographic
//!   groups genuinely differ in how they rate — the structure MapRat mines;
//! * **planted scenarios** ([`planted`]) reproducing the paper's named
//!   examples (Toy Story, The Twilight Saga: Eclipse, Tom Hanks / Steven
//!   Spielberg catalogues, the Lord of the Rings trilogy) with known ground
//!   truth, which the figure-regeneration binaries and integration tests
//!   assert against.
//!
//! Everything is deterministic given [`SynthConfig::seed`].

mod affinity;
mod config;
mod movies;
mod names;
pub mod planted;
mod ratings;
mod users;

pub use affinity::MovieAffinity;
pub use config::SynthConfig;
pub use planted::{PlantRule, PlantedScenario};

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::DataError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates a complete synthetic dataset from a configuration.
pub fn generate(config: &SynthConfig) -> Result<Dataset, DataError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = DatasetBuilder::new();

    users::generate_users(config, &mut rng, &mut builder);
    let movie_world = movies::generate_movies(config, &mut rng, &mut builder);
    ratings::generate_ratings(config, &mut rng, &mut builder, &movie_world);

    builder.build()
}

/// Convenience: the small demo dataset used by examples and integration
/// tests (deterministic, ~60k ratings, includes all planted scenarios).
pub fn demo_dataset() -> Dataset {
    generate(&SynthConfig::small(42)).expect("demo generation cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{Gender, UserAttr};

    #[test]
    fn tiny_generation_is_deterministic() {
        let cfg = SynthConfig::tiny(7);
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.num_ratings(), b.num_ratings());
        assert_eq!(a.users().len(), b.users().len());
        // Spot-check identical tuples.
        for (x, y) in a.ratings().zip(b.ratings()).step_by(97) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::tiny(1)).unwrap();
        let b = generate(&SynthConfig::tiny(2)).unwrap();
        let same = a.ratings().zip(b.ratings()).filter(|(x, y)| x == y).count();
        assert!(same < a.num_ratings(), "seeds produce identical data");
    }

    #[test]
    fn cardinalities_match_config() {
        let cfg = SynthConfig::tiny(3);
        let d = generate(&cfg).unwrap();
        assert_eq!(d.users().len(), cfg.num_users);
        assert!(
            d.items().len() >= cfg.num_movies,
            "planted movies add extras"
        );
        // Rating count is approximate (duplicate (user,item) draws are
        // rejected) but must be close.
        let target = cfg.num_ratings;
        assert!(
            d.num_ratings() as f64 > target as f64 * 0.9,
            "only {} of {target}",
            d.num_ratings()
        );
    }

    #[test]
    fn gender_skew_matches_movielens() {
        // ML-1M is ~72% male.
        let d = generate(&SynthConfig::small(11)).unwrap();
        let male = d
            .users()
            .iter()
            .filter(|u| u.gender == Gender::Male)
            .count() as f64
            / d.users().len() as f64;
        assert!((0.62..0.82).contains(&male), "male fraction {male}");
    }

    #[test]
    fn all_attribute_values_inhabited_at_small_scale() {
        let d = generate(&SynthConfig::small(5)).unwrap();
        for attr in UserAttr::ALL {
            let mut seen = vec![false; attr.cardinality()];
            for u in d.users() {
                seen[u.attr_value(attr).value_index()] = true;
            }
            let inhabited = seen.iter().filter(|&&b| b).count();
            // States may miss a couple of tiny ones at this scale.
            assert!(
                inhabited * 10 >= seen.len() * 9,
                "{attr}: only {inhabited}/{} values inhabited",
                seen.len()
            );
        }
    }

    #[test]
    fn time_span_within_configured_window() {
        let cfg = SynthConfig::tiny(9);
        let d = generate(&cfg).unwrap();
        let (lo, hi) = d.time_span().unwrap();
        assert!(lo >= cfg.time_start);
        assert!(hi < cfg.time_end);
    }
}
