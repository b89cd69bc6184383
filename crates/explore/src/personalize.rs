//! Demographic personalization (§3.1): "MapRat can exploit any user
//! demographic information (gender, age, location or occupation) available
//! to constrain the groups that are highlighted. This ensures that the
//! resulting groups are the ones that user most self-identifies with."
//!
//! Personalized explains bypass the engine's result tier and share its
//! snapshot tier: the profile filters the cube cached for the query.

use crate::engine::MapRatEngine;
use maprat_core::query::ItemQuery;
use maprat_core::{Budget, Explanation, MineError, Miner, SearchSettings};
use maprat_cube::{CandidateGroup, RatingCube};
use maprat_data::AttrValue;

/// A (partial) visitor profile: any subset of the four demographics.
#[derive(Debug, Clone, Default)]
pub struct VisitorProfile {
    values: Vec<AttrValue>,
}

impl VisitorProfile {
    /// An empty profile (no constraint).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a known demographic; later values for the same attribute
    /// replace earlier ones.
    pub fn with(mut self, value: AttrValue) -> Self {
        self.values.retain(|v| v.attr() != value.attr());
        self.values.push(value);
        self
    }

    /// The declared values.
    pub fn values(&self) -> &[AttrValue] {
        &self.values
    }

    /// Whether nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether a candidate group is one the visitor can self-identify
    /// with: every attribute the group constrains *and* the visitor
    /// declares must agree. Attributes the visitor left blank are
    /// unconstrained.
    pub fn compatible(&self, group: &CandidateGroup) -> bool {
        self.values
            .iter()
            .all(|&v| match group.desc.value(v.attr()) {
                Some(group_value) => group_value == v,
                None => true,
            })
    }
}

/// Explains a query with the candidate pool constrained to the visitor's
/// profile.
///
/// Personalized mining bypasses the engine's result tier (one entry per
/// visitor profile would thrash it) but shares its snapshot tier: the
/// profile filters the cached cube of the query's cube-build inputs
/// (built and cached on a miss), and the solve runs against that
/// snapshot's pinned dataset, exactly as a snapshot re-solve does.
/// Settings are validated before the tier is consulted.
///
/// Degrades gracefully: if the constrained pool is empty, falls back to the
/// unconstrained pool (an anonymous visitor sees the ordinary result).
pub fn personalized_explain(
    engine: &MapRatEngine,
    query: &ItemQuery,
    settings: &SearchSettings,
    profile: &VisitorProfile,
) -> Result<Explanation, MineError> {
    settings.validate()?;
    let (snap, _) = engine.cube_snapshot(query, settings)?;
    let miner = Miner::new(&snap.dataset);
    let solve = |cube: &RatingCube, columns| {
        miner.explain_cube_with(
            query,
            snap.items.clone(),
            cube,
            columns,
            settings,
            &Budget::unlimited(),
        )
    };
    if !profile.is_empty() {
        let constrained = snap.cube.filtered(|g| profile.compatible(g));
        if !constrained.is_empty() {
            return solve(&constrained, engine.build_columns(&constrained));
        }
    }
    solve(&snap.cube, engine.snapshot_columns(&snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::{AgeGroup, Gender, UsState, UserAttr};

    fn fixture() -> (MapRatEngine, SearchSettings) {
        (
            MapRatEngine::from_dataset(generate(&SynthConfig::small(161)).unwrap()),
            SearchSettings::default().with_min_coverage(0.05),
        )
    }

    #[test]
    fn profile_replaces_same_attribute() {
        let p = VisitorProfile::new()
            .with(AttrValue::Gender(Gender::Male))
            .with(AttrValue::Gender(Gender::Female));
        assert_eq!(p.values().len(), 1);
        assert_eq!(p.values()[0], AttrValue::Gender(Gender::Female));
    }

    #[test]
    fn personalized_groups_match_profile() {
        let (engine, settings) = fixture();
        let profile = VisitorProfile::new()
            .with(AttrValue::Gender(Gender::Female))
            .with(AttrValue::Age(AgeGroup::Under18));
        let e = personalized_explain(
            &engine,
            &ItemQuery::title("The Twilight Saga: Eclipse"),
            &settings,
            &profile,
        )
        .unwrap();
        for g in e.similarity.groups.iter().chain(&e.diversity.groups) {
            if let Some(AttrValue::Gender(gv)) = g.desc.value(UserAttr::Gender) {
                assert_eq!(gv, Gender::Female, "{}", g.label);
            }
            if let Some(AttrValue::Age(av)) = g.desc.value(UserAttr::Age) {
                assert_eq!(av, AgeGroup::Under18, "{}", g.label);
            }
        }
    }

    #[test]
    fn empty_profile_equals_plain_explain() {
        let (engine, settings) = fixture();
        let q = ItemQuery::title("Toy Story");
        let dataset = engine.dataset();
        let plain = Miner::new(&dataset).explain(&q, &settings).unwrap();
        let personalized =
            personalized_explain(&engine, &q, &settings, &VisitorProfile::new()).unwrap();
        let labels = |e: &Explanation| -> Vec<String> {
            e.similarity
                .groups
                .iter()
                .map(|g| g.label.clone())
                .collect()
        };
        assert_eq!(labels(&plain), labels(&personalized));
    }

    #[test]
    fn impossible_profile_falls_back() {
        let (engine, mut settings) = fixture();
        settings.min_support = 50; // specific profiles miss, the cube stays non-empty
                                   // A profile so specific that (at small scale) no candidate matches
                                   // its exact state+age+occupation combination.
        let profile = VisitorProfile::new()
            .with(AttrValue::State(UsState::WY))
            .with(AttrValue::Age(AgeGroup::Above56))
            .with(AttrValue::Gender(Gender::Female));
        let result =
            personalized_explain(&engine, &ItemQuery::title("Toy Story"), &settings, &profile);
        // Either personalized (if candidates exist) or fallback — but never
        // an error caused by the profile.
        assert!(result.is_ok());
    }

    #[test]
    fn compatibility_semantics() {
        let (engine, settings) = fixture();
        let dataset = engine.dataset();
        let (_, cube) = Miner::new(&dataset)
            .build_cube(&ItemQuery::title("Toy Story"), &settings)
            .unwrap();
        let profile = VisitorProfile::new().with(AttrValue::Gender(Gender::Male));
        for g in cube.groups() {
            let expected = !matches!(
                g.desc.value(UserAttr::Gender),
                Some(AttrValue::Gender(Gender::Female))
            );
            assert_eq!(profile.compatible(g), expected, "{}", g.desc);
        }
    }
}
