//! Group descriptors — cube cells over the reviewer schema.

use maprat_data::{AVPair, AgeGroup, AttrValue, Gender, Occupation, UsState, User, UserAttr};
use std::fmt;

/// A group descriptor: for each reviewer attribute, either "unspecified" or
/// a fixed value. This is the `{⟨attr, value⟩…}` set of §2.1 in a compact,
/// hashable form (one byte per attribute, `0xFF` = unspecified).
///
/// ```
/// use maprat_cube::GroupDesc;
/// use maprat_data::{Gender, UsState};
/// let g = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
/// assert_eq!(g.label(), "male reviewers from California");
/// assert_eq!(g.state(), Some(UsState::CA));
/// assert_eq!(g.arity(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupDesc {
    values: [u8; 4],
}

const UNSET: u8 = 0xFF;

impl GroupDesc {
    /// The empty descriptor (matches every reviewer).
    pub const ALL: GroupDesc = GroupDesc { values: [UNSET; 4] };

    /// Builds a descriptor from attribute/value pairs.
    ///
    /// # Panics
    /// Panics if two pairs constrain the same attribute differently.
    pub fn from_pairs<I: IntoIterator<Item = AVPair>>(pairs: I) -> Self {
        let mut desc = GroupDesc::ALL;
        for pair in pairs {
            let slot = &mut desc.values[pair.attr().index()];
            let v = pair.value.value_index() as u8;
            assert!(
                *slot == UNSET || *slot == v,
                "conflicting values for {}",
                pair.attr()
            );
            *slot = v;
        }
        desc
    }

    /// The descriptor of a single reviewer restricted to a cuboid
    /// (attribute subset given as a bitmask over [`UserAttr::ALL`]).
    pub fn project(user: &User, attr_mask: u8) -> Self {
        let mut desc = GroupDesc::ALL;
        for attr in UserAttr::ALL {
            if attr_mask & (1 << attr.index()) != 0 {
                desc.values[attr.index()] = user.attr_value(attr).value_index() as u8;
            }
        }
        desc
    }

    /// The value constrained for `attr`, if any.
    pub fn value(&self, attr: UserAttr) -> Option<AttrValue> {
        let raw = self.values[attr.index()];
        if raw == UNSET {
            return None;
        }
        let idx = raw as usize;
        Some(match attr {
            UserAttr::Age => AttrValue::Age(AgeGroup::from_index(idx).expect("valid age index")),
            UserAttr::Gender => {
                AttrValue::Gender(Gender::from_index(idx).expect("valid gender index"))
            }
            UserAttr::Occupation => {
                AttrValue::Occupation(Occupation::from_index(idx).expect("valid occupation index"))
            }
            UserAttr::State => {
                AttrValue::State(UsState::from_index(idx).expect("valid state index"))
            }
        })
    }

    /// Builds a descriptor directly from the per-attribute value-index
    /// array (`0xFF` = unspecified) — the dense cube builder decodes
    /// surviving cell ids through this without touching a `User`.
    #[inline]
    pub(crate) fn from_raw_values(values: [u8; 4]) -> Self {
        GroupDesc { values }
    }

    /// A single integer that orders descriptors exactly like
    /// `(arity, desc)` — arity in the high bits, the four value bytes
    /// (big-endian, so lexicographic) below. The builder sorts thousands
    /// of survivors by this key per materialization; one `u64` compare
    /// beats the derived tuple/array comparison chain.
    #[inline]
    pub(crate) fn sort_key(&self) -> u64 {
        ((self.arity() as u64) << 32) | u64::from(u32::from_be_bytes(self.values))
    }

    /// The constrained pairs in canonical attribute order, allocation-
    /// free — rendering and overlay loops iterate this directly.
    #[inline]
    pub fn pairs_iter(&self) -> impl Iterator<Item = AVPair> + '_ {
        UserAttr::ALL
            .iter()
            .filter_map(|&a| self.value(a).map(AVPair::new))
    }

    /// Number of constrained attributes (the descriptor's *specificity*).
    pub fn arity(&self) -> usize {
        self.values.iter().filter(|&&v| v != UNSET).count()
    }

    /// Whether no attribute is constrained.
    pub fn is_all(&self) -> bool {
        self.arity() == 0
    }

    /// The state condition, if the descriptor carries one (MapRat's geo
    /// anchor, §3.1).
    pub fn state(&self) -> Option<UsState> {
        match self.value(UserAttr::State) {
            Some(AttrValue::State(s)) => Some(s),
            _ => None,
        }
    }

    /// Whether a reviewer belongs to this group.
    pub fn matches(&self, user: &User) -> bool {
        UserAttr::ALL.iter().all(|&attr| {
            let raw = self.values[attr.index()];
            raw == UNSET || raw as usize == user.attr_value(attr).value_index()
        })
    }

    /// Whether this descriptor subsumes `other` (describes a superset:
    /// every constraint of `self` is also a constraint of `other`).
    pub fn subsumes(&self, other: &GroupDesc) -> bool {
        self.values
            .iter()
            .zip(&other.values)
            .all(|(&a, &b)| a == UNSET || a == b)
    }

    /// The parent descriptors in the cube lattice (one constraint
    /// removed), allocation-free — the roll-up comparison loops iterate
    /// this directly.
    #[inline]
    pub fn parents_iter(&self) -> impl Iterator<Item = GroupDesc> + '_ {
        UserAttr::ALL
            .iter()
            .filter(|a| self.values[a.index()] != UNSET)
            .map(|a| {
                let mut p = *self;
                p.values[a.index()] = UNSET;
                p
            })
    }

    /// The child descriptors obtainable by additionally constraining
    /// `attr` (one per domain value); empty if `attr` is already bound.
    pub fn children_over(&self, attr: UserAttr) -> Vec<GroupDesc> {
        if self.values[attr.index()] != UNSET {
            return Vec::new();
        }
        (0..attr.cardinality())
            .map(|v| {
                let mut child = *self;
                child.values[attr.index()] = v as u8;
                child
            })
            .collect()
    }

    /// The cuboid (attribute bitmask) this descriptor belongs to.
    pub fn attr_mask(&self) -> u8 {
        let mut mask = 0;
        for attr in UserAttr::ALL {
            if self.values[attr.index()] != UNSET {
                mask |= 1 << attr.index();
            }
        }
        mask
    }

    /// Renders the paper-style natural-language label, e.g.
    /// "male reviewers from California",
    /// "female teen student reviewers from New York",
    /// "reviewers aged 25-34", "all reviewers".
    pub fn label(&self) -> String {
        let mut out = String::new();
        if let Some(AttrValue::Gender(g)) = self.value(UserAttr::Gender) {
            out.push_str(g.phrase());
            out.push(' ');
        }
        let age = match self.value(UserAttr::Age) {
            Some(AttrValue::Age(a)) => Some(a),
            _ => None,
        };
        if let Some(a) = age {
            if a.phrase_is_prefix() {
                out.push_str(a.phrase());
                out.push(' ');
            }
        }
        if let Some(AttrValue::Occupation(o)) = self.value(UserAttr::Occupation) {
            out.push_str(o.phrase());
            out.push(' ');
        }
        out.push_str("reviewers");
        if let Some(a) = age {
            if !a.phrase_is_prefix() {
                out.push(' ');
                out.push_str(a.phrase());
            }
        }
        if let Some(AttrValue::State(s)) = self.value(UserAttr::State) {
            out.push(' ');
            out.push_str(&s.phrase());
        }
        if self.is_all() {
            return "all reviewers".to_string();
        }
        out
    }

    /// Compact token form, e.g. `gender=M ∧ state=CA`.
    pub fn token(&self) -> String {
        if self.is_all() {
            return "⊤".to_string();
        }
        self.pairs_iter()
            .map(|p| p.value.token())
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

impl fmt::Display for GroupDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::{ids::UserId, zipcode::Zip};

    fn user(gender: Gender, age: AgeGroup, occ: Occupation, state: UsState) -> User {
        User {
            id: UserId(0),
            age,
            gender,
            occupation: occ,
            zip: Zip::new(0),
            state,
            city: 0,
        }
    }

    #[test]
    fn figure2_labels_render_like_the_paper() {
        let g = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
        assert_eq!(g.label(), "male reviewers from California");
        let g = GroupDesc::from_pairs([
            Gender::Female.into(),
            AgeGroup::Under18.into(),
            Occupation::K12Student.into(),
            UsState::NY.into(),
        ]);
        assert_eq!(g.label(), "female teen student reviewers from New York");
        let g = GroupDesc::from_pairs([AgeGroup::From25To34.into()]);
        assert_eq!(g.label(), "reviewers aged 25-34");
        assert_eq!(GroupDesc::ALL.label(), "all reviewers");
    }

    #[test]
    fn token_form() {
        let g = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
        assert_eq!(g.token(), "gender=M ∧ state=CA");
        assert_eq!(GroupDesc::ALL.token(), "⊤");
    }

    #[test]
    fn matches_requires_all_constraints() {
        let g = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
        let ca_male = user(
            Gender::Male,
            AgeGroup::From25To34,
            Occupation::Other,
            UsState::CA,
        );
        let ca_female = user(
            Gender::Female,
            AgeGroup::From25To34,
            Occupation::Other,
            UsState::CA,
        );
        let ny_male = user(
            Gender::Male,
            AgeGroup::From25To34,
            Occupation::Other,
            UsState::NY,
        );
        assert!(g.matches(&ca_male));
        assert!(!g.matches(&ca_female));
        assert!(!g.matches(&ny_male));
        assert!(GroupDesc::ALL.matches(&ca_female));
    }

    #[test]
    fn project_extracts_cuboid_cell() {
        let u = user(
            Gender::Male,
            AgeGroup::Under18,
            Occupation::K12Student,
            UsState::TX,
        );
        let mask = (1 << UserAttr::Gender.index()) | (1 << UserAttr::State.index());
        let g = GroupDesc::project(&u, mask);
        assert_eq!(g.arity(), 2);
        assert_eq!(g.state(), Some(UsState::TX));
        assert!(g.matches(&u));
        assert_eq!(g.attr_mask(), mask);
    }

    #[test]
    fn subsumption_and_parents() {
        let child = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
        let parent = GroupDesc::from_pairs([AVPair::from(Gender::Male)]);
        assert!(parent.subsumes(&child));
        assert!(!child.subsumes(&parent));
        assert!(GroupDesc::ALL.subsumes(&child));
        let parents: Vec<GroupDesc> = child.parents_iter().collect();
        assert_eq!(parents.len(), 2);
        assert!(parents.contains(&parent));
    }

    #[test]
    fn children_enumerate_domain() {
        let g = GroupDesc::from_pairs([AVPair::from(Gender::Male)]);
        let kids = g.children_over(UserAttr::State);
        assert_eq!(kids.len(), UsState::ALL.len());
        assert!(kids.iter().all(|k| k.arity() == 2));
        assert!(g.children_over(UserAttr::Gender).is_empty());
    }

    #[test]
    fn pairs_round_trip() {
        let pairs: Vec<AVPair> = vec![
            AgeGroup::From18To24.into(),
            Gender::Female.into(),
            UsState::WA.into(),
        ];
        let g = GroupDesc::from_pairs(pairs.clone());
        assert_eq!(g.pairs_iter().collect::<Vec<_>>(), pairs);
        assert_eq!(g.arity(), 3);
    }

    #[test]
    fn iterator_forms_agree_with_vec_shims() {
        // The reference lists are written out by hand, in canonical
        // attribute order.
        let age = AVPair::from(AgeGroup::From18To24);
        let gender = AVPair::from(Gender::Female);
        let state = AVPair::from(UsState::WA);
        let g = GroupDesc::from_pairs([age, gender, state]);
        assert_eq!(g.pairs_iter().collect::<Vec<_>>(), vec![age, gender, state]);
        assert_eq!(
            g.parents_iter().collect::<Vec<_>>(),
            vec![
                GroupDesc::from_pairs([gender, state]),
                GroupDesc::from_pairs([age, state]),
                GroupDesc::from_pairs([age, gender]),
            ]
        );
        assert_eq!(GroupDesc::ALL.pairs_iter().count(), 0);
        assert_eq!(GroupDesc::ALL.parents_iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "conflicting")]
    fn conflicting_pairs_panic() {
        let _ = GroupDesc::from_pairs([AVPair::from(UsState::CA), AVPair::from(UsState::NY)]);
    }

    #[test]
    fn descriptor_is_copy_and_small() {
        assert_eq!(std::mem::size_of::<GroupDesc>(), 4);
    }
}
