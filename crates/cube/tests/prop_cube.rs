//! Property-based tests: the bitmap behaves like a set; group descriptors
//! respect lattice laws; covers match a membership oracle.

use maprat_cube::{Bitmap, GroupDesc};
use maprat_data::ids::UserId;
use maprat_data::zipcode::Zip;
use maprat_data::{AgeGroup, Gender, Occupation, UsState, User};
use proptest::prelude::*;
use std::collections::BTreeSet;

const UNIVERSE: usize = 300;

fn positions() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..UNIVERSE, 0..80)
}

fn arb_user() -> impl Strategy<Value = User> {
    (0usize..7, 0usize..2, 0usize..21, 0usize..51).prop_map(|(age, gender, occ, state)| User {
        id: UserId(0),
        age: AgeGroup::from_index(age).unwrap(),
        gender: Gender::from_index(gender).unwrap(),
        occupation: Occupation::from_index(occ).unwrap(),
        zip: Zip::new(0),
        state: UsState::from_index(state).unwrap(),
        city: 0,
    })
}

proptest! {
    /// Bitmap ops agree with a BTreeSet oracle.
    #[test]
    fn bitmap_matches_set_oracle(xs in positions(), ys in positions()) {
        let sx: BTreeSet<usize> = xs.iter().copied().collect();
        let sy: BTreeSet<usize> = ys.iter().copied().collect();
        let bx = Bitmap::from_positions(UNIVERSE, xs.iter().copied());
        let by = Bitmap::from_positions(UNIVERSE, ys.iter().copied());

        prop_assert_eq!(bx.count(), sx.len());
        prop_assert_eq!(bx.iter().collect::<Vec<_>>(), sx.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(bx.intersection_count(&by), sx.intersection(&sy).count());
        prop_assert_eq!(bx.union_count(&by), sx.union(&sy).count());
        prop_assert_eq!(bx.is_subset_of(&by), sx.is_subset(&sy));

        let mut union = bx.clone();
        union.union_with(&by);
        prop_assert_eq!(union.count(), sx.union(&sy).count());
        let mut inter = bx.clone();
        inter.intersect_with(&by);
        prop_assert_eq!(inter.count(), sx.intersection(&sy).count());
        let mut diff = bx.clone();
        diff.subtract(&by);
        prop_assert_eq!(diff.count(), sx.difference(&sy).count());
    }

    /// Projection produces a descriptor that (a) matches its source user,
    /// (b) lives in the requested cuboid, and (c) subsumption follows mask
    /// inclusion.
    #[test]
    fn projection_laws(user in arb_user(), mask_a in 0u8..16, mask_b in 0u8..16) {
        let a = GroupDesc::project(&user, mask_a);
        let b = GroupDesc::project(&user, mask_b);
        prop_assert!(a.matches(&user));
        prop_assert_eq!(a.attr_mask(), mask_a);
        prop_assert_eq!(a.arity() as u32, mask_a.count_ones());
        if mask_a & mask_b == mask_a {
            // a's constraints are a subset of b's → a subsumes b.
            prop_assert!(a.subsumes(&b));
        }
        // ALL subsumes everything; everything subsumes itself.
        prop_assert!(GroupDesc::ALL.subsumes(&a));
        prop_assert!(a.subsumes(&a));
    }

    /// Parents have exactly one constraint fewer and subsume the child.
    #[test]
    fn parent_laws(user in arb_user(), mask in 1u8..16) {
        let child = GroupDesc::project(&user, mask);
        let parents: Vec<GroupDesc> = child.parents_iter().collect();
        prop_assert_eq!(parents.len(), child.arity());
        for p in &parents {
            prop_assert_eq!(p.arity() + 1, child.arity());
            prop_assert!(p.subsumes(&child));
            prop_assert!(p.matches(&user));
        }
    }

    /// Descriptor labels are non-empty, mention "reviewers", and descriptors
    /// with different pair-sets render different tokens.
    #[test]
    fn label_and_token(user_a in arb_user(), user_b in arb_user(), mask in 0u8..16) {
        let a = GroupDesc::project(&user_a, mask);
        let b = GroupDesc::project(&user_b, mask);
        prop_assert!(a.label().contains("reviewers"));
        if a != b {
            prop_assert_ne!(a.token(), b.token());
        } else {
            prop_assert_eq!(a.token(), b.token());
        }
    }

    /// A descriptor matches a user iff the user's projection onto the
    /// descriptor's cuboid equals the descriptor.
    #[test]
    fn match_is_projection_equality(desc_user in arb_user(), probe in arb_user(), mask in 0u8..16) {
        let desc = GroupDesc::project(&desc_user, mask);
        let probe_proj = GroupDesc::project(&probe, mask);
        prop_assert_eq!(desc.matches(&probe), desc == probe_proj);
    }
}
