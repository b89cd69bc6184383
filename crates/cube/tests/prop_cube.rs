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

/// Cover words of a catalogue-sized universe: a MovieLens filmography
/// cover spans about 281 words.
const CATALOGUE_WORDS: u32 = 320;

/// Raw `(word, bits)` draws for a sparse cover: at most a quarter of the
/// words (the builder's density rule), each word one planted bit or a
/// random pattern.
fn sparse_words() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec(
        (0u32..CATALOGUE_WORDS, any::<u64>(), any::<bool>(), 0u32..64),
        0..(CATALOGUE_WORDS / 4) as usize,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(w, pattern, one_bit, bit)| (w, if one_bit { 1 << bit } else { pattern }))
            .collect()
    })
}

/// The same set as a sparse-container cover and as a dense bitmap over
/// `0..universe`: draws are folded into canonical entries (ascending
/// distinct words, bits inside the universe, none empty).
fn sparse_and_dense(universe: usize, raw: &[(u32, u64)]) -> (Bitmap, Bitmap) {
    let words = universe.div_ceil(64);
    let mut folded = vec![0u64; words];
    for &(w, bits) in raw {
        if (w as usize) < words {
            folded[w as usize] |= bits;
        }
    }
    if !universe.is_multiple_of(64) {
        folded[words - 1] &= u64::MAX >> (64 - universe % 64);
    }
    let entries: Vec<(u32, u64)> = (0..words as u32)
        .zip(folded.iter().copied())
        .filter(|&(_, bits)| bits != 0)
        .collect();
    let positions = entries.iter().flat_map(|&(w, bits)| {
        (0..64)
            .filter(move |b| bits >> b & 1 == 1)
            .map(move |b| w as usize * 64 + b)
    });
    let dense = Bitmap::from_positions(universe, positions);
    let sparse = Bitmap::from_entries(universe, entries);
    (sparse, dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every `Bitmap` operation over catalogue-sized sparse covers —
    /// against each other, against their dense twins and against a
    /// well-filled dense union — agrees with the dense kernels (which
    /// `MAPRAT_KERNELS` selects) and with a set oracle.
    #[test]
    fn catalogue_sized_sparse_covers_match_the_dense_oracle(
        universe in 12_000usize..20_480,
        xs in sparse_words(),
        ys in sparse_words(),
        fill in proptest::collection::vec(0usize..20_480, 0..6_000),
    ) {
        let (sx, dx) = sparse_and_dense(universe, &xs);
        let (sy, dy) = sparse_and_dense(universe, &ys);
        let dz = Bitmap::from_positions(universe, fill.into_iter().filter(|&p| p < universe));
        prop_assert!(sx.is_sparse() && sy.is_sparse() && !dx.is_sparse());
        prop_assert!(sx.cover_bytes() <= dx.cover_bytes());
        let set_x: BTreeSet<usize> = dx.iter().collect();
        prop_assert_eq!(sx.iter().collect::<BTreeSet<_>>(), set_x.clone());
        prop_assert_eq!(sx.count(), set_x.len());
        prop_assert_eq!(sx.is_empty(), set_x.is_empty());
        for p in (0..universe).step_by(97) {
            prop_assert_eq!(sx.get(p), set_x.contains(&p));
        }
        let words = |bm: &Bitmap| {
            let mut v = Vec::new();
            bm.for_each_set_word(|w, bits| v.push((w, bits)));
            v
        };
        prop_assert_eq!(words(&sx), words(&dx));

        for (a, da) in [(&sx, &dx), (&dx, &dx), (&dz, &dz)] {
            for (b, db) in [(&sy, &dy), (&dy, &dy), (&sx, &dx), (&dz, &dz)] {
                prop_assert_eq!(a == b, da == db);
                prop_assert_eq!(a.intersection_count(b), da.intersection_count(db));
                prop_assert_eq!(a.union_count(b), da.union_count(db));
                prop_assert_eq!(a.is_subset_of(b), da.is_subset_of(db));
                let mut got = a.clone();
                let mut want = da.clone();
                got.union_with(b);
                want.union_with(db);
                prop_assert_eq!(&got, &want);
                got.copy_from(a);
                want.copy_from(da);
                got.intersect_with(b);
                want.intersect_with(db);
                prop_assert_eq!(&got, &want);
                got.copy_from(a);
                want.copy_from(da);
                got.subtract(b);
                want.subtract(db);
                prop_assert_eq!(&got, &want);
            }
        }
        // The coverage union the solver builds: sparse covers folded
        // into one scratch bitmap.
        let mut union = Bitmap::new(universe);
        union.union_with(&sx);
        union.union_with(&sy);
        let set_y: BTreeSet<usize> = dy.iter().collect();
        prop_assert_eq!(union.count(), set_x.union(&set_y).count());
        prop_assert!(sx.is_subset_of(&union) && sy.is_subset_of(&union));
    }
}
