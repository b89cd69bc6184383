//! The cuboid lattice over the reviewer schema.
//!
//! With four attributes there are `2⁴ = 16` cuboids. The builder iterates
//! them to materialize the iceberg cube; the exploration layer walks the
//! lattice for roll-up / drill-down.

use maprat_data::UserAttr;

/// A cuboid: a subset of the reviewer attributes, as a 4-bit mask aligned
/// with [`UserAttr::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cuboid(pub u8);

impl Cuboid {
    /// The apex cuboid (no attribute — the single all-reviewers cell).
    pub const APEX: Cuboid = Cuboid(0);
    /// The base cuboid (all four attributes).
    pub const BASE: Cuboid = Cuboid(0b1111);

    /// The attributes of this cuboid, in canonical order — the
    /// allocation-free form the build and drill loops iterate.
    #[inline]
    pub fn attrs_iter(self) -> impl Iterator<Item = UserAttr> + Clone {
        UserAttr::ALL
            .into_iter()
            .filter(move |a| self.0 & (1 << a.index()) != 0)
    }

    /// Whether the cuboid contains `attr`.
    #[inline]
    pub fn contains(self, attr: UserAttr) -> bool {
        self.0 & (1 << attr.index()) != 0
    }

    /// Number of attributes.
    #[inline]
    pub fn dimensionality(self) -> u32 {
        self.0.count_ones()
    }

    /// Number of potential cells (the product of domain cardinalities).
    pub fn cell_count(self) -> usize {
        self.attrs_iter().map(|a| a.cardinality()).product()
    }

    /// The parent cuboids (one attribute removed), allocation-free.
    #[inline]
    pub fn parents_iter(self) -> impl Iterator<Item = Cuboid> + Clone {
        self.attrs_iter()
            .map(move |a| Cuboid(self.0 & !(1 << a.index())))
    }

    /// The child cuboids (one attribute added), allocation-free.
    #[inline]
    pub fn children_iter(self) -> impl Iterator<Item = Cuboid> + Clone {
        UserAttr::ALL
            .into_iter()
            .filter(move |a| !self.contains(*a))
            .map(move |a| Cuboid(self.0 | (1 << a.index())))
    }
}

/// All 16 cuboid masks, apex first, in order of increasing dimensionality
/// (ties broken by mask value).
pub fn attribute_subsets() -> Vec<Cuboid> {
    let mut all: Vec<Cuboid> = (0u8..16).map(Cuboid).collect();
    all.sort_by_key(|c| (c.dimensionality(), c.0));
    all
}

/// The cuboids that include the state attribute — the candidate space when
/// the geo condition is required (§3.1).
pub fn geo_cuboids() -> Vec<Cuboid> {
    attribute_subsets()
        .into_iter()
        .filter(|c| c.contains(UserAttr::State))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cuboids_apex_first() {
        let all = attribute_subsets();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], Cuboid::APEX);
        assert_eq!(*all.last().unwrap(), Cuboid::BASE);
        // Dimensionality is monotone along the listing.
        for w in all.windows(2) {
            assert!(w[0].dimensionality() <= w[1].dimensionality());
        }
    }

    #[test]
    fn geo_cuboids_all_contain_state() {
        let geo = geo_cuboids();
        assert_eq!(geo.len(), 8);
        assert!(geo.iter().all(|c| c.contains(UserAttr::State)));
    }

    #[test]
    fn lattice_navigation() {
        let c = Cuboid(0b0011); // age + gender
        assert_eq!(c.dimensionality(), 2);
        let parents: Vec<Cuboid> = c.parents_iter().collect();
        let children: Vec<Cuboid> = c.children_iter().collect();
        assert_eq!(parents.len(), 2);
        assert_eq!(children.len(), 2);
        for p in parents {
            assert_eq!(p.dimensionality(), 1);
        }
        assert_eq!(Cuboid::APEX.parents_iter().collect::<Vec<_>>().len(), 0);
        assert_eq!(Cuboid::BASE.children_iter().collect::<Vec<_>>().len(), 0);
    }

    #[test]
    fn cell_counts() {
        assert_eq!(Cuboid::APEX.cell_count(), 1);
        let state_only = Cuboid(1 << UserAttr::State.index());
        assert_eq!(state_only.cell_count(), 51);
        assert_eq!(Cuboid::BASE.cell_count(), 7 * 2 * 21 * 51);
    }

    #[test]
    fn attrs_align_with_mask() {
        let c = Cuboid(0b1010);
        let attrs: Vec<UserAttr> = c.attrs_iter().collect();
        assert_eq!(attrs.len(), 2);
        assert!(attrs.contains(&UserAttr::Gender));
        assert!(attrs.contains(&UserAttr::State));
    }

    #[test]
    fn iterator_forms_agree_with_vec_shims() {
        // Reference lists enumerate all 16 masks: parents are the
        // one-bit-smaller subsets (removing the lowest attribute first
        // gives the largest mask), children the one-bit-larger supersets.
        for mask in 0u8..16 {
            let c = Cuboid(mask);
            let attrs: Vec<UserAttr> = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| UserAttr::ALL[i])
                .collect();
            let parents: Vec<Cuboid> = (0u8..16)
                .rev()
                .filter(|&m| m & mask == m && m.count_ones() + 1 == mask.count_ones())
                .map(Cuboid)
                .collect();
            let children: Vec<Cuboid> = (0u8..16)
                .filter(|&m| m & mask == mask && m.count_ones() == mask.count_ones() + 1)
                .map(Cuboid)
                .collect();
            assert_eq!(c.attrs_iter().collect::<Vec<_>>(), attrs);
            assert_eq!(c.parents_iter().collect::<Vec<_>>(), parents);
            assert_eq!(c.children_iter().collect::<Vec<_>>(), children);
        }
    }
}
