//! Strongly-typed identifiers.
//!
//! All identifiers are dense `u32` indexes into the corresponding columnar
//! tables of a [`crate::Dataset`]; they are deliberately small (see the
//! "Smaller Integers" guidance of the perf book) because rating tuples are
//! instantiated millions of times.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw dense index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("id index overflows u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of an item (a movie, in the MovieLens demo).
    ItemId
);
id_type!(
    /// Identifier of a reviewer.
    UserId
);
id_type!(
    /// Identifier of a person appearing in item metadata (actor / director).
    PersonId
);
id_type!(
    /// Dense index of a rating tuple in a dataset's global `(item, ts, user)`
    /// order (see [`crate::Dataset::rating_range_for_item`]).
    RatingIdx
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trip_index() {
        let id = ItemId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, ItemId(42));
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(UserId(7).to_string(), "UserId#7");
        assert_eq!(RatingIdx(0).to_string(), "RatingIdx#0");
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        let set: HashSet<ItemId> = (0..10u32).map(ItemId).collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(PersonId(3) < PersonId(10));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_index_overflow_panics() {
        let _ = UserId::from_index(usize::MAX);
    }
}
