//! Rating tuples.

use crate::ids::{ItemId, UserId};
use crate::score::Score;
use crate::time::Timestamp;

/// A rating tuple `⟨i, u, s⟩` (§2.1), timestamped for the time slider.
///
/// The struct is 16 bytes and `Copy`; the dataset stores each item's
/// ratings in one chunk sorted by timestamp (see [`crate::RatingChunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rating {
    /// Rated item.
    pub item: ItemId,
    /// Rating reviewer.
    pub user: UserId,
    /// Score on the 1..=5 scale.
    pub score: Score,
    /// When the rating was entered.
    pub ts: Timestamp,
}

impl Rating {
    /// Creates a rating tuple.
    pub fn new(user: UserId, item: ItemId, score: Score, ts: Timestamp) -> Self {
        Rating {
            item,
            user,
            score,
            ts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_preserves_fields() {
        let r = Rating::new(
            UserId(3),
            ItemId(7),
            Score::new(4).unwrap(),
            Timestamp::from_ymd(2001, 5, 1),
        );
        assert_eq!(r.user, UserId(3));
        assert_eq!(r.item, ItemId(7));
        assert_eq!(r.score.get(), 4);
    }

    #[test]
    fn rating_is_compact() {
        // Rating tuples are materialized by the million; keep them lean.
        assert!(std::mem::size_of::<Rating>() <= 24);
    }
}
