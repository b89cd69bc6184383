//! Live-append support: explicit id allocation and the append batches
//! merged by [`Dataset::with_appended`].
//!
//! The dataset keeps its ratings sorted by `(item, ts, user)`, so appending
//! ratings to an existing item *inserts* into the middle of the global
//! rating order and shifts every later index. A commit therefore produces a
//! new dataset version; in-flight readers keep their pinned `Arc<Dataset>`,
//! so the indexes they resolved stay valid against that version. The new
//! version rebuilds only the chunks of the items the batch rated and shares
//! the rest with its parent.
//!
//! [`Dataset::with_appended`]: crate::dataset::Dataset::with_appended

use crate::dataset::Dataset;
use crate::ids::{ItemId, UserId};
use crate::item::Item;
use crate::rating::Rating;
use crate::user::User;

/// Hands out dense ids for ingested users and items.
///
/// The dataset's columnar layout (and the 15-bit `PackedUserCode` column in
/// particular) requires every entity id to equal its dense table position.
/// Loader and synth paths guarantee this by construction at load time; the
/// ingest path must keep the invariant while the system is serving. This
/// allocator makes that contract explicit: it continues the id space of the
/// dataset it was derived from, so appends can neither collide with nor
/// reorder existing rows.
#[derive(Debug, Clone)]
pub struct IdAllocator {
    next_user: u32,
    next_item: u32,
}

impl IdAllocator {
    /// An allocator continuing `dataset`'s dense id space.
    pub fn for_dataset(dataset: &Dataset) -> Self {
        IdAllocator {
            next_user: dataset.users().len() as u32,
            next_item: dataset.items().len() as u32,
        }
    }

    /// An allocator starting after `num_users` users and `num_items` items.
    pub fn new(num_users: u32, num_items: u32) -> Self {
        IdAllocator {
            next_user: num_users,
            next_item: num_items,
        }
    }

    /// Allocates the next dense user id.
    pub fn alloc_user(&mut self) -> UserId {
        let id = UserId(self.next_user);
        self.next_user += 1;
        id
    }

    /// Allocates the next dense item id.
    pub fn alloc_item(&mut self) -> ItemId {
        let id = ItemId(self.next_item);
        self.next_item += 1;
        id
    }

    /// The next user id that [`alloc_user`](Self::alloc_user) would return.
    pub fn peek_user(&self) -> UserId {
        UserId(self.next_user)
    }

    /// The next item id that [`alloc_item`](Self::alloc_item) would return.
    pub fn peek_item(&self) -> ItemId {
        ItemId(self.next_item)
    }
}

/// A validated batch of entities and ratings to append to a dataset.
///
/// New users and items must carry ids allocated by an [`IdAllocator`]
/// continuing the target dataset ([`Dataset::with_appended`] rejects any
/// batch whose ids do not densely continue the existing tables). Ratings may
/// reference both pre-existing and batch-new entities.
#[derive(Debug, Clone, Default)]
pub struct AppendBatch {
    /// New users, ids continuing the dataset's user table.
    pub users: Vec<User>,
    /// New items, ids continuing the dataset's item table.
    pub items: Vec<Item>,
    /// New ratings over old or new entities.
    pub ratings: Vec<Rating>,
}

impl AppendBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty() && self.items.is_empty() && self.ratings.is_empty()
    }
}

/// The outcome of [`Dataset::with_appended`]: the merged dataset plus the
/// bookkeeping the serving layer needs to commit it.
#[derive(Debug)]
pub struct AppendResult {
    /// The new immutable dataset.
    pub dataset: Dataset,
    /// Distinct items whose rating slices changed (plus brand-new items),
    /// sorted ascending — the partition-scoped cache invalidation key.
    pub changed_items: Vec<ItemId>,
    /// Ratings written into rebuilt chunks: the post-commit rating counts
    /// of the rated items. Every other rating is shared with the parent.
    pub copied_ratings: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AgeGroup, Gender, Occupation, UsState};
    use crate::dataset::DatasetBuilder;
    use crate::genre::{Genre, GenreSet};
    use crate::score::Score;
    use crate::time::Timestamp;
    use crate::zipcode::Zip;

    fn mk_user(id: u32, state: UsState) -> User {
        User {
            id: UserId(id),
            age: AgeGroup::From25To34,
            gender: Gender::Female,
            occupation: Occupation::Artist,
            zip: Zip::new(94103),
            state,
            city: 0,
        }
    }

    fn mk_item(id: u32, title: &str) -> Item {
        Item::new(ItemId(id), title, 1999, GenreSet::of([Genre::Drama]))
    }

    fn base() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_user(mk_user(0, UsState::CA));
        b.add_user(mk_user(1, UsState::NY));
        b.add_item(mk_item(0, "Alpha"));
        b.add_item(mk_item(1, "Beta"));
        let t = |d| Timestamp::from_ymd(2001, 3, d);
        b.add_rating(Rating::new(
            UserId(0),
            ItemId(0),
            Score::new(4).unwrap(),
            t(1),
        ));
        b.add_rating(Rating::new(
            UserId(1),
            ItemId(0),
            Score::new(2).unwrap(),
            t(9),
        ));
        b.add_rating(Rating::new(
            UserId(0),
            ItemId(1),
            Score::new(5).unwrap(),
            t(4),
        ));
        b.build().unwrap()
    }

    #[test]
    fn allocator_continues_dense_id_space() {
        let d = base();
        let mut alloc = IdAllocator::for_dataset(&d);
        assert_eq!(alloc.peek_user(), UserId(2));
        assert_eq!(alloc.alloc_user(), UserId(2));
        assert_eq!(alloc.alloc_user(), UserId(3));
        assert_eq!(alloc.alloc_item(), ItemId(2));
        assert_eq!(alloc.peek_item(), ItemId(3));
    }

    #[test]
    fn append_merges_and_remaps() {
        let d = base();
        let mut alloc = IdAllocator::for_dataset(&d);
        let u2 = alloc.alloc_user();
        let mut batch = AppendBatch::new();
        batch.users.push(mk_user(u2.0, UsState::TX));
        let t = |day| Timestamp::from_ymd(2001, 3, day);
        // Splices between item 0's two ratings; tail-append on item 1.
        batch
            .ratings
            .push(Rating::new(u2, ItemId(0), Score::new(3).unwrap(), t(5)));
        batch
            .ratings
            .push(Rating::new(u2, ItemId(1), Score::new(1).unwrap(), t(20)));
        let out = d.with_appended(batch).unwrap();

        assert_eq!(out.dataset.num_ratings(), 5);
        assert_eq!(out.changed_items, vec![ItemId(0), ItemId(1)]);
        assert_eq!(out.copied_ratings, 5, "both items' chunks were rebuilt");
        // Old ratings 0,1,2 move to 0,2,3; the batch lands at 1 and 4.
        let merged: Vec<Rating> = out.dataset.ratings().copied().collect();
        let old: Vec<Rating> = d.ratings().copied().collect();
        for (o, n) in [(0, 0), (1, 2), (2, 3)] {
            assert_eq!(merged[n], old[o]);
        }
        assert_eq!((merged[1].user, merged[4].user), (u2, u2));
        // The merged column is exactly what a from-scratch build produces.
        let mut b = DatasetBuilder::new();
        for u in out.dataset.users() {
            b.add_user(u.clone());
        }
        for it in out.dataset.items() {
            b.add_item(it.clone());
        }
        for r in out.dataset.ratings() {
            b.add_rating(*r);
        }
        let rebuilt = b.build().unwrap();
        assert!(rebuilt.ratings().eq(out.dataset.ratings()));
        for item in [ItemId(0), ItemId(1)] {
            assert_eq!(**rebuilt.chunk(item), **out.dataset.chunk(item));
            assert_eq!(
                rebuilt.rating_range_for_item(item),
                out.dataset.rating_range_for_item(item)
            );
        }
    }

    #[test]
    fn append_rejects_gapped_user_ids() {
        let d = base();
        let mut batch = AppendBatch::new();
        batch.users.push(mk_user(7, UsState::TX)); // dense next id is 2
        let err = d.with_appended(batch).unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
    }

    #[test]
    fn append_rejects_dangling_refs() {
        let d = base();
        let mut batch = AppendBatch::new();
        batch.ratings.push(Rating::new(
            UserId(9),
            ItemId(0),
            Score::new(3).unwrap(),
            Timestamp::from_ymd(2001, 4, 1),
        ));
        assert!(matches!(
            d.with_appended(batch),
            Err(crate::error::DataError::UnknownUser(9))
        ));
    }

    #[test]
    fn tail_append_is_identity_remap() {
        let d = base();
        let mut batch = AppendBatch::new();
        // Item 1 is the last item; a late timestamp lands after everything.
        batch.ratings.push(Rating::new(
            UserId(0),
            ItemId(1),
            Score::new(2).unwrap(),
            Timestamp::from_ymd(2002, 1, 1),
        ));
        let out = d.with_appended(batch).unwrap();
        // Every old index keeps its rating; the new one lands at 3.
        assert!(out.dataset.ratings().take(3).eq(d.ratings()));
        assert_eq!(
            out.dataset.rating(crate::ids::RatingIdx(3)).ts,
            Timestamp::from_ymd(2002, 1, 1)
        );
        assert_eq!(out.changed_items, vec![ItemId(1)]);
        assert_eq!(out.copied_ratings, 2);
        assert!(std::sync::Arc::ptr_eq(
            out.dataset.chunk(ItemId(0)),
            d.chunk(ItemId(0))
        ));
    }

    #[test]
    fn new_item_with_ratings_appends_at_tail() {
        let d = base();
        let mut alloc = IdAllocator::for_dataset(&d);
        let i2 = alloc.alloc_item();
        let mut batch = AppendBatch::new();
        batch.items.push(mk_item(i2.0, "Gamma"));
        batch.ratings.push(Rating::new(
            UserId(1),
            i2,
            Score::new(5).unwrap(),
            Timestamp::from_ymd(2001, 6, 1),
        ));
        let out = d.with_appended(batch).unwrap();
        assert!(out.dataset.ratings().take(3).eq(d.ratings()));
        assert_eq!(out.dataset.find_title("gamma"), Some(i2));
        assert_eq!(out.dataset.ratings_for_item(i2).len(), 1);
        assert_eq!(out.changed_items, vec![i2]);
    }
}
