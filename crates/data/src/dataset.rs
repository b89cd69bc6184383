//! The columnar dataset store `D = ⟨I, U, R⟩` with access-path indexes.
//!
//! Ratings are stored in one contiguous column sorted by `(item, timestamp)`
//! so that the ratings of an item — the input `R_I` of every mining task —
//! are a contiguous slice reachable through a CSR offset table, and hash
//! indexes resolve title and person lookups for the query language.

use crate::append::{AppendBatch, AppendResult};
use crate::error::DataError;
use crate::ids::{ItemId, PersonId, RatingIdx, UserId};
use crate::item::{Item, Person, Role};
use crate::packed::PackedUserCode;
use crate::rating::Rating;
use crate::stats::RatingStats;
use crate::time::{TimeRange, Timestamp};
use crate::user::User;
use std::collections::HashMap;

/// Builds the item CSR offsets over an already-sorted rating column.
fn build_item_offsets(num_items: usize, ratings: &[Rating]) -> Vec<u32> {
    let mut offsets = vec![0u32; num_items + 1];
    for r in ratings {
        offsets[r.item.index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    offsets
}

/// `span` widened to take in every timestamp of `ratings`.
fn widen_span(
    span: Option<(Timestamp, Timestamp)>,
    ratings: &[Rating],
) -> Option<(Timestamp, Timestamp)> {
    ratings.iter().fold(span, |span, r| match span {
        None => Some((r.ts, r.ts)),
        Some((lo, hi)) => Some((lo.min(r.ts), hi.max(r.ts))),
    })
}

/// Immutable, validated collaborative-rating dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    users: Vec<User>,
    items: Vec<Item>,
    persons: Vec<Person>,
    /// Ratings sorted by `(item, ts, user)`.
    ratings: Vec<Rating>,
    /// Per-rating packed reviewer codes, aligned with `ratings` — the
    /// dense column the cube builder scans instead of chasing
    /// `rating → user → attr_value` pointers.
    rating_user_codes: Vec<u16>,
    /// Per-rating score histogram buckets (`score - 1`), aligned with
    /// `ratings` — the parallel score column of the same hot loop.
    rating_score_bins: Vec<u8>,
    /// CSR offsets: ratings of item `i` live at `ratings[item_offsets[i]..item_offsets[i+1]]`.
    item_offsets: Vec<u32>,
    /// Earliest and latest rating timestamps, kept up to date by
    /// [`DatasetBuilder::build`] and [`Dataset::with_appended`].
    time_span: Option<(Timestamp, Timestamp)>,
    /// Lowercased title → item.
    title_index: HashMap<String, ItemId>,
    /// Lowercased person name → person.
    person_index: HashMap<String, PersonId>,
    /// Person → items they act in.
    acts_in: HashMap<PersonId, Vec<ItemId>>,
    /// Person → items they direct.
    directs: HashMap<PersonId, Vec<ItemId>>,
}

impl Dataset {
    /// All users, indexed densely by [`UserId`].
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All items, indexed densely by [`ItemId`].
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// All persons, indexed densely by [`PersonId`].
    pub fn persons(&self) -> &[Person] {
        &self.persons
    }

    /// The full rating column, sorted by `(item, timestamp)`.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Number of rating tuples.
    pub fn num_ratings(&self) -> usize {
        self.ratings.len()
    }

    /// Looks up a user by id.
    #[inline]
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.index()]
    }

    /// Looks up an item by id.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// Looks up a person by id.
    #[inline]
    pub fn person(&self, id: PersonId) -> &Person {
        &self.persons[id.index()]
    }

    /// The rating at a dense rating index.
    #[inline]
    pub fn rating(&self, idx: RatingIdx) -> &Rating {
        &self.ratings[idx.index()]
    }

    /// Per-rating packed reviewer codes (see
    /// [`PackedUserCode`]), aligned with
    /// [`ratings`](Self::ratings): position `i` packs the demographic
    /// profile of `ratings()[i]`'s reviewer. Precomputed at dataset build
    /// time so cube materialization reads one contiguous `u16` column.
    #[inline]
    pub fn rating_user_codes(&self) -> &[u16] {
        &self.rating_user_codes
    }

    /// Per-rating score histogram buckets (`score − 1`, so `0..5`),
    /// aligned with [`ratings`](Self::ratings) — the score column the
    /// cube builder's counting pass accumulates.
    #[inline]
    pub fn rating_score_bins(&self) -> &[u8] {
        &self.rating_score_bins
    }

    /// The contiguous ratings slice of an item (its `R_I` for a singleton
    /// query), ordered by timestamp.
    pub fn ratings_for_item(&self, item: ItemId) -> &[Rating] {
        let lo = self.item_offsets[item.index()] as usize;
        let hi = self.item_offsets[item.index() + 1] as usize;
        &self.ratings[lo..hi]
    }

    /// The dense index range of an item's ratings inside the rating column.
    pub fn rating_range_for_item(&self, item: ItemId) -> std::ops::Range<u32> {
        self.item_offsets[item.index()]..self.item_offsets[item.index() + 1]
    }

    /// Resolves an exact title (case-insensitive).
    pub fn find_title(&self, title: &str) -> Option<ItemId> {
        self.title_index.get(&title.to_lowercase()).copied()
    }

    /// Items whose title contains `needle` (case-insensitive substring).
    pub fn search_titles(&self, needle: &str) -> Vec<ItemId> {
        let needle = needle.to_lowercase();
        self.items
            .iter()
            .filter(|it| it.title.to_lowercase().contains(&needle))
            .map(|it| it.id)
            .collect()
    }

    /// Resolves a person by exact name (case-insensitive).
    pub fn find_person(&self, name: &str) -> Option<PersonId> {
        self.person_index.get(&name.to_lowercase()).copied()
    }

    /// Items a person is attached to in a given role.
    pub fn items_with_person(&self, person: PersonId, role: Role) -> &[ItemId] {
        let map = match role {
            Role::Actor => &self.acts_in,
            Role::Director => &self.directs,
        };
        map.get(&person).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Aggregate statistics over an item's ratings within a time range.
    pub fn item_stats(&self, item: ItemId, range: TimeRange) -> RatingStats {
        let mut stats = RatingStats::new();
        for r in self.ratings_for_item(item) {
            if range.contains(r.ts) {
                stats.push(r.score);
            }
        }
        stats
    }

    /// Global aggregate statistics.
    pub fn global_stats(&self) -> RatingStats {
        RatingStats::from_scores(self.ratings.iter().map(|r| r.score))
    }

    /// Earliest and latest rating timestamps, if any ratings exist.
    /// `O(1)`: the span is stored, not rescanned.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.time_span
    }

    /// Merges an append batch into a new immutable dataset.
    ///
    /// The rating column stays sorted by `(item, ts, user)` — new ratings
    /// are spliced into place, with old ratings winning ties. New users and
    /// items must densely continue the existing id space (use
    /// [`crate::append::IdAllocator`]); existing packed reviewer codes are
    /// carried over byte-for-byte, and new positions pack their reviewer
    /// exactly as a from-scratch [`DatasetBuilder::build`] would, so the
    /// result is indistinguishable from a full reload of the merged data.
    ///
    /// Returns the new dataset plus the items whose ratings changed (the
    /// cache invalidation scope of a live commit).
    pub fn with_appended(&self, batch: AppendBatch) -> Result<AppendResult, DataError> {
        let AppendBatch {
            users: new_users,
            items: new_items,
            ratings: mut new_ratings,
        } = batch;

        for (k, u) in new_users.iter().enumerate() {
            if u.id.index() != self.users.len() + k {
                return Err(DataError::Invalid(format!(
                    "appended user id {} does not continue the dense id space (expected {})",
                    u.id,
                    self.users.len() + k
                )));
            }
        }
        for (k, it) in new_items.iter().enumerate() {
            if it.id.index() != self.items.len() + k {
                return Err(DataError::Invalid(format!(
                    "appended item id {} does not continue the dense id space (expected {})",
                    it.id,
                    self.items.len() + k
                )));
            }
            for p in it.actors.iter().chain(it.directors.iter()) {
                if p.index() >= self.persons.len() {
                    return Err(DataError::Invalid(format!(
                        "item {} references unknown person {}",
                        it.id, p
                    )));
                }
            }
        }
        let num_users = self.users.len() + new_users.len();
        let num_items = self.items.len() + new_items.len();
        for r in &new_ratings {
            if r.user.index() >= num_users {
                return Err(DataError::UnknownUser(r.user.0));
            }
            if r.item.index() >= num_items {
                return Err(DataError::UnknownItem(r.item.0));
            }
        }

        let mut users = self.users.clone();
        users.extend(new_users);
        let mut items = self.items.clone();
        let mut title_index = self.title_index.clone();
        let mut acts_in = self.acts_in.clone();
        let mut directs = self.directs.clone();
        for it in new_items {
            title_index.insert(it.title.to_lowercase(), it.id);
            for &p in &it.actors {
                acts_in.entry(p).or_default().push(it.id);
            }
            for &p in &it.directors {
                directs.entry(p).or_default().push(it.id);
            }
            items.push(it);
        }

        // Stable sort: ratings submitted in one batch with identical
        // `(item, ts, user)` keys keep their submission order.
        new_ratings.sort_by_key(|r| (r.item, r.ts, r.user));

        // Merge-splice into the sorted column, old before new on ties.
        let old = &self.ratings;
        let m = new_ratings.len();
        let mut ratings = Vec::with_capacity(old.len() + m);
        let mut rating_user_codes = Vec::with_capacity(old.len() + m);
        let mut rating_score_bins = Vec::with_capacity(old.len() + m);
        let mut changed: Vec<ItemId> = new_ratings.iter().map(|r| r.item).collect();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() || j < m {
            let take_new = j < m
                && (i == old.len() || {
                    let n = &new_ratings[j];
                    let o = &old[i];
                    (n.item, n.ts, n.user) < (o.item, o.ts, o.user)
                });
            if take_new {
                let n = new_ratings[j];
                rating_user_codes.push(PackedUserCode::pack(&users[n.user.index()]).get());
                rating_score_bins.push(n.score.bucket() as u8);
                ratings.push(n);
                j += 1;
            } else {
                rating_user_codes.push(self.rating_user_codes[i]);
                rating_score_bins.push(self.rating_score_bins[i]);
                ratings.push(old[i]);
                i += 1;
            }
        }

        // Brand-new items count as changed even without ratings: catalogue
        // queries may now match them.
        changed.extend(items[self.items.len()..].iter().map(|it| it.id));
        changed.sort_unstable();
        changed.dedup();

        let item_offsets = build_item_offsets(items.len(), &ratings);

        let dataset = Dataset {
            users,
            items,
            persons: self.persons.clone(),
            ratings,
            rating_user_codes,
            rating_score_bins,
            item_offsets,
            time_span: widen_span(self.time_span, &new_ratings),
            title_index,
            person_index: self.person_index.clone(),
            acts_in,
            directs,
        };
        Ok(AppendResult {
            dataset,
            changed_items: changed,
        })
    }

    /// One-line summary used by example binaries.
    pub fn summary(&self) -> String {
        format!(
            "{} users, {} items, {} persons, {} ratings",
            self.users.len(),
            self.items.len(),
            self.persons.len(),
            self.ratings.len()
        )
    }
}

/// Accumulates entities and produces a validated [`Dataset`].
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    users: Vec<User>,
    items: Vec<Item>,
    persons: Vec<Person>,
    ratings: Vec<Rating>,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a user; its id must equal its dense position.
    pub fn add_user(&mut self, user: User) -> &mut Self {
        debug_assert_eq!(user.id.index(), self.users.len());
        self.users.push(user);
        self
    }

    /// Adds an item; its id must equal its dense position.
    pub fn add_item(&mut self, item: Item) -> &mut Self {
        debug_assert_eq!(item.id.index(), self.items.len());
        self.items.push(item);
        self
    }

    /// Adds a person; its id must equal its dense position.
    pub fn add_person(&mut self, person: Person) -> &mut Self {
        debug_assert_eq!(person.id.index(), self.persons.len());
        self.persons.push(person);
        self
    }

    /// Adds a rating tuple.
    pub fn add_rating(&mut self, rating: Rating) -> &mut Self {
        self.ratings.push(rating);
        self
    }

    /// Reserves rating capacity up front (the generator knows the total).
    pub fn reserve_ratings(&mut self, additional: usize) -> &mut Self {
        self.ratings.reserve(additional);
        self
    }

    /// Number of users added so far.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The users added so far (the generator's rating pass reads these).
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// Number of items added so far.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Validates referential integrity, sorts the rating column and builds
    /// all indexes.
    pub fn build(self) -> Result<Dataset, DataError> {
        let DatasetBuilder {
            users,
            items,
            persons,
            mut ratings,
        } = self;

        for r in &ratings {
            if r.user.index() >= users.len() {
                return Err(DataError::UnknownUser(r.user.0));
            }
            if r.item.index() >= items.len() {
                return Err(DataError::UnknownItem(r.item.0));
            }
        }
        for it in &items {
            for p in it.actors.iter().chain(it.directors.iter()) {
                if p.index() >= persons.len() {
                    return Err(DataError::Invalid(format!(
                        "item {} references unknown person {}",
                        it.id, p
                    )));
                }
            }
        }

        ratings.sort_unstable_by_key(|r| (r.item, r.ts, r.user));

        // Dense per-rating columns for the cube builder's hot loop:
        // packed reviewer codes and score buckets, aligned with the
        // sorted rating column.
        let rating_user_codes: Vec<u16> = ratings
            .iter()
            .map(|r| PackedUserCode::pack(&users[r.user.index()]).get())
            .collect();
        let rating_score_bins: Vec<u8> = ratings.iter().map(|r| r.score.bucket() as u8).collect();

        let item_offsets = build_item_offsets(items.len(), &ratings);
        let time_span = widen_span(None, &ratings);

        let title_index = items
            .iter()
            .map(|it| (it.title.to_lowercase(), it.id))
            .collect();
        let person_index = persons
            .iter()
            .map(|p| (p.name.to_lowercase(), p.id))
            .collect();

        let mut acts_in: HashMap<PersonId, Vec<ItemId>> = HashMap::new();
        let mut directs: HashMap<PersonId, Vec<ItemId>> = HashMap::new();
        for it in &items {
            for &p in &it.actors {
                acts_in.entry(p).or_default().push(it.id);
            }
            for &p in &it.directors {
                directs.entry(p).or_default().push(it.id);
            }
        }

        Ok(Dataset {
            users,
            items,
            persons,
            ratings,
            rating_user_codes,
            rating_score_bins,
            item_offsets,
            time_span,
            title_index,
            person_index,
            acts_in,
            directs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AgeGroup, Gender, Occupation, UsState};
    use crate::genre::{Genre, GenreSet};
    use crate::score::Score;
    use crate::zipcode::Zip;

    fn mk_user(id: u32, state: UsState) -> User {
        User {
            id: UserId(id),
            age: AgeGroup::From25To34,
            gender: Gender::Male,
            occupation: Occupation::Programmer,
            zip: Zip::new(94103),
            state,
            city: 0,
        }
    }

    fn mk_item(id: u32, title: &str) -> Item {
        Item::new(ItemId(id), title, 1995, GenreSet::of([Genre::Comedy]))
    }

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_user(mk_user(0, UsState::CA));
        b.add_user(mk_user(1, UsState::NY));
        b.add_person(Person {
            id: PersonId(0),
            name: "Tom Hanks".into(),
        });
        let mut it0 = mk_item(0, "Toy Story");
        it0.actors.push(PersonId(0));
        b.add_item(it0);
        b.add_item(mk_item(1, "Heat"));
        let t = |d| Timestamp::from_ymd(2000, 6, d);
        b.add_rating(Rating::new(
            UserId(0),
            ItemId(1),
            Score::new(3).unwrap(),
            t(5),
        ));
        b.add_rating(Rating::new(
            UserId(0),
            ItemId(0),
            Score::new(5).unwrap(),
            t(2),
        ));
        b.add_rating(Rating::new(
            UserId(1),
            ItemId(0),
            Score::new(4).unwrap(),
            t(1),
        ));
        b.build().unwrap()
    }

    #[test]
    fn ratings_sorted_and_sliced_per_item() {
        let d = sample();
        let toy = d.ratings_for_item(ItemId(0));
        assert_eq!(toy.len(), 2);
        assert!(toy[0].ts <= toy[1].ts, "per-item slice time-ordered");
        assert_eq!(d.ratings_for_item(ItemId(1)).len(), 1);
    }

    #[test]
    fn title_lookup_case_insensitive() {
        let d = sample();
        assert_eq!(d.find_title("toy story"), Some(ItemId(0)));
        assert_eq!(d.find_title("TOY STORY"), Some(ItemId(0)));
        assert_eq!(d.find_title("Missing"), None);
    }

    #[test]
    fn title_substring_search() {
        let d = sample();
        assert_eq!(d.search_titles("story"), vec![ItemId(0)]);
        assert!(d.search_titles("zzz").is_empty());
    }

    #[test]
    fn person_join_works() {
        let d = sample();
        let hanks = d.find_person("tom hanks").unwrap();
        assert_eq!(d.items_with_person(hanks, Role::Actor), &[ItemId(0)]);
        assert!(d.items_with_person(hanks, Role::Director).is_empty());
    }

    #[test]
    fn item_stats_respect_time_range() {
        let d = sample();
        let all = d.item_stats(ItemId(0), TimeRange::all());
        assert_eq!(all.count(), 2);
        let narrow = d.item_stats(
            ItemId(0),
            TimeRange::between(
                Timestamp::from_ymd(2000, 6, 2),
                Timestamp::from_ymd(2000, 6, 3),
            ),
        );
        assert_eq!(narrow.count(), 1);
    }

    #[test]
    fn dangling_rating_rejected() {
        let mut b = DatasetBuilder::new();
        b.add_user(mk_user(0, UsState::CA));
        b.add_rating(Rating::new(
            UserId(0),
            ItemId(9),
            Score::new(3).unwrap(),
            Timestamp::from_ymd(2000, 1, 1),
        ));
        assert!(matches!(b.build(), Err(DataError::UnknownItem(9))));
    }

    #[test]
    fn dangling_person_rejected() {
        let mut b = DatasetBuilder::new();
        let mut it = mk_item(0, "X");
        it.directors.push(PersonId(5));
        b.add_item(it);
        assert!(b.build().is_err());
    }

    #[test]
    fn time_span_and_summary() {
        let d = sample();
        let (lo, hi) = d.time_span().unwrap();
        assert_eq!(lo, Timestamp::from_ymd(2000, 6, 1));
        assert_eq!(hi, Timestamp::from_ymd(2000, 6, 5));
        assert!(d.summary().contains("3 ratings"));
    }

    #[test]
    fn appended_time_span_matches_full_scan() {
        let scan = |d: &Dataset| -> Option<(Timestamp, Timestamp)> {
            let min = d.ratings().iter().map(|r| r.ts).min()?;
            Some((min, d.ratings().iter().map(|r| r.ts).max()?))
        };
        let rate = |item: u32, y: i64, m: u32, day: u32| {
            Rating::new(
                UserId(1),
                ItemId(item),
                Score::new(2).unwrap(),
                Timestamp::from_ymd(y, m, day),
            )
        };
        let base = sample();
        assert_eq!(base.time_span(), scan(&base));
        for batch in [
            vec![rate(0, 1999, 1, 1)],                      // extends the lower end
            vec![rate(1, 2003, 3, 4), rate(0, 2001, 1, 1)], // extends the upper end
            vec![rate(1, 2000, 6, 3)],                      // falls inside the span
            vec![rate(0, 1998, 2, 2), rate(1, 2005, 5, 5)], // both ends at once
            vec![],
        ] {
            let appended = base
                .with_appended(AppendBatch {
                    ratings: batch,
                    ..AppendBatch::new()
                })
                .unwrap()
                .dataset;
            assert_eq!(appended.time_span(), scan(&appended));
        }
        let empty = DatasetBuilder::new().build().unwrap();
        let mut b = DatasetBuilder::new();
        b.add_user(mk_user(0, UsState::CA));
        b.add_item(mk_item(0, "Toy Story"));
        let one = b.build().unwrap();
        assert_eq!(empty.time_span(), None);
        let first = one
            .with_appended(AppendBatch {
                ratings: vec![Rating::new(
                    UserId(0),
                    ItemId(0),
                    Score::new(4).unwrap(),
                    Timestamp::from_ymd(2000, 1, 1),
                )],
                ..AppendBatch::new()
            })
            .unwrap()
            .dataset;
        assert_eq!(
            first.time_span(),
            scan(&first),
            "first ratings of an empty column"
        );
    }

    #[test]
    fn packed_columns_align_with_ratings() {
        let d = sample();
        assert_eq!(d.rating_user_codes().len(), d.num_ratings());
        assert_eq!(d.rating_score_bins().len(), d.num_ratings());
        for (i, r) in d.ratings().iter().enumerate() {
            let code = PackedUserCode::from_raw(d.rating_user_codes()[i]);
            let user = d.user(r.user);
            for attr in crate::attrs::UserAttr::ALL {
                assert_eq!(
                    usize::from(code.field(attr)),
                    user.attr_value(attr).value_index()
                );
            }
            assert_eq!(usize::from(d.rating_score_bins()[i]), r.score.bucket());
        }
    }

    #[test]
    fn empty_dataset_builds() {
        let d = DatasetBuilder::new().build().unwrap();
        assert_eq!(d.num_ratings(), 0);
        assert!(d.time_span().is_none());
        assert!(d.global_stats().is_empty());
    }
}
