//! The columnar dataset store `D = ⟨I, U, R⟩` with access-path indexes.
//!
//! Ratings live in one [`RatingChunk`] per item, sorted by `(ts, user)`, so
//! the ratings of an item — the input `R_I` of every mining task — are one
//! chunk's slice. An item-offset table places the chunks end to end in a
//! global `(item, ts, user)` order, and a [`RatingIdx`] is a position in that
//! order. Chunks and catalogue tables sit behind `Arc`s, so a dataset version
//! made by [`Dataset::with_appended`] shares everything a commit did not
//! touch with its parent. Hash indexes resolve title and person lookups for
//! the query language.

use crate::append::{AppendBatch, AppendResult};
use crate::error::DataError;
use crate::ids::{ItemId, PersonId, RatingIdx, UserId};
use crate::item::{Item, Person, Role};
use crate::packed::PackedUserCode;
use crate::partition::{MonthCounter, MonthPartition};
use crate::rating::Rating;
use crate::stats::RatingStats;
use crate::time::{TimeRange, Timestamp};
use crate::user::User;
use std::collections::HashMap;
use std::sync::Arc;

/// `span` widened to take in every timestamp of `ratings`.
fn widen_span<'a>(
    span: Option<(Timestamp, Timestamp)>,
    ratings: impl IntoIterator<Item = &'a Rating>,
) -> Option<(Timestamp, Timestamp)> {
    ratings.into_iter().fold(span, |span, r| match span {
        None => Some((r.ts, r.ts)),
        Some((lo, hi)) => Some((lo.min(r.ts), hi.max(r.ts))),
    })
}

/// Rejects a rating timestamped outside [`Timestamp::in_calendar`].
fn check_calendar(r: &Rating) -> Result<(), DataError> {
    if r.ts.in_calendar() {
        Ok(())
    } else {
        Err(DataError::Invalid(format!(
            "rating of item {} at {} s lies outside the years 1-9999",
            r.item,
            r.ts.secs()
        )))
    }
}

/// The ratings of one item, sorted by `(ts, user)`, with the two dense
/// columns the cube builder's hot loop reads aligned to them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RatingChunk {
    ratings: Vec<Rating>,
    /// Packed reviewer code of each rating (see [`PackedUserCode`]), so
    /// cube materialization never chases `rating → user → attr_value`.
    user_codes: Vec<u16>,
    /// Score histogram bucket (`score − 1`, so `0..5`) of each rating.
    score_bins: Vec<u8>,
}

/// Where a [`RatingCursor`] starts: an empty chunk, so the first lookup seeks.
static EMPTY_CHUNK: RatingChunk = RatingChunk {
    ratings: Vec::new(),
    user_codes: Vec::new(),
    score_bins: Vec::new(),
};

impl RatingChunk {
    /// Packs already-sorted ratings of one item, given each reviewer's
    /// packed code.
    fn pack(ratings: Vec<Rating>, code_of: impl Fn(UserId) -> u16) -> RatingChunk {
        let user_codes = ratings.iter().map(|r| code_of(r.user)).collect();
        let score_bins = ratings.iter().map(|r| r.score.bucket() as u8).collect();
        RatingChunk {
            ratings,
            user_codes,
            score_bins,
        }
    }

    /// This chunk with `run`, further ratings of the same item, spliced
    /// into `(ts, user)` order; the stable sort keeps old ratings ahead of
    /// new ones with the same key, and `run`'s own order among its ties.
    fn merged_with(&self, run: &[Rating], users: &[User]) -> RatingChunk {
        let mut ratings = Vec::with_capacity(self.len() + run.len());
        ratings.extend_from_slice(&self.ratings);
        ratings.extend_from_slice(run);
        ratings.sort_by_key(|r| (r.ts, r.user));
        RatingChunk::pack(ratings, |u| PackedUserCode::pack(&users[u.index()]).get())
    }

    /// The item's ratings, ordered by `(ts, user)`.
    #[inline]
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// Packed reviewer codes aligned with [`ratings`](Self::ratings):
    /// position `i` packs the demographic profile of `ratings()[i]`'s
    /// reviewer.
    #[inline]
    pub fn user_codes(&self) -> &[u16] {
        &self.user_codes
    }

    /// Score histogram buckets (`score − 1`) aligned with
    /// [`ratings`](Self::ratings).
    #[inline]
    pub fn score_bins(&self) -> &[u8] {
        &self.score_bins
    }

    /// Number of ratings in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.ratings.len()
    }

    /// True when nobody rated the item.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }
}

/// The item and person tables with their lookup indexes: everything a
/// commit leaves alone unless it adds items.
#[derive(Debug, Clone, Default)]
struct Catalogue {
    items: Vec<Item>,
    persons: Vec<Person>,
    /// Lowercased title → item.
    title_index: HashMap<String, ItemId>,
    /// Lowercased person name → person.
    person_index: HashMap<String, PersonId>,
    /// Person → items they act in.
    acts_in: HashMap<PersonId, Vec<ItemId>>,
    /// Person → items they direct.
    directs: HashMap<PersonId, Vec<ItemId>>,
}

impl Catalogue {
    fn new(items: Vec<Item>, persons: Vec<Person>) -> Catalogue {
        let person_index = persons
            .iter()
            .map(|p| (p.name.to_lowercase(), p.id))
            .collect();
        let mut catalogue = Catalogue {
            items: Vec::with_capacity(items.len()),
            persons,
            person_index,
            ..Catalogue::default()
        };
        for it in items {
            catalogue.push_item(it);
        }
        catalogue
    }

    /// Appends an item and indexes its title and people.
    fn push_item(&mut self, it: Item) {
        self.title_index.insert(it.title.to_lowercase(), it.id);
        for &p in &it.actors {
            self.acts_in.entry(p).or_default().push(it.id);
        }
        for &p in &it.directors {
            self.directs.entry(p).or_default().push(it.id);
        }
        self.items.push(it);
    }
}

/// Immutable, validated collaborative-rating dataset.
///
/// Cloning is cheap: the reviewer table, the catalogue and every rating
/// chunk are shared, and only the O(items) chunk and offset tables copy.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Reviewers, shared with the parent version unless a commit adds some.
    users: Arc<Vec<User>>,
    /// Items, persons and their indexes, shared with the parent version
    /// unless a commit adds items.
    catalogue: Arc<Catalogue>,
    /// One chunk per item; a commit replaces only the chunks it touched.
    chunks: Vec<Arc<RatingChunk>>,
    /// Global coordinates: item `i`'s ratings hold rating indexes
    /// `item_offsets[i]..item_offsets[i+1]`.
    item_offsets: Vec<u32>,
    /// Earliest and latest rating timestamps, kept up to date by
    /// [`DatasetBuilder::build`] and [`Dataset::with_appended`].
    time_span: Option<(Timestamp, Timestamp)>,
    /// Rating counts per calendar month, ascending by month, kept up to
    /// date the same way.
    months: Vec<MonthPartition>,
}

/// Prefix sums of the chunk lengths: the global coordinate of each item.
fn offsets_of(chunks: &[Arc<RatingChunk>]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(chunks.len() + 1);
    let mut end = 0u32;
    offsets.push(end);
    for chunk in chunks {
        end += chunk.len() as u32;
        offsets.push(end);
    }
    offsets
}

impl Dataset {
    /// All users, indexed densely by [`UserId`].
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All items, indexed densely by [`ItemId`].
    pub fn items(&self) -> &[Item] {
        &self.catalogue.items
    }

    /// All persons, indexed densely by [`PersonId`].
    pub fn persons(&self) -> &[Person] {
        &self.catalogue.persons
    }

    /// Every rating in rating-index order, that is by `(item, ts, user)`.
    pub fn ratings(&self) -> impl Iterator<Item = &Rating> + Clone + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.ratings())
    }

    /// Number of rating tuples.
    pub fn num_ratings(&self) -> usize {
        self.item_offsets.last().map_or(0, |&n| n as usize)
    }

    /// Looks up a user by id.
    #[inline]
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.index()]
    }

    /// Looks up an item by id.
    #[inline]
    pub fn item(&self, id: ItemId) -> &Item {
        &self.catalogue.items[id.index()]
    }

    /// Looks up a person by id.
    #[inline]
    pub fn person(&self, id: PersonId) -> &Person {
        &self.catalogue.persons[id.index()]
    }

    /// The rating at a dense rating index. One binary search over the
    /// item offsets; walks over many indexes use a [`RatingCursor`].
    pub fn rating(&self, idx: RatingIdx) -> &Rating {
        self.cursor().rating(idx)
    }

    /// A cursor resolving rating indexes to their chunks, positioned
    /// before the first item.
    pub fn cursor(&self) -> RatingCursor<'_> {
        RatingCursor {
            dataset: self,
            item: usize::MAX,
            start: 0,
            chunk: &EMPTY_CHUNK,
        }
    }

    /// The chunk holding an item's ratings, codes and score bins.
    #[inline]
    pub fn chunk(&self, item: ItemId) -> &Arc<RatingChunk> {
        &self.chunks[item.index()]
    }

    /// An item's ratings (its `R_I` for a singleton query), ordered by
    /// timestamp.
    pub fn ratings_for_item(&self, item: ItemId) -> &[Rating] {
        self.chunk(item).ratings()
    }

    /// The dense index range of an item's ratings.
    pub fn rating_range_for_item(&self, item: ItemId) -> std::ops::Range<u32> {
        self.item_offsets[item.index()]..self.item_offsets[item.index() + 1]
    }

    /// Resolves an exact title (case-insensitive).
    pub fn find_title(&self, title: &str) -> Option<ItemId> {
        self.catalogue
            .title_index
            .get(&title.to_lowercase())
            .copied()
    }

    /// Items whose title contains `needle` (case-insensitive substring).
    pub fn search_titles(&self, needle: &str) -> Vec<ItemId> {
        let needle = needle.to_lowercase();
        self.catalogue
            .items
            .iter()
            .filter(|it| it.title.to_lowercase().contains(&needle))
            .map(|it| it.id)
            .collect()
    }

    /// Resolves a person by exact name (case-insensitive).
    pub fn find_person(&self, name: &str) -> Option<PersonId> {
        self.catalogue
            .person_index
            .get(&name.to_lowercase())
            .copied()
    }

    /// Items a person is attached to in a given role.
    pub fn items_with_person(&self, person: PersonId, role: Role) -> &[ItemId] {
        let map = match role {
            Role::Actor => &self.catalogue.acts_in,
            Role::Director => &self.catalogue.directs,
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
        RatingStats::from_scores(self.ratings().map(|r| r.score))
    }

    /// Earliest and latest rating timestamps, if any ratings exist.
    /// `O(1)`: the span is stored, not rescanned.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.time_span
    }

    /// Per-month rating counts over the whole dataset, ascending by month.
    /// `O(1)`: the counts are stored, not rescanned.
    ///
    /// This is the partition inventory `/api/v1/stats` reports and the
    /// ingest watermark is keyed against.
    pub fn month_partitions(&self) -> &[MonthPartition] {
        &self.months
    }

    /// Merges an append batch into a new immutable dataset.
    ///
    /// Each item's ratings stay sorted by `(ts, user)` — new ratings are
    /// spliced into place, with old ratings winning ties. New users and
    /// items must densely continue the existing id space (use
    /// [`crate::append::IdAllocator`]); a rebuilt chunk packs its
    /// reviewers exactly as a from-scratch [`DatasetBuilder::build`] would,
    /// so the result is indistinguishable from a full reload of the merged
    /// data.
    ///
    /// Only the chunks of rated items are rebuilt. Every other chunk, and
    /// the reviewer and catalogue tables unless the batch extends them, are
    /// shared with `self`.
    ///
    /// Returns the new dataset plus the items whose ratings changed (the
    /// cache invalidation scope of a live commit). A rating of an unknown
    /// user or item, or timestamped outside [`Timestamp::in_calendar`],
    /// rejects the whole batch.
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
        let old_items = self.catalogue.items.len();
        for (k, it) in new_items.iter().enumerate() {
            if it.id.index() != old_items + k {
                return Err(DataError::Invalid(format!(
                    "appended item id {} does not continue the dense id space (expected {})",
                    it.id,
                    old_items + k
                )));
            }
            for p in it.actors.iter().chain(it.directors.iter()) {
                if p.index() >= self.catalogue.persons.len() {
                    return Err(DataError::Invalid(format!(
                        "item {} references unknown person {}",
                        it.id, p
                    )));
                }
            }
        }
        let num_users = self.users.len() + new_users.len();
        let num_items = old_items + new_items.len();
        for r in &new_ratings {
            if r.user.index() >= num_users {
                return Err(DataError::UnknownUser(r.user.0));
            }
            if r.item.index() >= num_items {
                return Err(DataError::UnknownItem(r.item.0));
            }
            check_calendar(r)?;
        }

        let mut users = Arc::clone(&self.users);
        if !new_users.is_empty() {
            Arc::make_mut(&mut users).extend(new_users);
        }
        let mut catalogue = Arc::clone(&self.catalogue);
        // Brand-new items count as changed even without ratings: catalogue
        // queries may now match them.
        let mut changed: Vec<ItemId> = new_items.iter().map(|it| it.id).collect();
        if !new_items.is_empty() {
            let catalogue = Arc::make_mut(&mut catalogue);
            for it in new_items {
                catalogue.push_item(it);
            }
        }

        // Stable sort: ratings submitted in one batch with identical
        // `(item, ts, user)` keys keep their submission order.
        new_ratings.sort_by_key(|r| (r.item, r.ts, r.user));

        let mut chunks = self.chunks.clone();
        chunks.resize_with(num_items, Arc::default);
        let mut copied_ratings = 0;
        for run in new_ratings.chunk_by(|a, b| a.item == b.item) {
            let item = run[0].item;
            let merged = chunks[item.index()].merged_with(run, &users);
            copied_ratings += merged.len();
            chunks[item.index()] = Arc::new(merged);
            changed.push(item);
        }
        changed.sort_unstable();
        changed.dedup();

        let mut months = self.months.clone();
        let mut counter = MonthCounter::default();
        counter.add(&new_ratings);
        counter.add_to(&mut months);
        let dataset = Dataset {
            users,
            catalogue,
            item_offsets: offsets_of(&chunks),
            chunks,
            time_span: widen_span(self.time_span, &new_ratings),
            months,
        };
        Ok(AppendResult {
            dataset,
            changed_items: changed,
            copied_ratings,
        })
    }

    /// One-line summary used by example binaries.
    pub fn summary(&self) -> String {
        format!(
            "{} users, {} items, {} persons, {} ratings",
            self.users.len(),
            self.catalogue.items.len(),
            self.catalogue.persons.len(),
            self.num_ratings()
        )
    }
}

/// Resolves rating indexes to `(chunk, offset)` pairs, remembering the
/// item it last landed in.
///
/// An index inside that item costs one comparison. Leaving it steps to the
/// next item when the index continues there and otherwise binary-searches
/// the item offsets, so a walk over ascending indexes, or over any sequence
/// of per-item runs, pays one search per run at most and never one per
/// rating. Any order of indexes stays correct.
#[derive(Debug, Clone)]
pub struct RatingCursor<'a> {
    dataset: &'a Dataset,
    /// Current item (`usize::MAX` before the first lookup).
    item: usize,
    /// Rating index of the current chunk's first rating.
    start: u32,
    chunk: &'a RatingChunk,
}

impl<'a> RatingCursor<'a> {
    /// The chunk holding rating `idx` and its offset inside the chunk.
    ///
    /// # Panics
    /// Panics when `idx` is not below [`Dataset::num_ratings`].
    #[inline]
    pub fn locate(&mut self, idx: u32) -> (&'a RatingChunk, usize) {
        let at = idx.wrapping_sub(self.start) as usize;
        if at < self.chunk.len() {
            return (self.chunk, at);
        }
        self.seek(idx);
        (self.chunk, (idx - self.start) as usize)
    }

    /// The chunk holding rating `idx[0]`, the rating index of the chunk's
    /// first rating, and how many leading entries of `idx` fall in the
    /// chunk. A hot loop then reads the chunk's columns as plain slices.
    ///
    /// # Panics
    /// Panics when `idx` is empty or `idx[0]` is out of range.
    #[inline]
    pub fn run(&mut self, idx: &[u32]) -> (&'a RatingChunk, u32, usize) {
        let (chunk, at) = self.locate(idx[0]);
        let start = idx[0] - at as u32;
        let len = chunk.len() as u32;
        let n = idx
            .iter()
            .take_while(|&&i| i.wrapping_sub(start) < len)
            .count();
        (chunk, start, n)
    }

    /// The rating at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range, as [`locate`](Self::locate).
    #[inline]
    pub fn rating(&mut self, idx: RatingIdx) -> &'a Rating {
        let (chunk, at) = self.locate(idx.0);
        &chunk.ratings[at]
    }

    #[inline(never)]
    fn seek(&mut self, idx: u32) {
        let offsets = &self.dataset.item_offsets;
        let total = self.dataset.num_ratings();
        assert!(
            (idx as usize) < total,
            "rating index {idx} out of range for {total} ratings"
        );
        let next = self.item.wrapping_add(1);
        let continues = offsets
            .get(next + 1)
            .is_some_and(|&end| offsets[next] <= idx && idx < end);
        self.item = if continues {
            next
        } else {
            offsets.partition_point(|&o| o <= idx) - 1
        };
        self.start = offsets[self.item];
        self.chunk = &self.dataset.chunks[self.item];
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

    /// Validates referential integrity and every rating's timestamp
    /// against [`Timestamp::in_calendar`], sorts the ratings and builds all
    /// chunks and indexes.
    pub fn build(self) -> Result<Dataset, DataError> {
        let DatasetBuilder {
            users,
            items,
            persons,
            ratings,
        } = self;

        let mut counts = vec![0usize; items.len()];
        for r in &ratings {
            if r.user.index() >= users.len() {
                return Err(DataError::UnknownUser(r.user.0));
            }
            if r.item.index() >= items.len() {
                return Err(DataError::UnknownItem(r.item.0));
            }
            check_calendar(r)?;
            counts[r.item.index()] += 1;
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

        // Scatter the ratings into exactly sized per-item vectors in
        // insertion order and free the builder's column. Then sort each
        // item's ratings by `(ts, user)` unless they already are (stably,
        // so duplicate keys keep insertion order), count them per month
        // and pack each rating's reviewer code (packed once per reviewer)
        // and score bucket beside it.
        let mut per_item: Vec<Vec<Rating>> = counts.into_iter().map(Vec::with_capacity).collect();
        for r in ratings {
            per_item[r.item.index()].push(r);
        }
        let codes: Vec<u16> = users
            .iter()
            .map(|u| PackedUserCode::pack(u).get())
            .collect();
        let mut time_span = None;
        let mut counter = MonthCounter::default();
        let chunks: Vec<Arc<RatingChunk>> = per_item
            .into_iter()
            .map(|mut run| {
                if !run.is_sorted_by_key(|r| (r.ts, r.user)) {
                    run.sort_by_key(|r| (r.ts, r.user));
                }
                time_span = widen_span(time_span, run.first().into_iter().chain(run.last()));
                counter.add(&run);
                Arc::new(RatingChunk::pack(run, |u| codes[u.index()]))
            })
            .collect();
        let mut months = Vec::new();
        counter.add_to(&mut months);

        Ok(Dataset {
            users: Arc::new(users),
            catalogue: Arc::new(Catalogue::new(items, persons)),
            item_offsets: offsets_of(&chunks),
            chunks,
            time_span,
            months,
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
            let min = d.ratings().map(|r| r.ts).min()?;
            Some((min, d.ratings().map(|r| r.ts).max()?))
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
    fn ratings_outside_the_calendar_are_rejected() {
        let rate = |y: i64| {
            Rating::new(
                UserId(0),
                ItemId(0),
                Score::new(4).unwrap(),
                Timestamp::from_ymd(y, 12, 31),
            )
        };
        let base = sample();
        // Both calendar ends are accepted, and the month counts match a
        // full scan however far apart the batch's months are.
        let edges = base
            .with_appended(AppendBatch {
                ratings: vec![rate(2003), rate(9999), rate(1)],
                ..AppendBatch::new()
            })
            .unwrap()
            .dataset;
        let mut scan = std::collections::BTreeMap::new();
        for r in edges.ratings() {
            *scan.entry(r.ts.month_key()).or_insert(0u64) += 1;
        }
        let stored: Vec<_> = edges
            .month_partitions()
            .iter()
            .map(|p| (p.month, p.num_ratings))
            .collect();
        assert_eq!(stored, scan.into_iter().collect::<Vec<_>>());
        for year in [10_000, 99_999_999, 0] {
            let appended = base.with_appended(AppendBatch {
                ratings: vec![rate(2003), rate(year)],
                ..AppendBatch::new()
            });
            assert!(matches!(appended, Err(DataError::Invalid(_))), "{year}");
            let mut b = DatasetBuilder::new();
            b.add_user(mk_user(0, UsState::CA));
            b.add_item(mk_item(0, "Toy Story"));
            b.add_rating(rate(year));
            assert!(matches!(b.build(), Err(DataError::Invalid(_))), "{year}");
        }
    }

    #[test]
    fn packed_columns_align_with_ratings() {
        let d = sample();
        for item in d.items() {
            let chunk = d.chunk(item.id);
            assert_eq!(chunk.user_codes().len(), chunk.len());
            assert_eq!(chunk.score_bins().len(), chunk.len());
            for (i, r) in chunk.ratings().iter().enumerate() {
                let code = PackedUserCode::from_raw(chunk.user_codes()[i]);
                let user = d.user(r.user);
                for attr in crate::attrs::UserAttr::ALL {
                    assert_eq!(
                        usize::from(code.field(attr)),
                        user.attr_value(attr).value_index()
                    );
                }
                assert_eq!(usize::from(chunk.score_bins()[i]), r.score.bucket());
            }
        }
    }

    #[test]
    fn cursor_resolves_any_index_order() {
        let d = sample();
        let flat: Vec<Rating> = d.ratings().copied().collect();
        assert_eq!(d.num_ratings(), flat.len());
        let mut cursor = d.cursor();
        for idx in [2u32, 0, 1, 2, 1, 0, 0] {
            assert_eq!(*cursor.rating(RatingIdx(idx)), flat[idx as usize]);
            assert_eq!(*d.rating(RatingIdx(idx)), flat[idx as usize]);
        }
        for item in d.items() {
            for (k, idx) in d.rating_range_for_item(item.id).enumerate() {
                let (chunk, at) = cursor.locate(idx);
                assert!(std::ptr::eq(chunk, &**d.chunk(item.id)));
                assert_eq!(at, k);
            }
        }
        // `run` cuts any index list into per-chunk runs.
        let idx = [0u32, 1, 2, 1, 0, 2, 2];
        let (mut rest, mut runs, mut seen) = (&idx[..], 0, Vec::new());
        while !rest.is_empty() {
            let (chunk, start, n) = cursor.run(rest);
            seen.extend(
                rest[..n]
                    .iter()
                    .map(|&i| chunk.ratings()[(i - start) as usize]),
            );
            rest = &rest[n..];
            runs += 1;
        }
        let expected: Vec<Rating> = idx.iter().map(|&i| flat[i as usize]).collect();
        assert_eq!(seen, expected);
        assert_eq!(runs, 4, "[0, 1] [2] [1, 0] [2, 2]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cursor_rejects_index_past_the_end() {
        let d = sample();
        d.rating(RatingIdx(d.num_ratings() as u32));
    }

    #[test]
    fn empty_dataset_builds() {
        let d = DatasetBuilder::new().build().unwrap();
        assert_eq!(d.num_ratings(), 0);
        assert!(d.time_span().is_none());
        assert!(d.global_stats().is_empty());
    }
}
