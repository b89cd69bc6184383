//! Dataset subsetting — restriction to time windows, item sets or reviewer
//! populations.
//!
//! The scaling experiments and the demo's "restrict the mining over a
//! specific time interval" setting both need principled sub-datasets;
//! these helpers rebuild a fully-indexed [`Dataset`] from a filtered view
//! (ids are re-densified, so the result is a first-class dataset).

use crate::append::IdAllocator;
use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::DataError;
use crate::ids::{ItemId, PersonId, UserId};
use crate::item::Item;
use crate::rating::Rating;
use crate::time::TimeRange;
use crate::user::User;
use std::collections::HashMap;

/// Which entities survive into the subset.
pub struct SubsetSpec<'a> {
    /// Keep ratings inside this window.
    pub time: TimeRange,
    /// Keep only these items (`None` = all).
    pub items: Option<&'a [ItemId]>,
    /// Keep a rating only if its user passes this predicate.
    pub user_filter: Option<&'a dyn Fn(&User) -> bool>,
    /// Drop users/items left with no ratings.
    pub drop_orphans: bool,
}

impl Default for SubsetSpec<'_> {
    fn default() -> Self {
        SubsetSpec {
            time: TimeRange::all(),
            items: None,
            user_filter: None,
            drop_orphans: true,
        }
    }
}

/// Builds the restricted dataset.
pub fn subset(dataset: &Dataset, spec: &SubsetSpec<'_>) -> Result<Dataset, DataError> {
    let item_allowed: Option<std::collections::HashSet<ItemId>> =
        spec.items.map(|list| list.iter().copied().collect());

    // Pass 1: select ratings, reading only the chunks of allowed items.
    let selected: Vec<&Rating> = dataset
        .items()
        .iter()
        .filter(|it| item_allowed.as_ref().is_none_or(|set| set.contains(&it.id)))
        .flat_map(|it| dataset.ratings_for_item(it.id))
        .filter(|r| spec.time.contains(r.ts))
        .filter(|r| {
            spec.user_filter
                .map(|f| f(dataset.user(r.user)))
                .unwrap_or(true)
        })
        .collect();

    // Pass 2: decide which users/items survive (presence sets keep this
    // linear in the dataset size).
    let mut users_with_ratings = vec![false; dataset.users().len()];
    let mut items_with_ratings = vec![false; dataset.items().len()];
    for r in &selected {
        users_with_ratings[r.user.index()] = true;
        items_with_ratings[r.item.index()] = true;
    }
    let keep_user = |u: &User| -> bool {
        if spec.drop_orphans {
            users_with_ratings[u.id.index()]
        } else {
            true
        }
    };
    let keep_item = |it: &Item| -> bool {
        if spec.drop_orphans {
            items_with_ratings[it.id.index()]
        } else {
            item_allowed.as_ref().is_none_or(|set| set.contains(&it.id))
        }
    };

    // Pass 3: rebuild with dense ids. Allocation goes through the same
    // `IdAllocator` the ingest path uses, so every place that mints ids
    // shares one explicit contract (id == dense table position) instead of
    // silently assuming a load-time-frozen id space.
    let mut alloc = IdAllocator::new(0, 0);
    let mut builder = DatasetBuilder::new();
    let mut user_map: HashMap<UserId, UserId> = HashMap::new();
    for user in dataset.users() {
        if keep_user(user) {
            let new_id = alloc.alloc_user();
            let mut cloned = user.clone();
            cloned.id = new_id;
            builder.add_user(cloned);
            user_map.insert(user.id, new_id);
        }
    }
    // Persons: keep all referenced by surviving items.
    let mut person_map: HashMap<PersonId, PersonId> = HashMap::new();
    let mut persons_needed: Vec<PersonId> = Vec::new();
    for item in dataset.items() {
        if keep_item(item) {
            for &p in item.actors.iter().chain(item.directors.iter()) {
                if let std::collections::hash_map::Entry::Vacant(slot) = person_map.entry(p) {
                    slot.insert(PersonId::from_index(persons_needed.len()));
                    persons_needed.push(p);
                }
            }
        }
    }
    for &old in &persons_needed {
        let mut person = dataset.person(old).clone();
        person.id = person_map[&old];
        builder.add_person(person);
    }
    let mut item_map: HashMap<ItemId, ItemId> = HashMap::new();
    for item in dataset.items() {
        if keep_item(item) {
            let new_id = alloc.alloc_item();
            let mut cloned = item.clone();
            cloned.id = new_id;
            cloned.actors = cloned.actors.iter().map(|p| person_map[p]).collect();
            cloned.directors = cloned.directors.iter().map(|p| person_map[p]).collect();
            builder.add_item(cloned);
            item_map.insert(item.id, new_id);
        }
    }
    builder.reserve_ratings(selected.len());
    for r in selected {
        let (Some(&user), Some(&item)) = (user_map.get(&r.user), item_map.get(&r.item)) else {
            continue; // dropped orphan endpoints (only when drop_orphans)
        };
        builder.add_rating(Rating::new(user, item, r.score, r.ts));
    }
    builder.build()
}

/// Convenience: restrict to a time window.
pub fn by_time(dataset: &Dataset, time: TimeRange) -> Result<Dataset, DataError> {
    subset(
        dataset,
        &SubsetSpec {
            time,
            ..Default::default()
        },
    )
}

/// Convenience: restrict to an item list.
pub fn by_items(dataset: &Dataset, items: &[ItemId]) -> Result<Dataset, DataError> {
    subset(
        dataset,
        &SubsetSpec {
            items: Some(items),
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Gender;
    use crate::synth::{generate, SynthConfig};
    use crate::time::Timestamp;

    fn dataset() -> Dataset {
        generate(&SynthConfig::tiny(401)).unwrap()
    }

    #[test]
    fn time_subset_keeps_only_window() {
        let d = dataset();
        let cut = Timestamp::from_ymd(2001, 6, 1);
        let sub = by_time(&d, TimeRange::until(cut)).unwrap();
        assert!(sub.num_ratings() > 0);
        assert!(sub.num_ratings() < d.num_ratings());
        for r in sub.ratings() {
            assert!(r.ts < cut);
        }
    }

    #[test]
    fn item_subset_re_densifies_ids() {
        let d = dataset();
        let toy = d.find_title("Toy Story").unwrap();
        let jaws = d.find_title("Jaws").unwrap();
        let sub = by_items(&d, &[toy, jaws]).unwrap();
        assert_eq!(sub.items().len(), 2);
        assert!(sub.find_title("Toy Story").is_some());
        assert!(sub.find_title("Jaws").is_some());
        assert!(sub.find_title("Forrest Gump").is_none());
        // Every rating references the two dense ids.
        for r in sub.ratings() {
            assert!(r.item.index() < 2);
        }
        // Rating volume matches the originals.
        let expected = d.ratings_for_item(toy).len() + d.ratings_for_item(jaws).len();
        assert_eq!(sub.num_ratings(), expected);
    }

    #[test]
    fn user_filter_subsets_population() {
        let d = dataset();
        let male_only = subset(
            &d,
            &SubsetSpec {
                user_filter: Some(&|u: &User| u.gender == Gender::Male),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(male_only.num_ratings() > 0);
        for u in male_only.users() {
            assert_eq!(u.gender, Gender::Male);
        }
        for r in male_only.ratings() {
            assert_eq!(male_only.user(r.user).gender, Gender::Male);
        }
    }

    #[test]
    fn person_join_survives_subsetting() {
        let d = dataset();
        let toy = d.find_title("Toy Story").unwrap();
        let sub = by_items(&d, &[toy]).unwrap();
        let hanks = sub.find_person("Tom Hanks").expect("join preserved");
        let new_toy = sub.find_title("Toy Story").unwrap();
        assert!(sub
            .item(new_toy)
            .has_person(hanks, crate::item::Role::Actor));
    }

    #[test]
    fn orphans_dropped_by_default() {
        let d = dataset();
        let toy = d.find_title("Toy Story").unwrap();
        let sub = by_items(&d, &[toy]).unwrap();
        // Every surviving user rated Toy Story.
        let raters: std::collections::HashSet<_> = sub.ratings().map(|r| r.user).collect();
        for u in sub.users() {
            assert!(raters.contains(&u.id));
        }
    }

    #[test]
    fn keep_orphans_preserves_population() {
        let d = dataset();
        let toy = d.find_title("Toy Story").unwrap();
        let sub = subset(
            &d,
            &SubsetSpec {
                items: Some(&[toy]),
                drop_orphans: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sub.users().len(), d.users().len());
        assert_eq!(sub.items().len(), 1);
    }

    #[test]
    fn subset_id_space_admits_appends() {
        // A subset's re-densified id space must be continuable by the
        // ingest allocator without colliding with existing packed columns.
        let d = dataset();
        let cut = Timestamp::from_ymd(2001, 6, 1);
        let sub = by_time(&d, TimeRange::until(cut)).unwrap();
        let mut alloc = IdAllocator::for_dataset(&sub);
        assert_eq!(alloc.peek_user().index(), sub.users().len());
        assert_eq!(alloc.peek_item().index(), sub.items().len());
        let u = alloc.alloc_user();
        let mut batch = crate::append::AppendBatch::new();
        let mut user = sub.users()[0].clone();
        user.id = u;
        batch.users.push(user);
        batch.ratings.push(Rating::new(
            u,
            sub.items()[0].id,
            sub.ratings_for_item(sub.items()[0].id)[0].score,
            Timestamp::from_ymd(2002, 1, 1),
        ));
        let out = sub.with_appended(batch).unwrap();
        assert_eq!(out.dataset.users().len(), sub.users().len() + 1);
        // The late rating splices in at the end of item 0's chunk; with
        // that one position removed, the pre-existing packed codes are
        // carried over unchanged.
        let item = sub.items()[0].id;
        let chunk = out.dataset.chunk(item);
        assert_eq!(chunk.ratings().last().unwrap().user, u);
        let codes = &chunk.user_codes()[..chunk.len() - 1];
        assert_eq!(codes, sub.chunk(item).user_codes());
        for other in &sub.items()[1..] {
            assert!(std::sync::Arc::ptr_eq(
                out.dataset.chunk(other.id),
                sub.chunk(other.id)
            ));
        }
    }

    #[test]
    fn empty_window_yields_empty_but_valid() {
        let d = dataset();
        let sub = by_time(
            &d,
            TimeRange::between(
                Timestamp::from_ymd(1990, 1, 1),
                Timestamp::from_ymd(1990, 1, 2),
            ),
        )
        .unwrap();
        assert_eq!(sub.num_ratings(), 0);
        assert!(sub.users().is_empty());
    }
}
