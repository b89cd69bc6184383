//! The item query language of the Figure-1 front-end: conjunctive or
//! disjunctive combinations of item attribute/value predicates (movie
//! title, actor, director, genre), optionally restricted to a time
//! interval (§3.1).

use maprat_data::{Dataset, Genre, ItemId, MonthKey, Role, TimeRange};
use std::collections::BTreeSet;
use std::fmt;

/// One attribute/value predicate over items.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryTerm {
    /// Exact title match (case-insensitive) — the "Movie Name" query type.
    TitleIs(String),
    /// Title substring match.
    TitleContains(String),
    /// Movies a named actor appears in.
    Actor(String),
    /// Movies a named director directed.
    Director(String),
    /// Movies carrying a genre.
    Genre(Genre),
    /// Movies released in an inclusive year range.
    YearBetween(u16, u16),
}

impl QueryTerm {
    /// Evaluates the term to an item set.
    fn eval(&self, dataset: &Dataset) -> BTreeSet<ItemId> {
        match self {
            QueryTerm::TitleIs(t) => dataset.find_title(t).into_iter().collect(),
            QueryTerm::TitleContains(t) => dataset.search_titles(t).into_iter().collect(),
            QueryTerm::Actor(name) => dataset
                .find_person(name)
                .map(|p| {
                    dataset
                        .items_with_person(p, Role::Actor)
                        .iter()
                        .copied()
                        .collect()
                })
                .unwrap_or_default(),
            QueryTerm::Director(name) => dataset
                .find_person(name)
                .map(|p| {
                    dataset
                        .items_with_person(p, Role::Director)
                        .iter()
                        .copied()
                        .collect()
                })
                .unwrap_or_default(),
            QueryTerm::Genre(g) => dataset
                .items()
                .iter()
                .filter(|it| it.genres.contains(*g))
                .map(|it| it.id)
                .collect(),
            QueryTerm::YearBetween(lo, hi) => dataset
                .items()
                .iter()
                .filter(|it| (*lo..=*hi).contains(&it.year))
                .map(|it| it.id)
                .collect(),
        }
    }
}

impl fmt::Display for QueryTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryTerm::TitleIs(t) => write!(f, "title={t:?}"),
            QueryTerm::TitleContains(t) => write!(f, "title~{t:?}"),
            QueryTerm::Actor(a) => write!(f, "actor={a:?}"),
            QueryTerm::Director(d) => write!(f, "director={d:?}"),
            QueryTerm::Genre(g) => write!(f, "genre={g}"),
            QueryTerm::YearBetween(lo, hi) => write!(f, "year={lo}..={hi}"),
        }
    }
}

/// How multiple terms combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Combine {
    /// All terms must hold (intersection).
    #[default]
    Conjunctive,
    /// Any term may hold (union).
    Disjunctive,
}

/// A complete front-end query: terms, combination mode and time window.
///
/// ```
/// use maprat_core::query::{ItemQuery, QueryTerm};
/// use maprat_data::Genre;
/// let q = ItemQuery::director("Steven Spielberg")
///     .and(QueryTerm::Genre(Genre::Thriller));
/// assert!(q.describe().contains("AND"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ItemQuery {
    /// The predicates.
    pub terms: Vec<QueryTerm>,
    /// Conjunctive or disjunctive combination.
    pub combine: Combine,
    /// Time restriction on the mined ratings.
    pub time: TimeRange,
}

impl ItemQuery {
    /// A single-term conjunctive query over all time.
    pub fn new(term: QueryTerm) -> Self {
        ItemQuery {
            terms: vec![term],
            combine: Combine::Conjunctive,
            time: TimeRange::all(),
        }
    }

    /// Shorthand for the demo's default query type: exact movie title.
    pub fn title(title: impl Into<String>) -> Self {
        ItemQuery::new(QueryTerm::TitleIs(title.into()))
    }

    /// Shorthand: all movies of an actor.
    pub fn actor(name: impl Into<String>) -> Self {
        ItemQuery::new(QueryTerm::Actor(name.into()))
    }

    /// Shorthand: all movies of a director.
    pub fn director(name: impl Into<String>) -> Self {
        ItemQuery::new(QueryTerm::Director(name.into()))
    }

    /// Adds a conjunctive/disjunctive term.
    pub fn and(mut self, term: QueryTerm) -> Self {
        self.terms.push(term);
        self.combine = Combine::Conjunctive;
        self
    }

    /// Switches to disjunctive combination and adds a term.
    pub fn or(mut self, term: QueryTerm) -> Self {
        self.terms.push(term);
        self.combine = Combine::Disjunctive;
        self
    }

    /// Restricts the mined ratings to a time window.
    pub fn within(mut self, time: TimeRange) -> Self {
        self.time = time;
        self
    }

    /// Restricts the mined ratings to an optionally-bounded month window —
    /// the shape the front-end's `from`/`to` fields produce. Handles all
    /// four bound combinations so callers never assemble the three
    /// [`TimeRange`] cases by hand:
    ///
    /// * both bounds → the inclusive month span,
    /// * only `from` → everything from that month on,
    /// * only `to` → everything through that month,
    /// * neither → unchanged (all time).
    ///
    /// # Panics
    /// Panics when `from` is after `to`; reject that combination at the
    /// request boundary first.
    pub fn within_months(self, from: Option<MonthKey>, to: Option<MonthKey>) -> Self {
        match (from, to) {
            (Some(f), Some(t)) => self.within(TimeRange::months(f..=t)),
            (Some(f), None) => self.within(TimeRange::from_start(f.start())),
            (None, Some(t)) => self.within(TimeRange::until(t.end_exclusive())),
            (None, None) => self,
        }
    }

    /// Evaluates the query to the matched item set (sorted, deduplicated).
    pub fn items(&self, dataset: &Dataset) -> Vec<ItemId> {
        let mut iter = self.terms.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut acc = first.eval(dataset);
        for term in iter {
            let next = term.eval(dataset);
            match self.combine {
                Combine::Conjunctive => acc = acc.intersection(&next).copied().collect(),
                Combine::Disjunctive => acc.extend(next),
            }
        }
        acc.into_iter().collect()
    }

    /// Collects the dense rating indexes `R_I` of the matched items inside
    /// the time window, in dataset order.
    pub fn rating_indexes(&self, dataset: &Dataset) -> Vec<u32> {
        let mut out = Vec::new();
        for item in self.items(dataset) {
            let range = dataset.rating_range_for_item(item);
            if self.time.is_unrestricted() {
                out.extend(range);
            } else {
                let ratings = dataset.ratings_for_item(item);
                out.extend(
                    range
                        .zip(ratings)
                        .filter(|(_, r)| self.time.contains(r.ts))
                        .map(|(idx, _)| idx),
                );
            }
        }
        out
    }

    /// Human-readable rendering for logs and the UI.
    pub fn describe(&self) -> String {
        let sep = match self.combine {
            Combine::Conjunctive => " AND ",
            Combine::Disjunctive => " OR ",
        };
        let terms = self
            .terms
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(sep);
        if self.time.is_unrestricted() {
            terms
        } else {
            format!("{terms} @ {}", self.time)
        }
    }
}

impl fmt::Display for ItemQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::{RatingIdx, Timestamp};

    fn dataset() -> Dataset {
        generate(&SynthConfig::tiny(41)).unwrap()
    }

    #[test]
    fn title_query_matches_exactly_one() {
        let d = dataset();
        let items = ItemQuery::title("Toy Story").items(&d);
        assert_eq!(items.len(), 1);
        assert_eq!(d.item(items[0]).title, "Toy Story");
    }

    #[test]
    fn actor_query_spans_catalogue() {
        let d = dataset();
        let items = ItemQuery::actor("Tom Hanks").items(&d);
        assert!(items.len() >= 3, "Hanks is planted in ≥3 movies");
        for it in items {
            let hanks = d.find_person("Tom Hanks").unwrap();
            assert!(d.item(it).has_person(hanks, Role::Actor));
        }
    }

    #[test]
    fn conjunctive_thriller_spielberg() {
        let d = dataset();
        let q = ItemQuery::director("Steven Spielberg").and(QueryTerm::Genre(Genre::Thriller));
        let items = q.items(&d);
        assert!(!items.is_empty());
        for it in &items {
            assert!(d.item(*it).genres.contains(Genre::Thriller));
        }
        // Conjunction must be a subset of the director query alone.
        let all_spielberg = ItemQuery::director("Steven Spielberg").items(&d);
        assert!(items.iter().all(|i| all_spielberg.contains(i)));
        assert!(items.len() < all_spielberg.len());
    }

    #[test]
    fn disjunctive_union() {
        let d = dataset();
        let q = ItemQuery::title("Toy Story").or(QueryTerm::TitleIs("Jaws".into()));
        assert_eq!(q.items(&d).len(), 2);
    }

    #[test]
    fn trilogy_substring_query() {
        let d = dataset();
        let q = ItemQuery::new(QueryTerm::TitleContains("Lord of the Rings".into()));
        assert_eq!(q.items(&d).len(), 3);
    }

    #[test]
    fn unknown_names_match_nothing() {
        let d = dataset();
        assert!(ItemQuery::title("Nonexistent").items(&d).is_empty());
        assert!(ItemQuery::actor("Nobody").items(&d).is_empty());
        let empty = ItemQuery {
            terms: vec![],
            combine: Combine::Conjunctive,
            time: TimeRange::all(),
        };
        assert!(empty.items(&d).is_empty());
    }

    #[test]
    fn rating_indexes_respect_time_window() {
        let d = dataset();
        let all = ItemQuery::title("Toy Story").rating_indexes(&d);
        let half = ItemQuery::title("Toy Story")
            .within(TimeRange::until(Timestamp::from_ymd(2001, 9, 1)))
            .rating_indexes(&d);
        assert!(!all.is_empty());
        assert!(half.len() < all.len());
        assert!(!half.is_empty());
        for idx in &half {
            assert!(d.rating(RatingIdx(*idx)).ts < Timestamp::from_ymd(2001, 9, 1));
        }
    }

    #[test]
    fn within_months_covers_all_bound_combinations() {
        let base = || ItemQuery::title("Toy Story");
        let f = MonthKey::new(2000, 5);
        let t = MonthKey::new(2001, 6);
        assert!(base().within_months(None, None).time.is_unrestricted());
        let both = base().within_months(Some(f), Some(t)).time;
        assert_eq!(both, TimeRange::months(f..=t));
        let from_only = base().within_months(Some(f), None).time;
        assert_eq!(from_only.start(), Some(f.start()));
        assert_eq!(from_only.end(), None);
        let to_only = base().within_months(None, Some(t)).time;
        assert_eq!(to_only.start(), None);
        assert_eq!(to_only.end(), Some(t.end_exclusive()));
    }

    #[test]
    fn year_range_term() {
        let d = dataset();
        let q = ItemQuery::new(QueryTerm::YearBetween(2001, 2003));
        for it in q.items(&d) {
            assert!((2001..=2003).contains(&d.item(it).year));
        }
    }

    #[test]
    fn describe_renders_terms() {
        let q = ItemQuery::title("Toy Story").and(QueryTerm::Genre(Genre::Comedy));
        let s = q.describe();
        assert!(s.contains("Toy Story") && s.contains("AND") && s.contains("Comedy"));
    }
}
