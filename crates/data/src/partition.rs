//! Month partitions of the ratings.
//!
//! Each item's ratings are sorted by timestamp, so every calendar month
//! occupies a contiguous run of the item's rating indexes. That makes a
//! *partition* a set of index ranges rather than a copy: the timeline
//! mines a slider window by merging the profile summaries of its month
//! runs instead of re-streaming ratings. The dataset also keeps a running
//! count of ratings per month, which `/api/v1/stats` reports and which a
//! commit extends with the months of its batch.

use crate::dataset::Dataset;
use crate::ids::ItemId;
use crate::rating::Rating;
use crate::time::{MonthKey, Timestamp};
use std::ops::Range;

/// Per-month rating volume over a whole dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonthPartition {
    /// The calendar month.
    pub month: MonthKey,
    /// Number of ratings timestamped inside it.
    pub num_ratings: u64,
}

/// Per-month rating counts being gathered. Each month seen keeps its
/// bounds, so a run of ratings inside a known month costs one search and
/// no calendar conversion, and the work never depends on how many months
/// the ratings span.
#[derive(Debug, Default)]
pub(crate) struct MonthCounter {
    /// Ascending and disjoint: `(start, end_exclusive, counts)`.
    seen: Vec<(Timestamp, Timestamp, MonthPartition)>,
}

impl MonthCounter {
    /// Counts `ratings`. Consecutive same-month ratings are counted as one
    /// run, so ratings sorted by timestamp within each item pay per
    /// item-month, not per rating; any order is counted correctly.
    pub(crate) fn add(&mut self, ratings: &[Rating]) {
        let mut rest = ratings;
        while let Some(first) = rest.first() {
            let at = self.seen.partition_point(|&(_, end, _)| end <= first.ts);
            if self
                .seen
                .get(at)
                .is_none_or(|&(start, ..)| first.ts < start)
            {
                let month = first.ts.month_key();
                let counts = MonthPartition {
                    month,
                    num_ratings: 0,
                };
                self.seen
                    .insert(at, (month.start(), month.end_exclusive(), counts));
            }
            let (lo, hi, counts) = &mut self.seen[at];
            let run = 1 + rest[1..]
                .iter()
                .take_while(|r| *lo <= r.ts && r.ts < *hi)
                .count();
            counts.num_ratings += run as u64;
            rest = &rest[run..];
        }
    }

    /// Adds the gathered counts to `months`, which stays ascending by month.
    pub(crate) fn add_to(self, months: &mut Vec<MonthPartition>) {
        for (_, _, counts) in self.seen {
            match months.binary_search_by_key(&counts.month, |p| p.month) {
                Ok(at) => months[at].num_ratings += counts.num_ratings,
                Err(at) => months.insert(at, counts),
            }
        }
    }
}

impl Dataset {
    /// Splits an item's ratings into per-month index ranges.
    ///
    /// Returned ranges are dense rating indexes (the same coordinate space
    /// as [`rating_range_for_item`](Dataset::rating_range_for_item)),
    /// ascending by month, and concatenate back to the item's full range.
    pub fn month_slices_for_item(&self, item: ItemId) -> Vec<(MonthKey, Range<u32>)> {
        let start = self.rating_range_for_item(item).start;
        let mut out: Vec<(MonthKey, Range<u32>)> = Vec::new();
        for (idx, r) in (start..).zip(self.ratings_for_item(item)) {
            let month = r.ts.month_key();
            match out.last_mut() {
                Some((m, r)) if *m == month => r.end = idx + 1,
                _ => out.push((month, idx..idx + 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RatingIdx;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn month_slices_partition_each_item_range() {
        let d = generate(&SynthConfig::tiny(7)).unwrap();
        for item in d.items() {
            let full = d.rating_range_for_item(item.id);
            let slices = d.month_slices_for_item(item.id);
            let mut cursor = full.start;
            let mut prev: Option<MonthKey> = None;
            for (month, range) in &slices {
                assert_eq!(range.start, cursor, "contiguous");
                assert!(range.end > range.start);
                if let Some(p) = prev {
                    assert!(*month > p, "ascending months");
                }
                for idx in range.clone() {
                    assert_eq!(d.rating(RatingIdx(idx)).ts.month_key(), *month);
                }
                cursor = range.end;
                prev = Some(*month);
            }
            assert_eq!(cursor, full.end, "slices cover the item range");
        }
    }

    #[test]
    fn month_partitions_sum_to_total() {
        let d = generate(&SynthConfig::tiny(7)).unwrap();
        let parts = d.month_partitions();
        assert!(!parts.is_empty());
        let total: u64 = parts.iter().map(|p| p.num_ratings).sum();
        assert_eq!(total, d.num_ratings() as u64);
        assert!(parts.windows(2).all(|w| w[0].month < w[1].month));
    }

    #[test]
    fn stored_month_counts_match_a_full_scan() {
        let d = generate(&SynthConfig::tiny(7)).unwrap();
        let mut scan = std::collections::BTreeMap::new();
        for r in d.ratings() {
            *scan.entry(r.ts.month_key()).or_insert(0u64) += 1;
        }
        let stored: Vec<(MonthKey, u64)> = d
            .month_partitions()
            .iter()
            .map(|p| (p.month, p.num_ratings))
            .collect();
        assert_eq!(stored, scan.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn month_counts_cost_nothing_per_month_of_span() {
        use crate::ids::{ItemId, UserId};
        use crate::score::Score;
        let at = |y, m| {
            Rating::new(
                UserId(0),
                ItemId(0),
                Score::new(3).unwrap(),
                Timestamp::from_ymd(y, m, 15),
            )
        };
        // Two ratings 1.2e9 months apart, then a second item's run that
        // steps back in time: only the three months rated are touched.
        let mut counter = MonthCounter::default();
        counter.add(&[at(2003, 1), at(99_999_999, 1)]);
        counter.add(&[at(2003, 1), at(2003, 2)]);
        let mut months = vec![MonthPartition {
            month: MonthKey::new(2003, 2),
            num_ratings: 5,
        }];
        counter.add_to(&mut months);
        let got: Vec<(MonthKey, u64)> = months.iter().map(|p| (p.month, p.num_ratings)).collect();
        assert_eq!(
            got,
            [
                (MonthKey::new(2003, 1), 2),
                (MonthKey::new(2003, 2), 6),
                (MonthKey::new(99_999_999, 1), 1),
            ]
        );
    }
}
