//! Timestamps, calendar bucketing and time ranges.
//!
//! MapRat's time slider (§2.3, §3.1) operates on month-granularity windows
//! over the rating history, so this module provides a dependency-free civil
//! calendar conversion (Howard Hinnant's `days_from_civil` algorithm) and a
//! dense [`MonthKey`] for bucketing.

use std::fmt;
use std::ops::RangeInclusive;

/// A Unix timestamp in seconds, as stored in MovieLens rating files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub i64);

const SECS_PER_DAY: i64 = 86_400;

/// Converts a civil date into days since the Unix epoch.
///
/// Valid for all dates in the proleptic Gregorian calendar; the rating
/// datasets only need 1995–2010.
fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    debug_assert!((1..=12).contains(&month));
    debug_assert!((1..=31).contains(&day));
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (month as i64 + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Converts days since the Unix epoch back into a `(year, month, day)` triple.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl Timestamp {
    /// The first instant of year 1 (`0001-01-01`).
    pub const CALENDAR_START: Timestamp = Timestamp(-62_135_596_800);

    /// The first instant after year 9999 (`10000-01-01`), exclusive.
    pub const CALENDAR_END: Timestamp = Timestamp(253_402_300_800);

    /// True inside the years 1–9999, the calendar a dataset stores: every
    /// such instant renders as `YYYY-MM-DD` and its month has a
    /// [`MonthKey`]. Datasets and commits reject ratings outside it.
    #[inline]
    pub fn in_calendar(self) -> bool {
        Self::CALENDAR_START <= self && self < Self::CALENDAR_END
    }

    /// Builds a timestamp from a civil UTC date at midnight.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Self {
        Timestamp(days_from_civil(year, month, day) * SECS_PER_DAY)
    }

    /// Decomposes into `(year, month, day)` in UTC.
    pub fn to_ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.0.div_euclid(SECS_PER_DAY))
    }

    /// The month bucket this timestamp falls into.
    pub fn month_key(self) -> MonthKey {
        let (y, m, _) = self.to_ymd();
        MonthKey::new(y as i32, m)
    }

    /// Raw seconds since the Unix epoch.
    #[inline]
    pub fn secs(self) -> i64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A dense, ordered month identifier (`year * 12 + month0`).
///
/// Month keys are the unit of MapRat's time slider: the exploration engine
/// buckets ratings by `MonthKey` once and then serves any slider window by
/// merging bucket aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonthKey(i32);

impl MonthKey {
    /// Creates a key for `month ∈ [1, 12]` of `year`.
    pub fn new(year: i32, month: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        MonthKey(year * 12 + (month as i32 - 1))
    }

    /// The calendar year.
    #[inline]
    pub fn year(self) -> i32 {
        self.0.div_euclid(12)
    }

    /// The calendar month in `[1, 12]`.
    #[inline]
    pub fn month(self) -> u32 {
        (self.0.rem_euclid(12) + 1) as u32
    }

    /// The next month.
    #[inline]
    pub fn succ(self) -> MonthKey {
        MonthKey(self.0 + 1)
    }

    /// The month `months` after this one, or `None` past the end of the
    /// key range.
    #[inline]
    pub fn checked_add(self, months: usize) -> Option<MonthKey> {
        let months = i32::try_from(months).ok()?;
        self.0.checked_add(months).map(MonthKey)
    }

    /// Number of months from `self` to `other` (negative if `other` earlier).
    #[inline]
    pub fn months_until(self, other: MonthKey) -> i32 {
        other.0 - self.0
    }

    /// Timestamp of the first instant of this month.
    pub fn start(self) -> Timestamp {
        Timestamp::from_ymd(self.year() as i64, self.month(), 1)
    }

    /// Timestamp of the first instant of the following month (exclusive end).
    pub fn end_exclusive(self) -> Timestamp {
        self.succ().start()
    }

    /// Iterates all months from `self` through `last` inclusive.
    pub fn iter_through(self, last: MonthKey) -> impl Iterator<Item = MonthKey> {
        (self.0..=last.0).map(MonthKey)
    }

    /// The raw dense value (useful as an array offset).
    #[inline]
    pub fn raw(self) -> i32 {
        self.0
    }
}

impl fmt::Display for MonthKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}", self.year(), self.month())
    }
}

impl std::str::FromStr for MonthKey {
    type Err = String;

    /// Parses the `YYYY-MM` form the front-end's time fields use. The
    /// error names the offending input so request boundaries can surface
    /// it verbatim.
    fn from_str(value: &str) -> Result<Self, Self::Err> {
        let (y, m) = value
            .split_once('-')
            .ok_or_else(|| format!("bad month {value:?} (expected YYYY-MM)"))?;
        let year: i32 = y
            .parse()
            .map_err(|_| format!("bad year in {value:?} (expected YYYY-MM)"))?;
        let month: u32 = m
            .parse()
            .map_err(|_| format!("bad month in {value:?} (expected YYYY-MM)"))?;
        if !(1..=12).contains(&month) {
            return Err(format!("month {month} in {value:?} outside 1..=12"));
        }
        Ok(MonthKey::new(year, month))
    }
}

/// A half-open time interval `[start, end)` used to restrict mining (§3.1).
///
/// `TimeRange::all()` places no restriction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    start: Option<Timestamp>,
    end: Option<Timestamp>,
}

impl TimeRange {
    /// The unrestricted range.
    pub fn all() -> Self {
        TimeRange {
            start: None,
            end: None,
        }
    }

    /// A `[start, end)` window.
    pub fn between(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "time range start after end");
        TimeRange {
            start: Some(start),
            end: Some(end),
        }
    }

    /// Everything at or after `start`.
    pub fn from_start(start: Timestamp) -> Self {
        TimeRange {
            start: Some(start),
            end: None,
        }
    }

    /// Everything strictly before `end`.
    pub fn until(end: Timestamp) -> Self {
        TimeRange {
            start: None,
            end: Some(end),
        }
    }

    /// The window covering an inclusive month span, e.g. a slider position.
    pub fn months(range: RangeInclusive<MonthKey>) -> Self {
        TimeRange::between(range.start().start(), range.end().end_exclusive())
    }

    /// Whether `ts` falls inside the range.
    #[inline]
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.start.is_none_or(|s| ts >= s) && self.end.is_none_or(|e| ts < e)
    }

    /// Whether this is the unrestricted range.
    #[inline]
    pub fn is_unrestricted(&self) -> bool {
        self.start.is_none() && self.end.is_none()
    }

    /// The inclusive start bound, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.start
    }

    /// The exclusive end bound, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.end
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.start, self.end) {
            (None, None) => write!(f, "[all time]"),
            (Some(s), None) => write!(f, "[{s}, ∞)"),
            (None, Some(e)) => write!(f, "(-∞, {e})"),
            (Some(s), Some(e)) => write!(f, "[{s}, {e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn calendar_bounds_are_years_one_through_9999() {
        assert_eq!(Timestamp::CALENDAR_START, Timestamp::from_ymd(1, 1, 1));
        assert_eq!(Timestamp::CALENDAR_END, Timestamp::from_ymd(10_000, 1, 1));
        assert!(Timestamp::CALENDAR_START.in_calendar());
        assert!(Timestamp(Timestamp::CALENDAR_END.0 - 1).in_calendar());
        assert!(!Timestamp::CALENDAR_END.in_calendar());
        assert!(!Timestamp(Timestamp::CALENDAR_START.0 - 1).in_calendar());
        assert!(!Timestamp::from_ymd(99_999_999, 1, 1).in_calendar());
    }

    #[test]
    fn known_dates_round_trip() {
        // MovieLens-1M spans roughly 2000-04-25 .. 2003-02-28.
        for &(y, m, d) in &[(2000, 4, 25), (2003, 2, 28), (1999, 12, 31), (2004, 2, 29)] {
            let ts = Timestamp::from_ymd(y, m, d);
            assert_eq!(ts.to_ymd(), (y, m, d));
        }
    }

    #[test]
    fn display_formats_iso() {
        assert_eq!(Timestamp::from_ymd(2000, 4, 25).to_string(), "2000-04-25");
    }

    #[test]
    fn month_key_fields() {
        let k = MonthKey::new(2001, 7);
        assert_eq!(k.year(), 2001);
        assert_eq!(k.month(), 7);
        assert_eq!(k.to_string(), "2001-07");
    }

    #[test]
    fn month_key_parses_and_rejects() {
        assert_eq!("2001-07".parse::<MonthKey>(), Ok(MonthKey::new(2001, 7)));
        for bad in ["200107", "x-07", "2001-xx", "2001-13", "2001-0"] {
            let err = bad.parse::<MonthKey>().unwrap_err();
            assert!(err.contains(bad) || err.contains("outside"), "{err}");
        }
    }

    #[test]
    fn month_key_succ_wraps_year() {
        assert_eq!(MonthKey::new(2000, 12).succ(), MonthKey::new(2001, 1));
    }

    #[test]
    fn month_key_checked_add_stops_at_the_key_range() {
        assert_eq!(
            MonthKey::new(2000, 11).checked_add(14),
            Some(MonthKey::new(2002, 1))
        );
        assert_eq!(
            MonthKey::new(2000, 1).checked_add(0),
            Some(MonthKey::new(2000, 1))
        );
        assert_eq!(MonthKey::new(2000, 1).checked_add(4_000_000_000), None);
        assert_eq!(MonthKey(i32::MAX).checked_add(1), None);
    }

    #[test]
    fn month_key_span_iteration() {
        let months: Vec<_> = MonthKey::new(2000, 11)
            .iter_through(MonthKey::new(2001, 2))
            .collect();
        assert_eq!(months.len(), 4);
        assert_eq!(months[0], MonthKey::new(2000, 11));
        assert_eq!(months[3], MonthKey::new(2001, 2));
    }

    #[test]
    fn month_bounds_cover_exactly_the_month() {
        let k = MonthKey::new(2002, 2);
        assert!(k.start() <= Timestamp::from_ymd(2002, 2, 15));
        assert_eq!(k.end_exclusive(), Timestamp::from_ymd(2002, 3, 1));
    }

    #[test]
    fn timestamp_month_key() {
        assert_eq!(
            Timestamp::from_ymd(2000, 4, 25).month_key(),
            MonthKey::new(2000, 4)
        );
    }

    #[test]
    fn range_containment() {
        let r = TimeRange::between(
            Timestamp::from_ymd(2001, 1, 1),
            Timestamp::from_ymd(2002, 1, 1),
        );
        assert!(r.contains(Timestamp::from_ymd(2001, 6, 1)));
        assert!(r.contains(Timestamp::from_ymd(2001, 1, 1)));
        assert!(!r.contains(Timestamp::from_ymd(2002, 1, 1)));
        assert!(!r.contains(Timestamp::from_ymd(2000, 12, 31)));
    }

    #[test]
    fn unrestricted_contains_everything() {
        let r = TimeRange::all();
        assert!(r.is_unrestricted());
        assert!(r.contains(Timestamp(i64::MIN / 4)));
        assert!(r.contains(Timestamp(i64::MAX / 4)));
    }

    #[test]
    fn months_range_covers_whole_months() {
        let r = TimeRange::months(MonthKey::new(2000, 4)..=MonthKey::new(2000, 5));
        assert!(r.contains(Timestamp::from_ymd(2000, 4, 1)));
        assert!(r.contains(Timestamp::from_ymd(2000, 5, 31)));
        assert!(!r.contains(Timestamp::from_ymd(2000, 6, 1)));
    }

    #[test]
    fn display_variants() {
        assert_eq!(TimeRange::all().to_string(), "[all time]");
        let s = Timestamp::from_ymd(2000, 1, 1);
        assert!(TimeRange::from_start(s).to_string().starts_with('['));
        assert!(TimeRange::until(s).to_string().starts_with('('));
    }
}
