//! Study calendar: dates, day indices and the paper's period taxonomy.
//!
//! Day 0 is 2021-01-01. The paper analyses four 54-day periods:
//! **baseline Jan-Feb 2021**, **baseline Feb-Apr 2021**, **prewar 2022**
//! (Jan 1 – Feb 23) and **wartime 2022** (Feb 24 – Apr 18).

/// Length of each analysis period in days.
pub const DAYS_PER_PERIOD: i64 = 54;

/// A calendar date (proleptic Gregorian; the study spans 2021–2022, neither
/// of which is a leap year, but the conversion handles leap years anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    /// Creates a date, returning `None` on an invalid month/day
    /// combination (e.g. month 13, or Feb 29 in a common year). The
    /// fallible counterpart of [`Date::new`] for untrusted input such as
    /// CLI arguments.
    pub fn try_new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return None;
        }
        Some(Self { year, month, day })
    }

    /// Creates a date.
    ///
    /// # Panics
    /// Panics on an invalid month/day combination; use [`Date::try_new`]
    /// for untrusted input.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "invalid month {month}");
        assert!(day >= 1 && day <= days_in_month(year, month), "invalid day {year}-{month}-{day}");
        Self { year, month, day }
    }

    /// Days since 2021-01-01 (may be negative for earlier dates).
    pub fn day_index(&self) -> i64 {
        let mut days: i64 = 0;
        if self.year >= 2021 {
            for y in 2021..self.year {
                days += if is_leap(y) { 366 } else { 365 };
            }
        } else {
            for y in self.year..2021 {
                days -= if is_leap(y) { 366 } else { 365 };
            }
        }
        for m in 1..self.month {
            days += days_in_month(self.year, m) as i64;
        }
        days + self.day as i64 - 1
    }

    /// Inverse of [`Date::day_index`].
    pub fn from_day_index(mut idx: i64) -> Self {
        let mut year = 2021;
        loop {
            let len = if is_leap(year) { 366 } else { 365 };
            if idx < 0 {
                year -= 1;
                idx += if is_leap(year) { 366 } else { 365 };
            } else if idx >= len {
                idx -= len;
                year += 1;
            } else {
                break;
            }
        }
        let mut month = 1u8;
        while idx >= days_in_month(year, month) as i64 {
            idx -= days_in_month(year, month) as i64;
            month += 1;
        }
        Date { year, month, day: idx as u8 + 1 }
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn days_in_month(y: i32, m: u8) -> u8 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(y) {
                29
            } else {
                28
            }
        }
        _ => panic!("invalid month {m}"),
    }
}

/// Key dates of the study (§2, §4).
pub mod dates {
    use super::Date;

    /// Start of the 2021 baseline window.
    pub const BASELINE_START: Date = Date { year: 2021, month: 1, day: 1 };
    /// Start of the 2022 study window.
    pub const STUDY_START: Date = Date { year: 2022, month: 1, day: 1 };
    /// Russia's full-scale invasion begins.
    pub const INVASION: Date = Date { year: 2022, month: 2, day: 24 };
    /// Russian forces surround Mariupol.
    pub const MARIUPOL_ENCIRCLED: Date = Date { year: 2022, month: 3, day: 1 };
    /// Nationwide Ukrtelecom outage (40 min) and Triolan outage (12+ h).
    pub const NATIONAL_OUTAGES: Date = Date { year: 2022, month: 3, day: 10 };
    /// Mass shelling of Kharkiv (600+ residential buildings destroyed).
    pub const KHARKIV_SHELLING: Date = Date { year: 2022, month: 3, day: 14 };
    /// Approximate maximum of Russian-occupied territory (Figure 1).
    pub const MAX_OCCUPATION: Date = Date { year: 2022, month: 3, day: 20 };
    /// Ukrainian forces retake the Kyiv axis; Russian withdrawal north.
    pub const KYIV_REGAINED: Date = Date { year: 2022, month: 4, day: 3 };
    /// Missile strike on Lviv; end of the study window.
    pub const STUDY_END: Date = Date { year: 2022, month: 4, day: 18 };
}

/// The paper's four analysis periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Period {
    /// 2021-01-01 .. 2021-02-23 (54 days).
    BaselineJanFeb2021,
    /// 2021-02-24 .. 2021-04-18 (54 days).
    BaselineFebApr2021,
    /// 2022-01-01 .. 2022-02-23 (54 days).
    Prewar2022,
    /// 2022-02-24 .. 2022-04-18 (54 days).
    Wartime2022,
}

impl Period {
    /// All four periods, chronologically.
    pub const ALL: [Period; 4] =
        [Period::BaselineJanFeb2021, Period::BaselineFebApr2021, Period::Prewar2022, Period::Wartime2022];

    /// Half-open day-index range `[start, end)` of the period.
    pub fn day_range(&self) -> (i64, i64) {
        let start = match self {
            Period::BaselineJanFeb2021 => dates::BASELINE_START.day_index(),
            Period::BaselineFebApr2021 => Date::new(2021, 2, 24).day_index(),
            Period::Prewar2022 => dates::STUDY_START.day_index(),
            Period::Wartime2022 => dates::INVASION.day_index(),
        };
        (start, start + DAYS_PER_PERIOD)
    }

    /// The period containing a day index, if any.
    pub fn of_day(day: i64) -> Option<Period> {
        Period::ALL.into_iter().find(|p| {
            let (s, e) = p.day_range();
            (s..e).contains(&day)
        })
    }

    /// Display label matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Period::BaselineJanFeb2021 => "Baseline Jan-Feb, 2021",
            Period::BaselineFebApr2021 => "Baseline Feb-Apr, 2021",
            Period::Prewar2022 => "Prewar, 2022",
            Period::Wartime2022 => "Wartime, 2022",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_index_anchors() {
        assert_eq!(Date::new(2021, 1, 1).day_index(), 0);
        assert_eq!(Date::new(2021, 12, 31).day_index(), 364);
        assert_eq!(Date::new(2022, 1, 1).day_index(), 365);
        assert_eq!(dates::INVASION.day_index(), 365 + 54);
        assert_eq!(dates::STUDY_END.day_index(), 365 + 107);
    }

    #[test]
    fn roundtrip_day_index() {
        for idx in [-400i64, -1, 0, 1, 58, 364, 365, 419, 472, 800] {
            let d = Date::from_day_index(idx);
            assert_eq!(d.day_index(), idx, "roundtrip failed for {d}");
        }
    }

    #[test]
    fn periods_are_contiguous_54_day_blocks() {
        for p in Period::ALL {
            let (s, e) = p.day_range();
            assert_eq!(e - s, DAYS_PER_PERIOD, "{p:?}");
        }
        let (b1s, b1e) = Period::BaselineJanFeb2021.day_range();
        let (b2s, b2e) = Period::BaselineFebApr2021.day_range();
        assert_eq!(b1e, b2s);
        assert_eq!(b1s, 0);
        assert_eq!(b2e, 108);
        let (pws, pwe) = Period::Prewar2022.day_range();
        let (wts, wte) = Period::Wartime2022.day_range();
        assert_eq!(pwe, wts);
        assert_eq!(pws, 365);
        assert_eq!(wte, 365 + 108);
    }

    #[test]
    fn of_day_classification() {
        assert_eq!(Period::of_day(0), Some(Period::BaselineJanFeb2021));
        assert_eq!(Period::of_day(54), Some(Period::BaselineFebApr2021));
        assert_eq!(Period::of_day(108), None); // gap between windows
        assert_eq!(Period::of_day(365), Some(Period::Prewar2022));
        assert_eq!(Period::of_day(dates::INVASION.day_index()), Some(Period::Wartime2022));
        assert_eq!(Period::of_day(dates::STUDY_END.day_index()), Some(Period::Wartime2022));
        assert_eq!(Period::of_day(473), None);
    }

    #[test]
    fn invasion_is_2022_02_24() {
        assert_eq!(dates::INVASION.to_string(), "2022-02-24");
        assert_eq!(Date::from_day_index(419).to_string(), "2022-02-24");
    }

    #[test]
    fn leap_year_handling() {
        assert_eq!(Date::new(2024, 2, 29).day_index() - Date::new(2024, 2, 28).day_index(), 1);
        assert_eq!(Date::new(2024, 3, 1).day_index() - Date::new(2024, 2, 29).day_index(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid day")]
    fn rejects_feb_29_in_common_year() {
        Date::new(2022, 2, 29);
    }

    #[test]
    fn try_new_validates_without_panicking() {
        assert_eq!(Date::try_new(2022, 2, 24), Some(Date::new(2022, 2, 24)));
        assert_eq!(Date::try_new(2024, 2, 29), Some(Date::new(2024, 2, 29)));
        assert_eq!(Date::try_new(2022, 2, 29), None);
        assert_eq!(Date::try_new(2022, 13, 1), None);
        assert_eq!(Date::try_new(2022, 0, 1), None);
        assert_eq!(Date::try_new(2022, 4, 31), None);
        assert_eq!(Date::try_new(2022, 1, 0), None);
    }
}
