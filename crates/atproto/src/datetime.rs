//! Civil date/time handling without external dependencies.
//!
//! The study spans November 2022 – May 2024 and aggregates everything by day
//! or month, so the whole workspace shares this compact representation:
//! seconds since the Unix epoch plus conversions to and from civil
//! year/month/day (proleptic Gregorian, algorithm after Howard Hinnant's
//! `days_from_civil`).

use crate::error::{AtError, Result};
use std::fmt;

/// Seconds in a day.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// A point in time, stored as seconds since the Unix epoch (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Datetime(pub i64);

/// A civil calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    /// Gregorian year, e.g. 2024.
    pub(crate) year: i32,
    /// Month 1–12.
    pub(crate) month: u32,
    /// Day of month 1–31.
    pub(crate) day: u32,
}

/// Number of days from the civil epoch (1970-01-01) to the given date.
pub(crate) fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let m = month as i64;
    let d = day as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Convert a day count since 1970-01-01 back to a civil date.
pub(crate) fn civil_from_days(z: i64) -> CivilDate {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    CivilDate {
        year: (if m <= 2 { y + 1 } else { y }) as i32,
        month: m,
        day: d,
    }
}

impl CivilDate {
    /// Construct a date, validating ranges (does not validate day-of-month
    /// against month length beyond 31).
    pub(crate) fn new(year: i32, month: u32, day: u32) -> Result<Self> {
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(AtError::InvalidDatetime(format!(
                "{year:04}-{month:02}-{day:02}"
            )));
        }
        Ok(CivilDate { year, month, day })
    }

    /// Render as `YYYY-MM`.
    pub fn year_month(&self) -> String {
        format!("{:04}-{:02}", self.year, self.month)
    }

    /// The month as one number, `year * 12 + month - 1`: two dates share
    /// it exactly when they share [`CivilDate::year_month`].
    pub fn month_number(&self) -> i64 {
        i64::from(self.year) * 12 + i64::from(self.month) - 1
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl Datetime {
    /// Build from a civil date at midnight UTC.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self> {
        let date = CivilDate::new(year, month, day)?;
        Ok(Datetime(
            days_from_civil(date.year, date.month, date.day) * SECONDS_PER_DAY,
        ))
    }

    /// Seconds since the Unix epoch.
    pub fn timestamp(&self) -> i64 {
        self.0
    }

    /// The civil date of this instant (UTC).
    pub fn date(&self) -> CivilDate {
        civil_from_days(self.0.div_euclid(SECONDS_PER_DAY))
    }

    /// Day index since the Unix epoch (floor).
    pub fn day_index(&self) -> i64 {
        self.0.div_euclid(SECONDS_PER_DAY)
    }

    /// Seconds into the day `[0, 86399]`.
    pub(crate) fn seconds_of_day(&self) -> i64 {
        self.0.rem_euclid(SECONDS_PER_DAY)
    }

    /// Add a number of seconds.
    pub fn plus_seconds(&self, secs: i64) -> Datetime {
        Datetime(self.0 + secs)
    }

    /// Add a number of days.
    pub fn plus_days(&self, days: i64) -> Datetime {
        Datetime(self.0 + days * SECONDS_PER_DAY)
    }

    /// Difference in whole days (`self - other`, floor on instants).
    pub fn days_since(&self, other: Datetime) -> i64 {
        self.day_index() - other.day_index()
    }

    /// ISO-8601 rendering (`YYYY-MM-DDTHH:MM:SSZ`) as used in lexicon records.
    pub fn to_iso8601(&self) -> String {
        crate::did::rendered(self.string_len(), |out| self.write_to(out))
    }

    /// `self.to_iso8601().len()` without rendering: 20 bytes unless the
    /// year needs more than four characters.
    pub(crate) fn string_len(&self) -> usize {
        match self.date().year {
            0..=9999 => "YYYY-MM-DDTHH:MM:SSZ".len(),
            year => year.to_string().len().max(4) + "-MM-DDTHH:MM:SSZ".len(),
        }
    }

    /// Append the ISO-8601 rendering to `out` ([`Self::string_len`] bytes).
    /// Digits are written directly; only a year outside `0..=9999` (which
    /// `{:04}` renders wider, or with a sign) goes through the formatter.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        fn two(value: i64, then: u8, out: &mut Vec<u8>) {
            out.extend_from_slice(&[b'0' + (value / 10) as u8, b'0' + (value % 10) as u8, then]);
        }
        let date = self.date();
        let sod = self.seconds_of_day();
        match date.year {
            year @ 0..=9999 => {
                let digit = |place: i32| b'0' + (year / place % 10) as u8;
                out.extend_from_slice(&[digit(1000), digit(100), digit(10), digit(1), b'-']);
            }
            year => out.extend_from_slice(format!("{year:04}-").as_bytes()),
        }
        two(date.month as i64, b'-', out);
        two(date.day as i64, b'T', out);
        two(sod / 3600, b':', out);
        two(sod % 3600 / 60, b':', out);
        two(sod % 60, b'Z', out);
    }

    /// Parse the subset of ISO-8601 produced by [`Self::to_iso8601`]
    /// (`YYYY-MM-DD` or `YYYY-MM-DDTHH:MM:SSZ`).
    pub(crate) fn parse_iso8601(s: &str) -> Result<Self> {
        let err = || AtError::InvalidDatetime(s.to_string());
        let (date_part, time_part) = match s.split_once('T') {
            Some((d, t)) => (d, Some(t)),
            None => (s, None),
        };
        let mut it = date_part.split('-');
        let year: i32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if it.next().is_some() {
            return Err(err());
        }
        let mut dt = Self::from_ymd(year, month, day)?;
        if let Some(t) = time_part {
            let t = t.strip_suffix('Z').unwrap_or(t);
            let t = t.split('.').next().unwrap_or(t);
            let mut it = t.split(':');
            let h: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
            let m: u32 = it.next().ok_or_else(err)?.parse().map_err(|_| err())?;
            let sec: u32 = match it.next() {
                Some(x) => x.parse().map_err(|_| err())?,
                None => 0,
            };
            if h >= 24 || m >= 60 || sec >= 60 {
                return Err(err());
            }
            dt = dt.plus_seconds((h * 3600 + m * 60 + sec) as i64);
        }
        Ok(dt)
    }
}

impl fmt::Display for Datetime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_iso8601())
    }
}

// Fixtures spell times of day; the simulation only ever builds midnights
// and offsets them.
#[cfg(test)]
impl Datetime {
    /// Build from a civil date and a time of day.
    pub(crate) fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        h: u32,
        m: u32,
        s: u32,
    ) -> Result<Self> {
        if h >= 24 || m >= 60 || s >= 60 {
            return Err(AtError::InvalidDatetime(format!("{h:02}:{m:02}:{s:02}")));
        }
        Ok(Datetime(
            Self::from_ymd(year, month, day)?.0 + (h * 3600 + m * 60 + s) as i64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        let d = Datetime(0).date();
        assert_eq!((d.year, d.month, d.day), (1970, 1, 1));
    }

    #[test]
    fn known_dates_roundtrip() {
        let cases = [
            (2022, 11, 17),
            (2023, 2, 28),
            (2024, 2, 29), // leap day
            (2024, 4, 24),
            (2000, 1, 1),
            (1970, 1, 1),
            (1969, 12, 31),
            (1185, 6, 1),
            (1776, 7, 4),
        ];
        for (y, m, d) in cases {
            let days = days_from_civil(y, m, d);
            let back = civil_from_days(days);
            assert_eq!((back.year, back.month, back.day), (y, m, d));
        }
    }

    #[test]
    fn known_day_numbers() {
        // 2024-01-01 is 19723 days after epoch.
        assert_eq!(days_from_civil(2024, 1, 1), 19_723);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }

    #[test]
    fn iso8601_roundtrip() {
        let dt = Datetime::from_ymd_hms(2024, 4, 24, 13, 5, 9).unwrap();
        assert_eq!(dt.to_iso8601(), "2024-04-24T13:05:09Z");
        assert_eq!(Datetime::parse_iso8601("2024-04-24T13:05:09Z").unwrap(), dt);
        assert_eq!(
            Datetime::parse_iso8601("2024-04-24").unwrap(),
            Datetime::from_ymd(2024, 4, 24).unwrap()
        );
    }

    #[test]
    fn iso8601_len_matches_the_rendering() {
        for secs in [
            0,
            -1,
            1_714_000_000,
            253_402_300_799,  // 9999-12-31T23:59:59Z
            253_402_300_800,  // year 10000
            -62_167_219_200,  // year 0
            -62_167_219_201,  // year -1
            -400_000_000_000, // a five-character negative year
        ] {
            let dt = Datetime(secs);
            let date = dt.date();
            let sod = dt.seconds_of_day();
            let formatted = format!(
                "{}T{:02}:{:02}:{:02}Z",
                date,
                sod / 3600,
                (sod % 3600) / 60,
                sod % 60
            );
            assert_eq!(dt.to_iso8601(), formatted);
            assert_eq!(dt.string_len(), formatted.len(), "{formatted}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Datetime::parse_iso8601("not a date").is_err());
        assert!(Datetime::parse_iso8601("2024-13-01").is_err());
        assert!(Datetime::parse_iso8601("2024-01-00").is_err());
        assert!(Datetime::parse_iso8601("2024-01-01T25:00:00Z").is_err());
    }

    #[test]
    fn day_and_month_helpers() {
        let launch = Datetime::from_ymd(2022, 11, 17).unwrap();
        let public = Datetime::from_ymd(2024, 2, 6).unwrap();
        assert!(public.days_since(launch) > 400);
        assert_eq!(launch.date().year_month(), "2022-11");
        assert_eq!(launch.plus_days(1).days_since(launch), 1);
        // One number per month, whatever the day or the year's width.
        let month = |at: Datetime| at.date().month_number();
        assert_eq!(month(launch), month(launch.plus_days(13)));
        assert_eq!(month(launch) + 1, month(launch.plus_days(14)));
        assert_eq!(month(public) - month(launch), 15);
        let far = |year| Datetime::from_ymd(year, 12, 1).unwrap();
        assert_ne!(month(far(i32::MAX)), month(far(i32::MIN + 1)));
    }

    #[test]
    fn negative_times_floor_correctly() {
        let before_epoch = Datetime(-1);
        assert_eq!(before_epoch.day_index(), -1);
        assert_eq!(before_epoch.seconds_of_day(), SECONDS_PER_DAY - 1);
        let d = before_epoch.date();
        assert_eq!((d.year, d.month, d.day), (1969, 12, 31));
    }

    #[test]
    fn civil_date_validation() {
        assert!(CivilDate::new(2024, 0, 1).is_err());
        assert!(CivilDate::new(2024, 13, 1).is_err());
        assert!(CivilDate::new(2024, 1, 0).is_err());
        assert!(CivilDate::new(2024, 1, 32).is_err());
        assert!(CivilDate::new(2024, 12, 31).is_ok());
    }

    #[test]
    fn exhaustive_roundtrip_over_study_period() {
        // Every day from 2022-01-01 to 2025-01-01 survives the roundtrip.
        let start = days_from_civil(2022, 1, 1);
        let end = days_from_civil(2025, 1, 1);
        for z in start..=end {
            let c = civil_from_days(z);
            assert_eq!(days_from_civil(c.year, c.month, c.day), z);
        }
    }
}
