//! Calendar time for certificate validity fields.
//!
//! chain-chaos never reads the ambient clock: all validity decisions are
//! made against an explicit [`Time`] supplied by the caller (the simulated
//! "now"), which keeps experiments reproducible.

use crate::{Error, Result};
use std::fmt;

/// A UTC calendar timestamp with second resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Time {
    /// Seconds since the Unix epoch (may be negative for pre-1970).
    epoch_seconds: i64,
}

/// Broken-down UTC date/time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DateTime {
    /// Full year, e.g. 2024.
    pub year: i32,
    /// Month 1..=12.
    pub month: u8,
    /// Day 1..=31.
    pub day: u8,
    /// Hour 0..=23.
    pub hour: u8,
    /// Minute 0..=59.
    pub minute: u8,
    /// Second 0..=59 (leap seconds not modeled).
    pub second: u8,
}

impl Time {
    /// From raw Unix epoch seconds.
    pub const fn from_unix(epoch_seconds: i64) -> Time {
        Time { epoch_seconds }
    }

    /// Unix epoch seconds.
    pub const fn unix(self) -> i64 {
        self.epoch_seconds
    }

    /// Build from a UTC calendar date. Returns `None` for invalid dates.
    pub fn from_ymd_hms(
        year: i32,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
        second: u8,
    ) -> Option<Time> {
        if !(1..=12).contains(&month)
            || day == 0
            || day > days_in_month(year, month)
            || hour > 23
            || minute > 59
            || second > 59
        {
            return None;
        }
        let days = days_from_civil(year, month, day);
        Some(Time {
            epoch_seconds: days * 86_400 + hour as i64 * 3600 + minute as i64 * 60 + second as i64,
        })
    }

    /// Convenience: midnight on a date.
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Option<Time> {
        Time::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Break down into calendar fields.
    pub fn to_datetime(self) -> DateTime {
        let days = self.epoch_seconds.div_euclid(86_400);
        let secs = self.epoch_seconds.rem_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        DateTime {
            year,
            month,
            day,
            hour: (secs / 3600) as u8,
            minute: (secs % 3600 / 60) as u8,
            second: (secs % 60) as u8,
        }
    }

    /// Add a duration in seconds.
    pub fn plus_seconds(self, secs: i64) -> Time {
        Time {
            epoch_seconds: self.epoch_seconds + secs,
        }
    }

    /// Add whole days.
    pub fn plus_days(self, days: i64) -> Time {
        self.plus_seconds(days * 86_400)
    }

    /// Decode UTCTime content octets (YYMMDDHHMMSSZ).
    pub fn decode_utc_time(content: &[u8]) -> Result<Time> {
        let d: [i64; 12] = parse_digits(content, "UTCTime must be YYMMDDHHMMSSZ")?;
        let yy = d[0] * 10 + d[1];
        // RFC 5280: 00..=49 → 20xx, 50..=99 → 19xx.
        let year = if yy <= 49 { 2000 + yy } else { 1900 + yy };
        build_time(year as i32, &d[2..])
    }

    /// Decode GeneralizedTime content octets (YYYYMMDDHHMMSSZ).
    pub fn decode_generalized_time(content: &[u8]) -> Result<Time> {
        let d: [i64; 14] = parse_digits(content, "GeneralizedTime must be YYYYMMDDHHMMSSZ")?;
        let year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3];
        build_time(year as i32, &d[4..])
    }
}

/// The `N` digits of a time's content octets, which must be exactly those
/// digits and a trailing `Z`; `shape` names the form when they are not.
fn parse_digits<const N: usize>(content: &[u8], shape: &'static str) -> Result<[i64; N]> {
    if content.len() != N + 1 || content[N] != b'Z' {
        return Err(Error::InvalidValue(shape));
    }
    let mut digits = [0; N];
    for (digit, &b) in digits.iter_mut().zip(content) {
        if !b.is_ascii_digit() {
            return Err(Error::InvalidValue("non-digit in time"));
        }
        *digit = i64::from(b - b'0');
    }
    Ok(digits)
}

fn build_time(year: i32, rest: &[i64]) -> Result<Time> {
    let month = (rest[0] * 10 + rest[1]) as u8;
    let day = (rest[2] * 10 + rest[3]) as u8;
    let hour = (rest[4] * 10 + rest[5]) as u8;
    let minute = (rest[6] * 10 + rest[7]) as u8;
    let second = (rest[8] * 10 + rest[9]) as u8;
    Time::from_ymd_hms(year, month, day, hour, minute, second)
        .ok_or(Error::InvalidValue("invalid calendar date in time"))
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 from a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = m as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (inverse of `days_from_civil`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dt = self.to_datetime();
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoder, Parser, Tag};

    #[test]
    fn epoch_is_1970() {
        let t = Time::from_unix(0);
        let dt = t.to_datetime();
        assert_eq!((dt.year, dt.month, dt.day), (1970, 1, 1));
        assert_eq!((dt.hour, dt.minute, dt.second), (0, 0, 0));
    }

    #[test]
    fn roundtrip_many_dates() {
        for &(y, m, d, h, mi, s) in &[
            (1970, 1, 1, 0, 0, 0),
            (2000, 2, 29, 12, 30, 45),
            (2024, 3, 15, 23, 59, 59),
            (1999, 12, 31, 0, 0, 1),
            (2049, 12, 31, 23, 59, 59),
            (2050, 1, 1, 0, 0, 0),
            (1950, 1, 1, 0, 0, 0),
            (1949, 12, 31, 12, 0, 0),
            (2100, 6, 15, 6, 6, 6),
        ] {
            let t = Time::from_ymd_hms(y, m, d, h, mi, s).unwrap();
            let dt = t.to_datetime();
            assert_eq!(
                (dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second),
                (y, m, d, h, mi, s)
            );
        }
    }

    #[test]
    fn invalid_dates_rejected() {
        assert!(Time::from_ymd(2023, 2, 29).is_none());
        assert!(Time::from_ymd(2023, 13, 1).is_none());
        assert!(Time::from_ymd(2023, 0, 1).is_none());
        assert!(Time::from_ymd(2023, 4, 31).is_none());
        assert!(Time::from_ymd_hms(2023, 1, 1, 24, 0, 0).is_none());
    }

    fn encode(t: Time) -> Vec<u8> {
        let mut e = Encoder::new();
        e.time(t);
        e.finish()
    }

    #[test]
    fn utc_vs_generalized_selection() {
        let der = encode(Time::from_ymd(2024, 3, 15).unwrap());
        assert_eq!(der[..2], [Tag::UTC_TIME.to_byte(), 13]);
        assert_eq!(&der[2..], b"240315000000Z");
        let der = encode(Time::from_ymd(2050, 1, 1).unwrap());
        assert_eq!(der[..2], [Tag::GENERALIZED_TIME.to_byte(), 15]);
        assert_eq!(&der[2..], b"20500101000000Z");
    }

    #[test]
    fn decode_utc_time_century_rule() {
        let t = Time::decode_utc_time(b"490101000000Z").unwrap();
        assert_eq!(t.to_datetime().year, 2049);
        let t = Time::decode_utc_time(b"500101000000Z").unwrap();
        assert_eq!(t.to_datetime().year, 1950);
    }

    #[test]
    fn decode_rejects_malformed() {
        let invalid = |what| Err(Error::InvalidValue(what));
        let utc = invalid("UTCTime must be YYMMDDHHMMSSZ");
        assert_eq!(Time::decode_utc_time(b"240315"), utc);
        assert_eq!(Time::decode_utc_time(b"2403150000000"), utc);
        assert_eq!(Time::decode_utc_time(b"240315000000ZZ"), utc);
        let digit = invalid("non-digit in time");
        assert_eq!(Time::decode_utc_time(b"24031500000xZ"), digit);
        let date = invalid("invalid calendar date in time");
        assert_eq!(Time::decode_utc_time(b"241315000000Z"), date); // month 13
        let generalized = invalid("GeneralizedTime must be YYYYMMDDHHMMSSZ");
        assert_eq!(
            Time::decode_generalized_time(b"20240315000000"),
            generalized
        );
        assert_eq!(Time::decode_generalized_time(b"2024031500000+Z"), digit);
        assert_eq!(Time::decode_generalized_time(b"20240230000000Z"), date); // Feb 30
    }

    #[test]
    fn encode_decode_roundtrip() {
        for t in [
            Time::from_ymd_hms(2031, 7, 4, 1, 2, 3).unwrap(),
            Time::from_ymd_hms(2055, 7, 4, 1, 2, 3).unwrap(),
        ] {
            assert_eq!(Parser::new(&encode(t)).time().unwrap(), t);
        }
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ymd(2024, 1, 1).unwrap();
        assert_eq!(t.plus_days(31), Time::from_ymd(2024, 2, 1).unwrap());
        assert_eq!(t.plus_seconds(-1).to_datetime().year, 2023);
    }

    #[test]
    fn ordering_matches_chronology() {
        let a = Time::from_ymd(2020, 1, 1).unwrap();
        let b = Time::from_ymd(2021, 1, 1).unwrap();
        assert!(a < b);
    }
}
