//! Timestamp identifiers (TIDs).
//!
//! Record keys in ATProto repositories are TIDs: 13 characters of
//! base32-sortable encoding over a 64-bit value composed of a microsecond
//! timestamp and a per-writer clock identifier. TIDs sort lexicographically
//! in time order, which the repository (MST) layer and the paper's timestamp
//! analyses ("2,202 Feed Generator posts have timestamps predating Bluesky's
//! launch") both rely on.

use crate::datetime::Datetime;
use crate::error::{AtError, Result};
use std::fmt;

/// Base32-sortable alphabet used by TIDs.
const TID_ALPHABET: &[u8; 32] = b"234567abcdefghijklmnopqrstuvwxyz";
/// Number of characters in a TID.
pub(crate) const TID_LEN: usize = 13;

/// A timestamp identifier / record key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid(u64);

impl Tid {
    /// Construct a TID from a timestamp (microseconds since the epoch) and a
    /// 10-bit clock identifier that disambiguates concurrent writers.
    pub fn from_micros(micros: u64, clock_id: u16) -> Tid {
        // Top bit must remain 0 so the first character stays in range.
        let ts = micros & ((1 << 53) - 1);
        Tid((ts << 10) | (clock_id as u64 & 0x3ff))
    }

    /// The 13 base32-sortable characters, on the stack.
    fn to_array(self) -> [u8; TID_LEN] {
        let mut out = [0u8; TID_LEN];
        let mut v = self.0;
        for slot in out.iter_mut().rev() {
            *slot = TID_ALPHABET[(v & 0x1f) as usize];
            v >>= 5;
        }
        out
    }

    /// Render as a 13-character base32-sortable string, e.g. `3kdgeujwlq32y`.
    pub fn to_string_form(&self) -> String {
        String::from_utf8(self.to_array().to_vec()).expect("alphabet is ascii")
    }

    /// Length in bytes of the string form.
    pub(crate) fn string_len(&self) -> usize {
        TID_LEN
    }

    /// Append the string form to `out` ([`Self::string_len`] bytes).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_array());
    }

    /// Parse the string form.
    pub fn parse(s: &str) -> Result<Tid> {
        if s.len() != TID_LEN {
            return Err(AtError::InvalidTid(s.to_string()));
        }
        let mut v: u64 = 0;
        for c in s.bytes() {
            let idx = TID_ALPHABET
                .iter()
                .position(|&a| a == c)
                .ok_or_else(|| AtError::InvalidTid(s.to_string()))? as u64;
            v = (v << 5) | idx;
        }
        Ok(Tid(v))
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_form())
    }
}

impl fmt::Debug for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tid({})", self.to_string_form())
    }
}

impl std::str::FromStr for Tid {
    type Err = AtError;
    fn from_str(s: &str) -> Result<Tid> {
        Tid::parse(s)
    }
}

/// A monotonic TID generator for a single writer (PDS or account).
///
/// Real PDS implementations guarantee strictly increasing TIDs even when the
/// clock stalls; this clocker reproduces that behaviour.
#[derive(Debug, Clone)]
pub(crate) struct TidClock {
    clock_id: u16,
    last_micros: u64,
}

impl TidClock {
    /// Create a clock with the given 10-bit writer identifier.
    pub(crate) fn new(clock_id: u16) -> TidClock {
        TidClock {
            clock_id: clock_id & 0x3ff,
            last_micros: 0,
        }
    }

    /// Produce the next TID at or after the given instant.
    pub(crate) fn next(&mut self, now: Datetime) -> Tid {
        let mut micros = now.timestamp().max(0) as u64 * 1_000_000;
        if micros <= self.last_micros {
            micros = self.last_micros + 1;
        }
        self.last_micros = micros;
        Tid::from_micros(micros, self.clock_id)
    }
}

// Nothing reads a TID's clock back; the tests check it.
#[cfg(test)]
impl Tid {
    /// The embedded timestamp in microseconds since the epoch.
    pub(crate) fn timestamp_micros(&self) -> u64 {
        self.0 >> 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_form_is_13_chars_and_roundtrips() {
        let tid = Tid::from_micros(1_713_916_800_000_000, 42);
        let s = tid.to_string_form();
        assert_eq!(s.len(), TID_LEN);
        assert_eq!(Tid::parse(&s).unwrap(), tid);
        assert_eq!(tid.0 & 0x3ff, 42);
        assert_eq!(tid.timestamp_micros(), 1_713_916_800_000_000);
    }

    #[test]
    fn parses_paper_example_shape() {
        // The paper's example record key.
        let tid = Tid::parse("3kdgeujwlq32y").unwrap();
        assert!(tid.timestamp_micros() > 0);
        assert_eq!(tid.to_string_form(), "3kdgeujwlq32y");
    }

    #[test]
    fn lexicographic_order_matches_time_order() {
        let micros = |y, m, d| Datetime::from_ymd(y, m, d).unwrap().timestamp() as u64 * 1_000_000;
        let a = Tid::from_micros(micros(2023, 5, 1), 1);
        let b = Tid::from_micros(micros(2023, 5, 1) + 5, 1);
        let c = Tid::from_micros(micros(2024, 2, 6), 1);
        assert!(a.to_string_form() < b.to_string_form());
        assert!(b.to_string_form() < c.to_string_form());
        assert!(a < b && b < c);
    }

    #[test]
    fn clock_is_strictly_monotonic() {
        let mut clock = TidClock::new(7);
        let now = Datetime::from_ymd(2024, 4, 24).unwrap();
        let mut prev = clock.next(now);
        for _ in 0..1000 {
            let next = clock.next(now); // same wall-clock instant
            assert!(next > prev);
            assert!(next.to_string_form() > prev.to_string_form());
            prev = next;
        }
    }

    #[test]
    fn rejects_invalid_strings() {
        assert!(Tid::parse("short").is_err());
        assert!(Tid::parse("0000000000000").is_err()); // '0' not in alphabet
        assert!(Tid::parse("3kdgeujwlq32y9").is_err()); // too long
        assert!(Tid::parse("").is_err());
    }

    #[test]
    fn datetime_extraction() {
        let dt = Datetime::from_ymd_hms(2024, 4, 24, 10, 30, 0).unwrap();
        let tid = TidClock::new(5).next(dt);
        assert_eq!(tid.timestamp_micros() / 1_000_000, dt.timestamp() as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn roundtrip_any_value() {
        let mut rng = TestRng::new(0x71d);
        for _ in 0..300 {
            let micros = rng.below(1u64 << 53);
            let clock = rng.below(1024) as u16;
            let tid = Tid::from_micros(micros, clock);
            assert_eq!(Tid::parse(&tid.to_string_form()).unwrap(), tid);
            assert_eq!(tid.timestamp_micros(), micros);
            assert_eq!((tid.0 & 0x3ff) as u16, clock);
        }
    }

    #[test]
    fn ordering_is_preserved() {
        let mut rng = TestRng::new(0x71d2);
        for _ in 0..300 {
            let a = rng.below(1u64 << 53);
            let b = rng.below(1u64 << 53);
            let ta = Tid::from_micros(a, 0);
            let tb = Tid::from_micros(b, 0);
            assert_eq!(a.cmp(&b), ta.to_string_form().cmp(&tb.to_string_form()));
        }
    }
}
