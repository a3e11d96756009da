//! The firehose log.
//!
//! The Relay assigns a global sequence number to every event it observes and
//! republishes the stream to subscribers (§2, §3). Events are retained for a
//! bounded window (three days on the live network); consumers resume with a
//! cursor and receive an `OutdatedCursor` info frame when their cursor has
//! fallen out of the window.

use bsky_atproto::datetime::SECONDS_PER_DAY;
use bsky_atproto::firehose::{Event, EventBody, EventKind, Seq};
use bsky_atproto::Datetime;
use std::collections::BTreeMap;

/// Retention window of the firehose, in seconds (three days, §2).
pub(crate) const RETENTION_SECONDS: i64 = 3 * SECONDS_PER_DAY;

/// The sequenced, retention-bounded event log.
#[derive(Debug, Clone, Default)]
pub struct FirehoseLog {
    events: Vec<Event>,
    next_seq: Seq,
    /// Totals survive pruning so long-run statistics stay correct.
    totals_by_kind: BTreeMap<EventKind, u64>,
}

/// Result of reading from a cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Events after the cursor that are still retained, oldest first.
    pub events: Vec<Event>,
    /// True when the cursor predates the retention window (some events were
    /// missed and an `OutdatedCursor` info frame was prepended).
    pub(crate) outdated_cursor: bool,
    /// The new cursor to use for the next read.
    pub cursor: Seq,
}

impl FirehoseLog {
    /// Create an empty log. Sequence numbers start at 1.
    pub(crate) fn new() -> FirehoseLog {
        FirehoseLog {
            next_seq: 1,
            ..FirehoseLog::default()
        }
    }

    /// Append an event body, assigning the next sequence number. Returns
    /// the appended frame.
    pub(crate) fn append(&mut self, time: Datetime, body: EventBody) -> &Event {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { seq, time, body };
        *self.totals_by_kind.entry(event.kind()).or_insert(0) += 1;
        self.events.push(event);
        &self.events[self.events.len() - 1]
    }

    /// Drop events older than the retention window relative to `now`.
    /// Returns how many were pruned.
    pub(crate) fn prune(&mut self, now: Datetime) -> usize {
        let cutoff = now.timestamp() - RETENTION_SECONDS;
        let before = self.events.len();
        self.events.retain(|e| e.time.timestamp() >= cutoff);
        before - self.events.len()
    }

    /// Read events after `cursor` (0 = from the start of retention).
    pub(crate) fn read_from(&self, cursor: Seq) -> Subscription {
        let oldest_retained = self.events.first().map(|e| e.seq).unwrap_or(self.next_seq);
        let outdated = cursor + 1 < oldest_retained;
        let events: Vec<Event> = self
            .events
            .iter()
            .filter(|e| e.seq > cursor)
            .cloned()
            .collect();
        let new_cursor = events
            .last()
            .map(|e| e.seq)
            .unwrap_or(cursor.max(oldest_retained.saturating_sub(1)));
        Subscription {
            events,
            outdated_cursor: outdated,
            cursor: new_cursor,
        }
    }

    /// Lifetime total number of events.
    pub fn total_events(&self) -> u64 {
        self.totals_by_kind.values().sum()
    }

    /// Iterate retained events oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

// The per-kind split, which only the tests read (Table 1 is the study's
// own count of the frames it reads).
#[cfg(test)]
impl FirehoseLog {
    /// Lifetime totals per event kind (Table 1).
    pub(crate) fn totals_by_kind(&self) -> &BTreeMap<EventKind, u64> {
        &self.totals_by_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::Did;

    fn t(day: i64, sec: i64) -> Datetime {
        Datetime(Datetime::from_ymd(2024, 3, 6).unwrap().timestamp() + day * SECONDS_PER_DAY + sec)
    }

    fn identity_body(name: &str) -> EventBody {
        EventBody::Identity {
            did: Did::plc_from_seed(name.as_bytes()),
        }
    }

    #[test]
    fn sequence_numbers_are_dense_and_increasing() {
        let mut log = FirehoseLog::new();
        for i in 0..10 {
            let event = log.append(t(0, i), identity_body(&format!("u{i}")));
            assert_eq!(event.seq, i as u64 + 1);
        }
        assert_eq!(log.next_seq, 11);
        assert_eq!(log.total_events(), 10);
        assert_eq!(log.events.len(), 10);
    }

    #[test]
    fn cursor_reads_only_new_events() {
        let mut log = FirehoseLog::new();
        for i in 0..5 {
            log.append(t(0, i), identity_body(&format!("u{i}")));
        }
        let first = log.read_from(0);
        assert_eq!(first.events.len(), 5);
        assert!(!first.outdated_cursor);
        assert_eq!(first.cursor, 5);
        // No new events → empty read, cursor unchanged.
        let empty = log.read_from(first.cursor);
        assert!(empty.events.is_empty());
        assert_eq!(empty.cursor, 5);
        // New event appears.
        log.append(t(0, 10), identity_body("u9"));
        let next = log.read_from(first.cursor);
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.cursor, 6);
    }

    #[test]
    fn retention_prunes_but_totals_survive() {
        let mut log = FirehoseLog::new();
        for day in 0..6 {
            log.append(t(day, 0), identity_body(&format!("d{day}")));
        }
        let pruned = log.prune(t(5, 1));
        assert!(
            pruned >= 2,
            "events older than 3 days must be pruned, got {pruned}"
        );
        assert!(log.events.len() < 6);
        assert_eq!(log.total_events(), 6);
        assert_eq!(
            log.totals_by_kind().get(&EventKind::Identity).copied(),
            Some(6)
        );
    }

    #[test]
    fn outdated_cursor_detection() {
        let mut log = FirehoseLog::new();
        for day in 0..6 {
            log.append(t(day, 0), identity_body(&format!("d{day}")));
        }
        log.prune(t(5, 1));
        let sub = log.read_from(0);
        assert!(sub.outdated_cursor);
        assert!(!sub.events.is_empty());
        // A cursor at the head is never outdated.
        let head = log.read_from(log.next_seq - 1);
        assert!(!head.outdated_cursor);
        assert!(head.events.is_empty());
    }

    #[test]
    fn empty_log_reads() {
        let log = FirehoseLog::new();
        let sub = log.read_from(0);
        assert!(sub.events.is_empty());
        assert!(!sub.outdated_cursor);
        assert_eq!(log.next_seq, 1);
        assert_eq!(log.total_events(), 0);
    }
}
