//! Passive wire-level traffic observation.
//!
//! The §10 traffic observatory models an on-path adversary: someone who sees
//! *when* frames cross a connection and *how large* they are, but nothing of
//! their content. [`WireObserver`] is that tap — services that own a wire
//! (the relay's firehose, the identity-resolution client) record each
//! outbound frame's `(time, size)` pair into a per-connection trace, and the
//! study producer drains the tap at day boundaries.
//!
//! Traces are bounded: a connection records at most `TRACE_CAPACITY`
//! frames between drains; anything beyond is **counted** in
//! [`ConnTrace::dropped`], never silently discarded, so downstream analyzers
//! can surface the loss instead of mistaking a truncated trace for a quiet
//! connection.

use std::collections::BTreeMap;

/// Maximum `(time, size)` pairs retained per connection between drains.
/// Overflow is counted in [`ConnTrace::dropped`].
pub(crate) const TRACE_CAPACITY: usize = 4096;

/// The `(time, size)` sequence one connection produced since the last drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnTrace {
    /// Observed frames as `(unix seconds, wire bytes)`, in record order.
    pub frames: Vec<(i64, u64)>,
    /// Frames that arrived after the trace filled; counted, not kept.
    pub dropped: u64,
}

impl ConnTrace {
    /// Record one frame, counting instead of storing once full.
    pub(crate) fn record(&mut self, time: i64, bytes: u64) {
        if self.frames.len() < TRACE_CAPACITY {
            self.frames.push((time, bytes));
        } else {
            self.dropped += 1;
        }
    }
}

/// A passive per-connection `(size, gap)` tap.
///
/// Connections are keyed by an opaque string chosen by the owning service
/// (the relay keys firehose traffic by the subject DID). Keys iterate in
/// `BTreeMap` order so draining is deterministic.
#[derive(Debug, Clone, Default)]
pub struct WireObserver {
    traces: BTreeMap<String, ConnTrace>,
}

impl WireObserver {
    /// An empty observer.
    pub fn new() -> WireObserver {
        WireObserver::default()
    }

    /// Record one frame on connection `conn`.
    pub fn record(&mut self, conn: &str, time: i64, bytes: u64) {
        if let Some(trace) = self.traces.get_mut(conn) {
            trace.record(time, bytes);
        } else {
            let mut trace = ConnTrace::default();
            trace.record(time, bytes);
            self.traces.insert(conn.to_string(), trace);
        }
    }

    /// Take every trace accumulated since the last drain, leaving the
    /// observer empty. Returned in deterministic (key-sorted) order.
    pub fn drain(&mut self) -> BTreeMap<String, ConnTrace> {
        std::mem::take(&mut self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_connection_in_order() {
        let mut tap = WireObserver::new();
        tap.record("did:plc:a", 10, 100);
        tap.record("did:plc:b", 11, 50);
        tap.record("did:plc:a", 12, 200);
        assert_eq!(tap.traces.len(), 2);
        let traces = tap.drain();
        assert_eq!(traces["did:plc:a"].frames, vec![(10, 100), (12, 200)]);
        assert_eq!(traces["did:plc:b"].frames, vec![(11, 50)]);
        assert_eq!(traces["did:plc:a"].dropped, 0);
    }

    #[test]
    fn drain_resets_the_tap() {
        let mut tap = WireObserver::new();
        tap.record("c", 1, 1);
        assert_eq!(tap.drain().len(), 1);
        assert!(tap.traces.is_empty());
        assert!(tap.drain().is_empty());
    }

    #[test]
    fn overflow_is_counted_never_silent() {
        let mut trace = ConnTrace::default();
        for i in 0..(TRACE_CAPACITY + 5) {
            trace.record(i as i64, 1);
        }
        assert_eq!(trace.frames.len(), TRACE_CAPACITY);
        assert_eq!(trace.dropped, 5);
        // Draining starts a fresh bounded window.
        let mut tap = WireObserver::new();
        for i in 0..(TRACE_CAPACITY + 1) {
            tap.record("c", i as i64, 1);
        }
        assert_eq!(tap.drain()["c"].dropped, 1);
        tap.record("c", 0, 1);
        assert_eq!(tap.drain()["c"].dropped, 0);
    }
}
