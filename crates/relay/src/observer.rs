//! Passive wire-level traffic observation.
//!
//! The §10 traffic observatory models an on-path adversary: someone who sees
//! *when* frames cross a connection and *how large* they are, but nothing of
//! their content. `WireObserver` is that tap — the relay records each
//! outbound firehose frame's `(time, size)` pair into a per-connection
//! trace, and the study producer drains the tap at day boundaries.
//!
//! Traces are bounded: a connection records at most `TRACE_CAPACITY`
//! frames between drains; anything beyond is **counted** in
//! [`ConnTrace::dropped`], never silently discarded, so downstream analyzers
//! can surface the loss instead of mistaking a truncated trace for a quiet
//! connection.

use bsky_atproto::Did;
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
/// The relay keys firehose traffic by the subject DID, one connection per
/// DID. Keys iterate in `BTreeMap` order so draining is deterministic.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireObserver {
    traces: BTreeMap<Did, ConnTrace>,
}

impl WireObserver {
    /// An empty observer.
    pub(crate) fn new() -> WireObserver {
        WireObserver::default()
    }

    /// Record one frame on connection `conn`.
    pub(crate) fn record(&mut self, conn: Did, time: i64, bytes: u64) {
        self.traces.entry(conn).or_default().record(time, bytes);
    }

    /// Take every trace accumulated since the last drain, leaving the
    /// observer empty. Returned in deterministic (key-sorted) order.
    pub(crate) fn drain(&mut self) -> BTreeMap<Did, ConnTrace> {
        std::mem::take(&mut self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(seed: &str) -> Did {
        Did::plc_from_seed(seed.as_bytes())
    }

    #[test]
    fn records_per_connection_in_order() {
        let (a, b) = (conn("a"), conn("b"));
        let mut tap = WireObserver::new();
        tap.record(a.clone(), 10, 100);
        tap.record(b.clone(), 11, 50);
        tap.record(a.clone(), 12, 200);
        assert_eq!(tap.traces.len(), 2);
        let traces = tap.drain();
        assert_eq!(traces[&a].frames, vec![(10, 100), (12, 200)]);
        assert_eq!(traces[&b].frames, vec![(11, 50)]);
        assert_eq!(traces[&a].dropped, 0);
    }

    #[test]
    fn drain_resets_the_tap() {
        let mut tap = WireObserver::new();
        tap.record(conn("c"), 1, 1);
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
        let c = conn("c");
        let mut tap = WireObserver::new();
        for i in 0..(TRACE_CAPACITY + 1) {
            tap.record(c.clone(), i as i64, 1);
        }
        assert_eq!(tap.drain()[&c].dropped, 1);
        tap.record(c.clone(), 0, 1);
        assert_eq!(tap.drain()[&c].dropped, 0);
    }
}
