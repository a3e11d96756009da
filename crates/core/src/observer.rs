//! §10's passive wire tap on the collector's own firehose subscription:
//! per subject DID, the `(unix seconds, wire bytes)` of each in-window frame
//! read since the last day end, in read order. It sees the wire, not the
//! consumer, so it keeps frames an injected cursor gap hides from the
//! analyzers. Overflow past [`TRACE_CAPACITY`] is counted, never silent.

use bsky_atproto::Did;
use std::collections::BTreeMap;

/// Frames kept per connection between drains; overflow is counted.
pub(crate) const TRACE_CAPACITY: usize = 4096;

/// One connection's frames since the last drain, and how many it dropped.
pub(crate) type ConnTrace = (Vec<(i64, u64)>, u64);

/// The per-connection `(size, gap)` tap, drained at each day end.
#[derive(Debug, Default)]
pub(crate) struct WireTap {
    traces: BTreeMap<Did, ConnTrace>,
}

impl WireTap {
    /// Record one frame on `did`'s connection. The key is cloned only for
    /// a connection with no frame since the last drain.
    pub(crate) fn record(&mut self, did: &Did, time: i64, bytes: u64) {
        let keep = |(frames, dropped): &mut ConnTrace| {
            if frames.len() < TRACE_CAPACITY {
                frames.push((time, bytes));
            } else {
                *dropped += 1;
            }
        };
        match self.traces.get_mut(did) {
            Some(trace) => keep(trace),
            None => keep(self.traces.entry(did.clone()).or_default()),
        }
    }

    /// Take every connection's trace, in DID order, leaving the tap empty.
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
        let mut tap = WireTap::default();
        tap.record(&a, 10, 100);
        tap.record(&b, 11, 50);
        tap.record(&a, 12, 200);
        let traces = tap.drain();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[&a], (vec![(10, 100), (12, 200)], 0));
        assert_eq!(traces[&b], (vec![(11, 50)], 0));
    }

    #[test]
    fn drain_resets_the_tap() {
        let mut tap = WireTap::default();
        tap.record(&conn("c"), 1, 1);
        assert_eq!(tap.drain().len(), 1);
        assert!(tap.drain().is_empty());
    }

    #[test]
    fn overflow_is_counted_never_silent() {
        let c = conn("c");
        let mut tap = WireTap::default();
        for i in 0..(TRACE_CAPACITY + 5) {
            tap.record(&c, i as i64, 1);
        }
        let (frames, dropped) = &tap.drain()[&c];
        assert_eq!(frames.len(), TRACE_CAPACITY);
        assert_eq!(*dropped, 5);
        // Draining starts a fresh bounded day.
        tap.record(&c, 0, 1);
        assert_eq!(tap.drain()[&c], (vec![(0, 1)], 0));
    }
}
