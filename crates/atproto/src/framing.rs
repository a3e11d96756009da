//! Wire framing mitigations: padding and batching for firehose frames.
//!
//! The traffic-observatory study (§10) asks what a *passive* on-path
//! observer learns from `(size, inter-arrival gap)` sequences alone, and at
//! what bandwidth cost the classic countermeasures defeat it. This module is
//! the mitigation layer: it defines the knobs and the canonical accounting
//! used everywhere the workspace talks about framed wire bytes.
//!
//! * [`PaddingPolicy`] — pad each frame up to a size bucket (`None`,
//!   128-byte `Buckets`, or a 4096-byte `Constant` cell), the standard
//!   size-channel countermeasures from the encrypted-DNS literature
//!   ("Padding Ain't Enough", FOCI'20).
//! * [`BatchPolicy`] — coalesce all events for a connection that fall into
//!   the same fixed time window into one frame, flushed at the window edge;
//!   a timing-channel countermeasure that also amortises per-frame headers.
//! * [`FramingPolicy`] — the (padding, batching) pair; `Default` is the
//!   unmitigated wire (no padding, no batching).
//!
//! A frame is accounted, never materialised: the observer-independent size
//! of a frame carrying events whose canonical sizes
//! ([`crate::firehose::Event::wire_size`]) sum to `payload` is
//! [`PaddingPolicy::frame_wire_size`], a pure function of the frame content,
//! so a sharded run accounts the same bytes as a serial one. All study
//! numbers use it.

/// Bytes of frame-level header in the canonical accounting (length prefix,
/// frame type tag and count).
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// Bytes of per-event header inside a frame in the canonical accounting
/// (length prefix of the embedded event).
pub(crate) const EVENT_HEADER_BYTES: usize = 4;

/// Bucket width for [`PaddingPolicy::Buckets`].
pub(crate) const PAD_BUCKET_BYTES: usize = 128;

/// Cell size for [`PaddingPolicy::Constant`]; frames larger than one cell
/// occupy an integral number of cells.
pub(crate) const PAD_CONSTANT_BYTES: usize = 4096;

/// Size-channel mitigation: how a frame's length is padded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PaddingPolicy {
    /// No padding: the frame occupies exactly its content length.
    #[default]
    None,
    /// Pad up to the next multiple of `PAD_BUCKET_BYTES` (128 B), the
    /// block-padding recommendation of RFC 8467 applied to frames.
    Buckets,
    /// Pad up to `PAD_CONSTANT_BYTES` (4096 B); oversized frames occupy
    /// the next integral number of constant-size cells.
    Constant,
}

impl PaddingPolicy {
    /// Wire length of a frame whose content is `len` bytes.
    pub(crate) fn padded_len(&self, len: usize) -> usize {
        match self {
            PaddingPolicy::None => len,
            PaddingPolicy::Buckets => len.div_ceil(PAD_BUCKET_BYTES).max(1) * PAD_BUCKET_BYTES,
            PaddingPolicy::Constant => len.div_ceil(PAD_CONSTANT_BYTES).max(1) * PAD_CONSTANT_BYTES,
        }
    }

    /// Canonical wire size of one frame carrying `events` events whose
    /// canonical sizes ([`crate::firehose::Event::wire_size`]) sum to
    /// `payload` bytes.
    ///
    /// Headers are part of the frame content (they get padded too), so even
    /// the unmitigated wire carries `FRAME_HEADER_BYTES + events *
    /// EVENT_HEADER_BYTES` bytes above the payload — which is exactly what
    /// batching reclaims.
    pub fn frame_wire_size(&self, events: usize, payload: usize) -> usize {
        self.padded_len(FRAME_HEADER_BYTES + events * EVENT_HEADER_BYTES + payload)
    }

    /// Parse a CLI spelling (`none` / `buckets` / `constant`).
    pub fn parse(s: &str) -> Option<PaddingPolicy> {
        match s {
            "none" => Some(PaddingPolicy::None),
            "buckets" => Some(PaddingPolicy::Buckets),
            "constant" => Some(PaddingPolicy::Constant),
            _ => Option::None,
        }
    }
}

/// Timing-channel mitigation: coalesce events within a fixed window into
/// one frame per connection, flushed at the window edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BatchPolicy {
    /// Window width in seconds; `0` disables batching (one frame per event,
    /// sent at the event's own time).
    pub window_secs: u64,
}

impl BatchPolicy {
    /// A batching policy with the given window width (`0` = off).
    pub fn window(window_secs: u64) -> BatchPolicy {
        BatchPolicy { window_secs }
    }

    /// The flush time (window edge) of window `window`: every event in the
    /// window leaves the host in one frame at this instant.
    pub fn flush_at(&self, window: i64) -> i64 {
        (window + 1) * self.window_secs as i64
    }
}

/// The full mitigation pair applied to a wire: padding × batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FramingPolicy {
    /// Size-channel mitigation.
    pub padding: PaddingPolicy,
    /// Timing-channel mitigation.
    pub batch: BatchPolicy,
}

impl FramingPolicy {
    /// Construct from the two knobs.
    pub fn new(padding: PaddingPolicy, batch_window_secs: u64) -> FramingPolicy {
        FramingPolicy {
            padding,
            batch: BatchPolicy::window(batch_window_secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_rounds_to_policy_boundaries() {
        assert_eq!(PaddingPolicy::None.padded_len(0), 0);
        assert_eq!(PaddingPolicy::None.padded_len(117), 117);
        assert_eq!(PaddingPolicy::Buckets.padded_len(0), 128);
        assert_eq!(PaddingPolicy::Buckets.padded_len(1), 128);
        assert_eq!(PaddingPolicy::Buckets.padded_len(128), 128);
        assert_eq!(PaddingPolicy::Buckets.padded_len(129), 256);
        assert_eq!(PaddingPolicy::Constant.padded_len(1), 4096);
        assert_eq!(PaddingPolicy::Constant.padded_len(4096), 4096);
        assert_eq!(PaddingPolicy::Constant.padded_len(4097), 8192);
    }

    #[test]
    fn frame_wire_size_always_exceeds_payload() {
        for events in 1..5usize {
            for payload in [0usize, 1, 100, 5000] {
                for padding in [
                    PaddingPolicy::None,
                    PaddingPolicy::Buckets,
                    PaddingPolicy::Constant,
                ] {
                    let wire = padding.frame_wire_size(events, payload);
                    assert!(
                        wire > payload,
                        "{padding:?} events={events} payload={payload}: wire {wire}"
                    );
                    assert!(wire >= FRAME_HEADER_BYTES + events * EVENT_HEADER_BYTES + payload);
                }
            }
        }
    }

    #[test]
    fn padding_policy_cli_names_roundtrip() {
        for (name, policy) in [
            ("none", PaddingPolicy::None),
            ("buckets", PaddingPolicy::Buckets),
            ("constant", PaddingPolicy::Constant),
        ] {
            assert_eq!(PaddingPolicy::parse(name), Some(policy));
        }
        assert_eq!(PaddingPolicy::parse("bogus"), Option::None);
    }

    #[test]
    fn batch_windows_partition_the_clock() {
        let batch = BatchPolicy::window(60);
        assert_eq!(batch.flush_at(0), 60);
        assert_eq!(batch.flush_at(1), 120);
        // A zero-width window is batching off: the unmitigated default.
        assert_eq!(BatchPolicy::window(0), BatchPolicy::default());
    }
}
