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
//! Two views of a frame exist and are deliberately distinct:
//!
//! 1. **Canonical accounting** ([`PaddingPolicy::frame_wire_size`]): the
//!    observer-independent size of a frame carrying events whose canonical
//!    sizes ([`crate::firehose::Event::wire_size`]) sum to `payload`. This is
//!    a pure function of the frame content, so a sharded run accounts the
//!    same bytes as a serial one. All study numbers use this view.
//! 2. **Physical encoding** ([`encode_frame`] / [`decode_frame`]): an actual
//!    byte layout (`[u32 count][u32 len ++ event bytes]* ++ zero padding`)
//!    proving the mitigations touch only the wire, never the content — the
//!    property tests decode padded/batched streams back to the original
//!    event sequence. Physical lengths use the events' real encodings
//!    (variable-width sequence numbers), so they can differ from the
//!    canonical accounting by a few bytes per frame; equivalence of
//!    *content*, not of the two length views, is the invariant.

use crate::error::{AtError, Result};
use crate::firehose::Event;

/// Bytes of frame-level header in the canonical accounting (length prefix,
/// frame type tag and count).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Bytes of per-event header inside a frame in the canonical accounting
/// (length prefix of the embedded event).
pub const EVENT_HEADER_BYTES: usize = 4;

/// Bucket width for [`PaddingPolicy::Buckets`].
pub const PAD_BUCKET_BYTES: usize = 128;

/// Cell size for [`PaddingPolicy::Constant`]; frames larger than one cell
/// occupy an integral number of cells.
pub const PAD_CONSTANT_BYTES: usize = 4096;

/// Size-channel mitigation: how a frame's length is padded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PaddingPolicy {
    /// No padding: the frame occupies exactly its content length.
    #[default]
    None,
    /// Pad up to the next multiple of [`PAD_BUCKET_BYTES`] (128 B), the
    /// block-padding recommendation of RFC 8467 applied to frames.
    Buckets,
    /// Pad up to [`PAD_CONSTANT_BYTES`] (4096 B); oversized frames occupy
    /// the next integral number of constant-size cells.
    Constant,
}

impl PaddingPolicy {
    /// Wire length of a frame whose content is `len` bytes.
    pub fn padded_len(&self, len: usize) -> usize {
        match self {
            PaddingPolicy::None => len,
            PaddingPolicy::Buckets => len.div_ceil(PAD_BUCKET_BYTES).max(1) * PAD_BUCKET_BYTES,
            PaddingPolicy::Constant => len.div_ceil(PAD_CONSTANT_BYTES).max(1) * PAD_CONSTANT_BYTES,
        }
    }

    /// Canonical wire size of one frame carrying `events` events whose
    /// canonical sizes ([`Event::wire_size`]) sum to `payload` bytes.
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

    /// The CLI spelling of this policy.
    pub fn name(&self) -> &'static str {
        match self {
            PaddingPolicy::None => "none",
            PaddingPolicy::Buckets => "buckets",
            PaddingPolicy::Constant => "constant",
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

    /// Whether batching is enabled.
    pub fn is_active(&self) -> bool {
        self.window_secs > 0
    }

    /// The window index a Unix timestamp falls into. Only meaningful when
    /// [`Self::is_active`].
    pub fn window_of(&self, timestamp: i64) -> i64 {
        timestamp.div_euclid(self.window_secs as i64)
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
    /// The unmitigated wire (no padding, no batching).
    pub fn none() -> FramingPolicy {
        FramingPolicy::default()
    }

    /// Construct from the two knobs.
    pub fn new(padding: PaddingPolicy, batch_window_secs: u64) -> FramingPolicy {
        FramingPolicy {
            padding,
            batch: BatchPolicy::window(batch_window_secs),
        }
    }

    /// Whether this policy changes anything relative to the unmitigated
    /// wire's accounting. (Even [`FramingPolicy::none`] accounts frame and
    /// event headers; "active" means padding or batching is switched on.)
    pub fn is_mitigating(&self) -> bool {
        self.padding != PaddingPolicy::None || self.batch.is_active()
    }
}

/// Encode a batch of events into one physical frame: `[u32 count]` then
/// `[u32 len][event bytes]` per event, zero-padded to the policy's wire
/// length. Big-endian lengths.
pub fn encode_frame(events: &[Event], padding: PaddingPolicy) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(events.len() as u32).to_be_bytes());
    for event in events {
        let bytes = event.encode();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    // The physical header is 4 bytes (count); pad the remaining canonical
    // header width so the padded physical length tracks the accounting.
    out.resize(padding.padded_len(out.len()), 0);
    out
}

/// Decode a physical frame produced by [`encode_frame`] back into its event
/// sequence. Trailing padding (zero bytes beyond the last event) is ignored;
/// truncated or malformed frames are an error, never silently skipped.
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<Event>> {
    let take = |at: usize| -> Result<u32> {
        let slice = bytes
            .get(at..at + 4)
            .ok_or_else(|| AtError::CborDecode("frame truncated".into()))?;
        Ok(u32::from_be_bytes(slice.try_into().expect("4-byte slice")))
    };
    let count = take(0)? as usize;
    let mut at = 4usize;
    // `count` is straight off the wire: reserve no more than the bytes left
    // can hold (every event costs at least its 4-byte length prefix).
    let mut events = Vec::with_capacity(count.min(bytes.len() / 4));
    for _ in 0..count {
        let len = take(at)? as usize;
        at += 4;
        let body = bytes
            .get(at..at + len)
            .ok_or_else(|| AtError::CborDecode("frame event truncated".into()))?;
        events.push(Event::decode(body)?);
        at += len;
    }
    if bytes[at..].iter().any(|&b| b != 0) {
        return Err(AtError::CborDecode(
            "frame trailer carries non-padding bytes".into(),
        ));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cid::Cid;
    use crate::datetime::Datetime;
    use crate::did::Did;
    use crate::firehose::EventBody;
    use crate::handle::Handle;
    use crate::repo::{RecordOp, WriteAction};
    use crate::testrand::TestRng;
    use crate::tid::Tid;

    fn event(rng: &mut TestRng, seq: u64) -> Event {
        let did = Did::plc_from_seed(&rng.next_u64().to_be_bytes());
        let time = Datetime::from_ymd(2024, 2, 15)
            .unwrap()
            .plus_seconds(rng.below(1_000_000) as i64);
        let body = match rng.below(4) {
            0 => EventBody::Commit {
                did,
                commit: Cid::for_cbor(&rng.next_u64().to_be_bytes()),
                rev: Tid::from_micros(rng.below(1 << 40), 1),
                ops: (0..rng.below(4))
                    .map(|i| RecordOp {
                        action: WriteAction::Create,
                        key: format!("app.bsky.feed.post/3k{}x{i}", rng.lowercase(4, 10)),
                        cid: Some(Cid::for_cbor(&rng.next_u64().to_be_bytes())),
                    })
                    .collect(),
                blocks_bytes: rng.below(4096) as usize,
                too_big: false,
            },
            1 => EventBody::Identity { did },
            2 => EventBody::HandleChange {
                did,
                handle: Handle::parse(&format!("{}.bsky.social", rng.lowercase(4, 12))).unwrap(),
            },
            _ => EventBody::Tombstone { did },
        };
        Event { seq, time, body }
    }

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
        for policy in [
            PaddingPolicy::None,
            PaddingPolicy::Buckets,
            PaddingPolicy::Constant,
        ] {
            assert_eq!(PaddingPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(PaddingPolicy::parse("bogus"), Option::None);
    }

    #[test]
    fn batch_windows_partition_the_clock() {
        let batch = BatchPolicy::window(60);
        assert!(batch.is_active());
        assert_eq!(batch.window_of(0), 0);
        assert_eq!(batch.window_of(59), 0);
        assert_eq!(batch.window_of(60), 1);
        assert_eq!(batch.flush_at(0), 60);
        assert_eq!(batch.flush_at(1), 120);
        assert!(!BatchPolicy::window(0).is_active());
    }

    #[test]
    fn framed_streams_decode_to_the_same_event_sequence() {
        // The property the mitigations must preserve: for any event
        // sequence and any (padding, batch-size) cell, chunking the
        // sequence into frames, padding them and decoding them back yields
        // exactly the original events. Mitigations touch the wire, never
        // the content.
        let mut rng = TestRng::new(0x0b5e_70f1);
        for _ in 0..25 {
            let events: Vec<Event> = (0..1 + rng.below(20))
                .map(|seq| event(&mut rng, seq))
                .collect();
            for padding in [
                PaddingPolicy::None,
                PaddingPolicy::Buckets,
                PaddingPolicy::Constant,
            ] {
                let batch = 1 + rng.below(7) as usize;
                let mut decoded = Vec::new();
                for chunk in events.chunks(batch) {
                    let frame = encode_frame(chunk, padding);
                    assert_eq!(frame.len(), padding.padded_len(frame.len()));
                    decoded.extend(decode_frame(&frame).unwrap());
                }
                assert_eq!(decoded, events, "{padding:?} batch={batch}");
            }
        }
    }

    #[test]
    fn decode_rejects_corrupted_frames() {
        let mut rng = TestRng::new(7);
        let events = vec![event(&mut rng, 1), event(&mut rng, 2)];
        let frame = encode_frame(&events, PaddingPolicy::Buckets);
        // Truncation inside an event.
        assert!(decode_frame(&frame[..10]).is_err());
        // A flipped byte in the padding region is not padding any more.
        let mut tampered = frame.clone();
        *tampered.last_mut().unwrap() = 0xff;
        assert!(decode_frame(&tampered).is_err());
        // Count pointing past the end.
        let mut overcount = frame.clone();
        overcount[3] = 0xff;
        assert!(decode_frame(&overcount).is_err());
        // A count of u32::MAX and nothing else: an error, not a 512 GiB
        // reservation that aborts the process.
        assert!(decode_frame(&[0xff, 0xff, 0xff, 0xff]).is_err());
        assert!(decode_frame(&[]).is_err());
    }
}
