//! Firehose event frames.
//!
//! The Relay's firehose (`com.atproto.sync.subscribeRepos`) is a sequenced
//! stream of everything happening in the network: repository commits,
//! identity (DID document) updates, handle changes and account tombstones
//! (§3, Table 1). Each frame carries a monotonically increasing sequence
//! number which consumers use as a cursor for resuming and backfilling.

use crate::cbor::len;
use crate::cid::Cid;
use crate::datetime::Datetime;
use crate::did::Did;
use crate::handle::Handle;
use crate::repo::RecordOp;
use crate::tid::Tid;

/// A sequence number on the firehose.
pub type Seq = u64;

/// The payload of a firehose frame.
#[derive(Debug, Clone, PartialEq)]
pub enum EventBody {
    /// `#commit` — a repository commit with its record operations.
    Commit {
        /// Repository owner.
        did: Did,
        /// Commit CID.
        commit: Cid,
        /// Revision TID.
        rev: Tid,
        /// Record operations included in the commit.
        ops: Vec<RecordOp>,
        /// Approximate size of the carried blocks in bytes.
        blocks_bytes: usize,
        /// Whether the consumer is expected to re-sync (oversized commit).
        too_big: bool,
    },
    /// `#identity` — the DID document changed (e.g. PDS migration, key
    /// rotation); consumers should purge caches.
    Identity {
        /// The affected account.
        did: Did,
    },
    /// `#handle` — the account's handle changed.
    HandleChange {
        /// The affected account.
        did: Did,
        /// The new handle.
        handle: Handle,
    },
    /// `#tombstone` — the account was deleted.
    Tombstone {
        /// The deleted account.
        did: Did,
    },
    /// `#info` — informational message from the relay (e.g. outdated cursor).
    Info {
        /// Message name, e.g. `OutdatedCursor`.
        name: String,
    },
}

/// The coarse event type used for Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Repository commit.
    Commit,
    /// Identity update.
    Identity,
    /// User handle update.
    HandleChange,
    /// Repository tombstone.
    Tombstone,
    /// Relay informational message.
    Info,
}

impl EventKind {
    /// Human-readable name matching the paper's Table 1 rows.
    pub fn display_name(&self) -> &'static str {
        match self {
            EventKind::Commit => "Repo Commit",
            EventKind::Identity => "Identity Update",
            EventKind::HandleChange => "User Handle Update",
            EventKind::Tombstone => "Repo Tombstone",
            EventKind::Info => "Info",
        }
    }

    /// All kinds, in the order Table 1 lists them.
    pub fn all() -> [EventKind; 5] {
        [
            EventKind::Commit,
            EventKind::Identity,
            EventKind::HandleChange,
            EventKind::Tombstone,
            EventKind::Info,
        ]
    }
}

/// A full firehose frame: sequence number, relay receive time and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonically increasing sequence number assigned by the relay.
    pub seq: Seq,
    /// Relay-side receive timestamp.
    pub time: Datetime,
    /// Event payload.
    pub body: EventBody,
}

impl Event {
    /// The coarse kind of this event.
    pub fn kind(&self) -> EventKind {
        match &self.body {
            EventBody::Commit { .. } => EventKind::Commit,
            EventBody::Identity { .. } => EventKind::Identity,
            EventBody::HandleChange { .. } => EventKind::HandleChange,
            EventBody::Tombstone { .. } => EventKind::Tombstone,
            EventBody::Info { .. } => EventKind::Info,
        }
    }

    /// Approximate wire size of the frame in bytes (used for the ≈30 GB/day
    /// firehose volume estimate in §9).
    ///
    /// The sequence number is counted at a canonical fixed width (9 bytes,
    /// the widest CBOR uint encoding) rather than at its variable encoded
    /// width. The live firehose assigns sequence numbers relay-side, so two
    /// observers of the same event can see different `seq` values; §9's
    /// volume estimate must not depend on the observer. This also keeps the
    /// estimate identical between a single-relay run and a sharded run whose
    /// per-shard relays assign smaller sequence numbers.
    pub fn wire_size(&self) -> usize {
        const CANONICAL_SEQ_BYTES: usize = 9;
        self.encoded_len() - len::head(self.seq) + CANONICAL_SEQ_BYTES
    }

    /// The length of the frame's DAG-CBOR encoding without building or
    /// encoding it: the sum of the item heads and payload lengths the
    /// generic codec would write, entry for entry (pinned against that
    /// encoding by test). Called per event by the relay's log, per forwarded
    /// frame by the federation tap and per event by the §9 volume analyzer,
    /// so it allocates nothing.
    fn encoded_len(&self) -> usize {
        // One map entry under a literal key, given its value's length.
        let entry = |key: &str, value: usize| len::text(key.len()) + value;
        let did = |did: &Did| len::text(did.string_len());
        // Every map below has fewer than 24 entries: a one-byte head.
        let body = 1 + match &self.body {
            EventBody::Commit {
                did: repo,
                ops,
                blocks_bytes,
                ..
            } => {
                let ops_len: usize = ops
                    .iter()
                    .map(|op| {
                        1 + entry("action", len::text(op.action.as_str().len()))
                            + entry("path", len::text(op.key.len()))
                            + entry("cid", if op.cid.is_some() { len::LINK } else { 1 })
                    })
                    .sum();
                entry("t", len::text("#commit".len()))
                    + entry("repo", did(repo))
                    + entry("commit", len::LINK)
                    + entry("rev", len::text(crate::tid::TID_LEN))
                    + entry("tooBig", 1)
                    + entry("blocksBytes", len::int(*blocks_bytes as i64))
                    + entry("ops", len::head(ops.len() as u64) + ops_len)
            }
            EventBody::Identity { did: account } => {
                entry("t", len::text("#identity".len())) + entry("did", did(account))
            }
            EventBody::HandleChange {
                did: account,
                handle,
            } => {
                entry("t", len::text("#handle".len()))
                    + entry("did", did(account))
                    + entry("handle", len::text(handle.as_str().len()))
            }
            EventBody::Tombstone { did: account } => {
                entry("t", len::text("#tombstone".len())) + entry("did", did(account))
            }
            EventBody::Info { name } => {
                entry("t", len::text("#info".len())) + entry("name", len::text(name.len()))
            }
        };
        1 + entry("seq", len::int(self.seq as i64))
            + entry("time", len::text(self.time.string_len()))
            + entry("body", body)
    }
}

// The account of an event, which only the tests ask for.
#[cfg(test)]
impl Event {
    /// The account this event concerns (if any).
    pub(crate) fn did(&self) -> Option<&Did> {
        match &self.body {
            EventBody::Commit { did, .. }
            | EventBody::Identity { did }
            | EventBody::HandleChange { did, .. }
            | EventBody::Tombstone { did } => Some(did),
            EventBody::Info { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbor::{self, Value};
    use crate::nsid::known;
    use crate::repo::WriteAction;

    impl Event {
        /// The frame as DAG-CBOR through the generic `Value` codec: what
        /// [`Self::encoded_len`] and [`Self::wire_size`] must add up to.
        fn encode(&self) -> Vec<u8> {
            let body = match &self.body {
                EventBody::Commit {
                    did,
                    commit,
                    rev,
                    ops,
                    blocks_bytes,
                    too_big,
                } => Value::map([
                    ("t", Value::text("#commit")),
                    ("repo", Value::text(did.to_string())),
                    ("commit", Value::Link(*commit)),
                    ("rev", Value::text(rev.to_string())),
                    ("tooBig", Value::Bool(*too_big)),
                    ("blocksBytes", Value::Int(*blocks_bytes as i64)),
                    (
                        "ops",
                        Value::Array(
                            ops.iter()
                                .map(|op| {
                                    Value::map([
                                        ("action", Value::text(op.action.as_str())),
                                        ("path", Value::text(&op.key)),
                                        (
                                            "cid",
                                            match op.cid {
                                                Some(c) => Value::Link(c),
                                                None => Value::Null,
                                            },
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                EventBody::Identity { did } => Value::map([
                    ("t", Value::text("#identity")),
                    ("did", Value::text(did.to_string())),
                ]),
                EventBody::HandleChange { did, handle } => Value::map([
                    ("t", Value::text("#handle")),
                    ("did", Value::text(did.to_string())),
                    ("handle", Value::text(handle.as_str())),
                ]),
                EventBody::Tombstone { did } => Value::map([
                    ("t", Value::text("#tombstone")),
                    ("did", Value::text(did.to_string())),
                ]),
                EventBody::Info { name } => {
                    Value::map([("t", Value::text("#info")), ("name", Value::text(name))])
                }
            };
            cbor::encode(&Value::map([
                ("seq", Value::Int(self.seq as i64)),
                ("time", Value::text(self.time.to_iso8601())),
                ("body", body),
            ]))
        }
    }

    fn did() -> Did {
        Did::plc_from_seed(b"alice")
    }

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 3, 6, 0, 0, 0).unwrap()
    }

    fn commit_event(seq: Seq) -> Event {
        Event {
            seq,
            time: now(),
            body: EventBody::Commit {
                did: did(),
                commit: Cid::for_cbor(b"commit"),
                rev: Tid::from_micros(1_000_000, 1),
                ops: vec![
                    RecordOp {
                        action: WriteAction::Create,
                        key: format!("{}/3kabcdefgh234", known::POST),
                        cid: Some(Cid::for_cbor(b"record")),
                    },
                    RecordOp {
                        action: WriteAction::Delete,
                        key: format!("{}/3kabcdefgh235", known::LIKE),
                        cid: None,
                    },
                ],
                blocks_bytes: 512,
                too_big: false,
            },
        }
    }

    #[test]
    fn commit_frame_roundtrip() {
        let event = commit_event(42);
        assert_eq!(event.kind(), EventKind::Commit);
        assert_eq!(event.did(), Some(&did()));
        assert!(event.wire_size() > 100);
    }

    #[test]
    fn wire_size_is_independent_of_sequence_number() {
        // Two observers (or two shards) can assign different seqs to the
        // same event; §9's volume estimate must not see a difference.
        let small = commit_event(3);
        let large = commit_event(1_000_000_007);
        assert_eq!(small.wire_size(), large.wire_size());
        assert!(small.encode().len() < large.encode().len());
        assert!(small.wire_size() >= small.encode().len());
    }

    fn single_op_commit(collection: &str, action: WriteAction) -> Event {
        Event {
            seq: 7,
            time: now(),
            body: EventBody::Commit {
                did: did(),
                commit: Cid::for_cbor(b"commit"),
                rev: Tid::from_micros(1_000_000, 1),
                ops: vec![RecordOp {
                    action,
                    key: format!("{collection}/3kabcdefgh234"),
                    cid: match action {
                        WriteAction::Delete => None,
                        _ => Some(Cid::for_cbor(b"record")),
                    },
                }],
                blocks_bytes: 512,
                too_big: false,
            },
        }
    }

    #[test]
    fn wire_size_is_pinned_per_event_variant() {
        // One case per event variant the workload emits, with the exact
        // frame size pinned. The §10 observatory attributes padding deltas
        // to these accounting numbers; if an encoding change moves them,
        // this table must move with it — knowingly.
        let labels_batch = Event {
            seq: 7,
            time: now(),
            body: EventBody::Commit {
                did: did(),
                commit: Cid::for_cbor(b"commit"),
                rev: Tid::from_micros(1_000_000, 1),
                ops: (0..3)
                    .map(|i| RecordOp {
                        action: WriteAction::Create,
                        key: format!("{}/3kabcdefgh23{i}", known::LABELER_SERVICE),
                        cid: Some(Cid::for_cbor(&[i])),
                    })
                    .collect(),
                blocks_bytes: 2048,
                too_big: false,
            },
        };
        let cases: Vec<(&str, Event, usize)> = vec![
            (
                "post create",
                single_op_commit(known::POST, WriteAction::Create),
                288,
            ),
            (
                "like create",
                single_op_commit(known::LIKE, WriteAction::Create),
                288,
            ),
            (
                "follow create",
                single_op_commit(known::FOLLOW, WriteAction::Create),
                291,
            ),
            (
                "repost create",
                single_op_commit(known::REPOST, WriteAction::Create),
                290,
            ),
            (
                "post delete",
                single_op_commit(known::POST, WriteAction::Delete),
                248,
            ),
            (
                "profile update",
                single_op_commit(known::PROFILE, WriteAction::Update),
                292,
            ),
            ("labels batch", labels_batch, 504),
            (
                "identity",
                Event {
                    seq: 7,
                    time: now(),
                    body: EventBody::Identity { did: did() },
                },
                96,
            ),
            (
                "handle change",
                Event {
                    seq: 7,
                    time: now(),
                    body: EventBody::HandleChange {
                        did: did(),
                        handle: Handle::parse("alice.example.com").unwrap(),
                    },
                },
                119,
            ),
            (
                "tombstone",
                Event {
                    seq: 7,
                    time: now(),
                    body: EventBody::Tombstone { did: did() },
                },
                97,
            ),
            (
                "info",
                Event {
                    seq: 7,
                    time: now(),
                    body: EventBody::Info {
                        name: "OutdatedCursor".into(),
                    },
                },
                74,
            ),
        ];
        let got: Vec<(&str, usize)> = cases
            .iter()
            .map(|(name, event, _)| (*name, event.wire_size()))
            .collect();
        let want: Vec<(&str, usize)> = cases.iter().map(|(name, _, size)| (*name, *size)).collect();
        assert_eq!(got, want);
        // The canonical size is the variable encoding with the seq counted
        // at its fixed 9-byte width (seq 7 encodes in 1 byte).
        for (name, event, _) in &cases {
            assert_eq!(event.wire_size(), event.encode().len() + 8, "{name}");
        }
    }

    #[test]
    fn encoded_len_equals_the_encoding_on_random_events() {
        // `wire_size` no longer encodes the frame, so the arithmetic twin is
        // pinned against the encoder over every body kind and every width
        // class a head can take: deletes (`cid: None`), paths and op counts
        // on both sides of the 24 and 256 boundaries, `blocks_bytes` and
        // `seq` in each of the five integer widths, both DID methods, and
        // times whose year does not fit four digits.
        use crate::testrand::TestRng;
        let mut rng = TestRng::new(0xf1e0);
        // One value from each CBOR integer width, by index.
        let in_width = |rng: &mut TestRng, width: u64| -> u64 {
            match width {
                0 => rng.below(24),
                1 => 24 + rng.below(0x100 - 24),
                2 => 0x100 + rng.below(0x1_0000 - 0x100),
                3 => 0x1_0000 + rng.below(0x1_0000_0000 - 0x1_0000),
                _ => 0x1_0000_0000 + rng.below(1 << 40),
            }
        };
        let mut kinds = std::collections::BTreeSet::new();
        let (mut deletes, mut long_paths, mut huge_paths, mut many_ops) = (0, 0, 0, 0);
        for round in 0..400u64 {
            let did = if rng.below(4) == 0 {
                Did::web(&format!("{}.example.com", rng.lowercase(1, 40))).unwrap()
            } else {
                Did::plc_from_seed(&rng.bytes(16))
            };
            assert_eq!(did.string_len(), did.to_string().len());
            let body = match round % 5 {
                0 => {
                    let op_count = match rng.below(3) {
                        0 => rng.below(4),
                        1 => 20 + rng.below(10),
                        _ => 250 + rng.below(12),
                    } as usize;
                    many_ops += usize::from(op_count >= 24);
                    let ops = (0..op_count)
                        .map(|_| {
                            let action = [
                                WriteAction::Create,
                                WriteAction::Update,
                                WriteAction::Delete,
                            ][rng.below(3) as usize];
                            let path_len = match rng.below(4) {
                                0 => rng.below(24),
                                1 => 24 + rng.below(40),
                                2 => 250 + rng.below(12),
                                _ => 0x1_0000 + rng.below(4),
                            } as usize;
                            long_paths += usize::from(path_len >= 24);
                            huge_paths += usize::from(path_len >= 256);
                            deletes += usize::from(action == WriteAction::Delete);
                            RecordOp {
                                action,
                                key: "k".repeat(path_len),
                                cid: (action != WriteAction::Delete)
                                    .then(|| Cid::for_cbor(&rng.bytes(8))),
                            }
                        })
                        .collect();
                    EventBody::Commit {
                        did,
                        commit: Cid::for_cbor(&rng.bytes(8)),
                        rev: Tid::from_micros(rng.next_u64(), rng.below(1024) as u16),
                        ops,
                        blocks_bytes: in_width(&mut rng, round / 5 % 5) as usize,
                        too_big: rng.below(2) == 0,
                    }
                }
                1 => EventBody::Identity { did },
                2 => EventBody::HandleChange {
                    did,
                    handle: Handle::parse(&format!("{}.example.com", rng.lowercase(1, 40)))
                        .unwrap(),
                },
                3 => EventBody::Tombstone { did },
                _ => EventBody::Info {
                    name: rng.lowercase(0, 300),
                },
            };
            let time = match rng.below(8) {
                0 => Datetime(-(rng.below(1 << 40) as i64)),
                1 => Datetime(rng.below(1 << 42) as i64),
                _ => now().plus_seconds(rng.below(86_400 * 600) as i64),
            };
            let event = Event {
                seq: in_width(&mut rng, round % 5),
                time,
                body,
            };
            kinds.insert(event.kind());
            let encoded = event.encode();
            assert_eq!(event.encoded_len(), encoded.len(), "{event:?}");
            assert_eq!(event.wire_size(), encoded.len() - len::head(event.seq) + 9);
        }
        assert_eq!(kinds.len(), 5);
        assert!(deletes > 0 && long_paths > 0 && huge_paths > 0 && many_ops > 0);
        // The extremes the generator cannot reach by chance.
        for (seq, blocks_bytes) in [(u64::MAX, usize::MAX), (i64::MAX as u64, 0)] {
            let mut event = commit_event(seq);
            if let EventBody::Commit {
                blocks_bytes: bytes,
                ..
            } = &mut event.body
            {
                *bytes = blocks_bytes;
            }
            assert_eq!(event.encoded_len(), event.encode().len());
        }
    }

    #[test]
    fn kinds_match_table1_rows() {
        assert_eq!(EventKind::Commit.display_name(), "Repo Commit");
        assert_eq!(EventKind::Identity.display_name(), "Identity Update");
        assert_eq!(EventKind::HandleChange.display_name(), "User Handle Update");
        assert_eq!(EventKind::Tombstone.display_name(), "Repo Tombstone");
        assert_eq!(EventKind::all().len(), 5);
    }

    #[test]
    fn info_events_have_no_did() {
        let event = Event {
            seq: 9,
            time: now(),
            body: EventBody::Info { name: "x".into() },
        };
        assert!(event.did().is_none());
        assert_eq!(event.kind(), EventKind::Info);
    }
}
