//! Decoders that take bytes from "the network" or from a file return — `Ok`
//! or `Err` — whatever they are fed: no panic, no stack overflow, no
//! allocation sized by an unchecked length. Seeded mutation of valid
//! encodings; the first slice of the ROADMAP's fuzzer item, not the fuzzer.

use bluesky_repro::bsky_atproto::firehose::{Event, EventBody};
use bluesky_repro::bsky_atproto::framing::{decode_frame, encode_frame, PaddingPolicy};
use bluesky_repro::bsky_atproto::mst::{decode_node, Mst};
use bluesky_repro::bsky_atproto::repo::{RecordOp, WriteAction};
use bluesky_repro::bsky_atproto::testrand::TestRng;
use bluesky_repro::bsky_atproto::{Cid, Datetime, Did, Handle, Tid};
use bluesky_repro::bsky_simnet::faults::FaultSpec;
use bluesky_repro::bsky_study::json::Json;

/// Mutations per valid input.
const ROUNDS: usize = 2_000;

/// One mutation of `valid`: truncate, flip a byte, insert a byte (half the
/// time one the input already uses, so structural bytes are likely), splice
/// a run of `0xff` over a stretch (one time in four over the very start,
/// where the binary formats keep a length head), or swap two bytes.
fn mutate(rng: &mut TestRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let len = bytes.len() as u64;
    let at = rng.below(len) as usize;
    match rng.below(5) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 + rng.below(255) as u8,
        2 => {
            let byte = if rng.below(2) == 0 {
                valid[rng.below(len) as usize]
            } else {
                rng.next_u64() as u8
            };
            bytes.insert(at, byte);
        }
        3 => {
            let start = if rng.below(4) == 0 { 0 } else { at };
            let end = (start + 1 + rng.below(8) as usize).min(bytes.len());
            bytes[start..end].fill(0xff);
        }
        _ => bytes.swap(at, rng.below(len) as usize),
    }
    bytes
}

/// Feed `decode` the valid input (which it must accept) and then
/// [`ROUNDS`] mutants of it, asserting nothing but that every call returns.
fn survives<T, E: std::fmt::Debug>(
    rng: &mut TestRng,
    valid: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    decode(valid).expect("the unmutated input is valid");
    for _ in 0..ROUNDS {
        let _ = decode(&mutate(rng, valid));
    }
}

/// One event of every body kind.
fn events() -> Vec<Event> {
    let did = Did::plc_from_seed(b"decoders-return");
    let cid = |n: u8| Cid::for_cbor(&[n]);
    let bodies = vec![
        EventBody::Commit {
            did: did.clone(),
            commit: cid(0),
            rev: Tid::from_micros(1 << 40, 1),
            ops: (1..4)
                .map(|n| RecordOp {
                    action: WriteAction::Create,
                    key: format!("app.bsky.feed.post/3kdecoders{n}"),
                    cid: Some(cid(n)),
                })
                .collect(),
            blocks_bytes: 2_048,
            too_big: false,
        },
        EventBody::Identity { did: did.clone() },
        EventBody::HandleChange {
            did: did.clone(),
            handle: Handle::parse("decoders.bsky.social").unwrap(),
        },
        EventBody::Tombstone { did },
        EventBody::Info {
            name: "OutdatedCursor".into(),
        },
    ];
    let time = Datetime::from_ymd(2024, 2, 15).unwrap();
    bodies
        .into_iter()
        .zip(1..)
        .map(|(body, seq)| Event { seq, time, body })
        .collect()
}

#[test]
fn decoders_return_on_mutated_input() {
    let mut rng = TestRng::new(0xdec0_de55);
    let events = events();

    survives(
        &mut rng,
        &encode_frame(&events, PaddingPolicy::Buckets),
        decode_frame,
    );
    for event in &events {
        survives(&mut rng, &event.encode(), Event::decode);
    }

    let mst: Mst = (0..60u32)
        .map(|n| {
            (
                format!("app.bsky.feed.post/3kdecoders{n:04}"),
                Cid::for_cbor(&n.to_be_bytes()),
            )
        })
        .collect();
    let nodes = mst.blocks();
    assert!(nodes.len() > 1, "a tree with interior nodes");
    for node in [&nodes[0], nodes.last().unwrap()] {
        survives(&mut rng, &node.bytes, decode_node);
    }

    let document = Json::object()
        .with("seed", 7u64)
        .with("share_pct", -99.25)
        .with("name", "repro \"quoted\"\n\u{e9}")
        .with("missing", Json::Null)
        .with(
            "rows",
            Json::Arr(vec![
                Json::object().with("count", u64::MAX).with("ok", true),
                Json::Arr(vec![Json::Arr(vec![])]),
            ]),
        )
        .to_string_pretty();
    survives(&mut rng, document.as_bytes(), |bytes| {
        Json::parse(&String::from_utf8_lossy(bytes))
    });

    let spec = "outage=0.5,outage-host=1,flaky=0.2,dns=0.3,gap=0.05,rewind=0.02,\
                spam=0.1,spam-rate=3,label-storm=0.4,label-prob=0.5,\
                tombstone=0.6,tombstone-prob=0.1";
    survives(&mut rng, spec.as_bytes(), |bytes| {
        FaultSpec::parse(&String::from_utf8_lossy(bytes))
    });
}
