//! Decoders that take bytes from a file or a command line return — `Ok` or
//! `Err` — whatever they are fed: no panic, no stack overflow, no
//! allocation sized by an unchecked length. Seeded mutation of valid
//! encodings; the first slice of the ROADMAP's fuzzer item, not the fuzzer.
//! One leg per decoder with a production caller that this crate can reach;
//! the CAR, delta, record and CBOR decoders have theirs beside their oracle
//! tests in `bsky-atproto`.

use bluesky_repro::bsky_study::json::Json;
use bluesky_repro::bsky_workload::faults::FaultSpec;
use bluesky_repro::bsky_workload::rng::SimRng;

/// Mutations per valid input.
const ROUNDS: usize = 2_000;

/// One mutation of `valid`: truncate, flip a byte, insert a byte (half the
/// time one the input already uses, so structural bytes are likely), splice
/// a run of `0xff` over a stretch (one time in four over the very start,
/// where the binary formats keep a length head), or swap two bytes.
fn mutate(rng: &mut SimRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let len = bytes.len();
    let at = rng.range(0..len);
    match rng.range(0..5u8) {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= rng.range(1..256u16) as u8,
        2 => {
            let byte = if rng.chance(0.5) {
                valid[rng.range(0..len)]
            } else {
                rng.range(0..256u16) as u8
            };
            bytes.insert(at, byte);
        }
        3 => {
            let start = if rng.chance(0.25) { 0 } else { at };
            let end = (start + rng.range(1..9)).min(bytes.len());
            bytes[start..end].fill(0xff);
        }
        _ => bytes.swap(at, rng.range(0..len)),
    }
    bytes
}

/// Feed `decode` the valid input (which it must accept) and then
/// [`ROUNDS`] mutants of it, asserting nothing but that every call returns.
fn survives<T, E: std::fmt::Debug>(
    rng: &mut SimRng,
    valid: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    decode(valid).expect("the unmutated input is valid");
    for _ in 0..ROUNDS {
        let _ = decode(&mutate(rng, valid));
    }
}

#[test]
fn decoders_return_on_mutated_input() {
    let mut rng = SimRng::new(0xdec0_de55);

    // `Json::parse`: the benchmark reads `BENCHMARK.json` and every child's
    // result line through it (`benchmark/src/{contract, harness}.rs`).
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

    // `FaultSpec::parse_onto`: `repro --faults SPEC`, over the `--scenario`
    // preset or the quiet default.
    let spec = "outage=0.5,outage-host=1,flaky=0.2,dns=0.3,gap=0.05,rewind=0.02,\
                spam=0.1,spam-rate=3,label-storm=0.4,label-prob=0.5,\
                tombstone=0.6,tombstone-prob=0.1";
    survives(&mut rng, spec.as_bytes(), |bytes| {
        FaultSpec::parse_onto(FaultSpec::default(), &String::from_utf8_lossy(bytes))
    });
}
