//! Golden anchors for the `RunSpec` redesign and the hot/cold entity
//! split:
//!
//! 1. **API redesign is inert** — a default `RunSpec` run renders and
//!    serialises byte-for-byte what the pre-redesign entry points produced,
//!    pinned as FNV-1a hashes captured from the old
//!    `StudyReport::run_streaming` before the refactor, for two seeds. Any
//!    accidental behavior change smuggled in with the API work trips these
//!    constants.
//! 2. **Write-back cache is observationally transparent** — the same spec
//!    with the AppView write-back cache on vs. off produces byte-identical
//!    reports, serially and on the 4×4 sharded engine, over the in-memory
//!    and the paged store alike; only the summary's cache accounting moves
//!    (and the cached runs really flushed).

use bluesky_repro::bsky_atproto::blockstore::StoreConfig;
use bluesky_repro::bsky_atproto::did::{fnv1a_64, FNV_OFFSET};
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_study::{RunSpec, StudyReport};
use bluesky_repro::bsky_workload::ScenarioConfig;

fn small_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(seed);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.scale = 40_000;
    config
}

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(small_config(seed))
}

/// `(seed, fnv1a_64(render), fnv1a_64(to_json pretty))` captured from
/// `StudyReport::run_streaming(small_config(seed))` immediately before the
/// RunSpec redesign and the hot/cold AppView split landed.
const GOLDEN: [(u64, u64, u64); 2] = [
    (31, 0xba69_c98a_fe7c_859e, 0xe0c1_a314_661f_7867),
    (32, 0xff1a_63ca_e6bb_ac82, 0xa4de_4963_1cae_edbc),
];

#[test]
fn runspec_defaults_match_pre_redesign_goldens() {
    for (seed, render_hash, json_hash) in GOLDEN {
        let (report, summary) = StudyReport::run_serial(&spec(seed));
        // The goldens are complete datasets: every mirrored record block
        // decoded into its snapshot.
        assert_eq!(summary.repo_records_undecodable, 0, "seed {seed}");
        assert_eq!(
            fnv1a_64(report.render().as_bytes(), FNV_OFFSET),
            render_hash,
            "seed {seed}: rendered report diverged from the pre-redesign golden"
        );
        assert_eq!(
            fnv1a_64(report.to_json().to_string_pretty().as_bytes(), FNV_OFFSET),
            json_hash,
            "seed {seed}: JSON export diverged from the pre-redesign golden"
        );
    }
}

#[test]
fn write_back_cache_is_byte_inert_everywhere() {
    let paged = StoreConfig::paged().page_size(4096).resident_pages(2);
    for seed in [31u64, 32] {
        let (baseline, _) = StudyReport::run_serial(&spec(seed));
        for (store, store_label) in [(StoreConfig::mem(), "mem"), (paged.clone(), "paged")] {
            for (engine_shards, engine_label) in [(1usize, "serial"), (4, "4x4 sharded")] {
                let cell = || {
                    spec(seed)
                        .shards(engine_shards)
                        .jobs(engine_shards)
                        .store(store.clone())
                };
                let (cached, cached_summary) = StudyReport::run(&RunSpec {
                    write_back: true,
                    ..cell()
                });
                let (raw, raw_summary) = StudyReport::run(&RunSpec {
                    write_back: false,
                    ..cell()
                });
                let label = format!("seed {seed}, {engine_label}, {store_label}");
                assert_eq!(
                    cached.render(),
                    raw.render(),
                    "{label}: write-back cache changed the rendered report"
                );
                assert_eq!(
                    cached.to_json().to_string_pretty(),
                    raw.to_json().to_string_pretty(),
                    "{label}: write-back cache changed the JSON export"
                );
                assert_eq!(
                    cached.render(),
                    baseline.render(),
                    "{label}: cell diverged from the serial mem baseline"
                );
                // The knob is real: cached runs flush the write-back buffer
                // at day boundaries and see same-day hits, raw runs never
                // touch that machinery.
                assert!(
                    cached_summary.merged.writeback_flushes > 0,
                    "{label}: cached run never flushed"
                );
                assert!(
                    cached_summary.merged.writeback_hits > 0,
                    "{label}: cached run saw no buffer hits"
                );
                assert_eq!(
                    raw_summary.merged.writeback_flushes, 0,
                    "{label}: raw run flushed a write-back buffer"
                );
                assert_eq!(
                    raw_summary.merged.writeback_hits, 0,
                    "{label}: raw run hit a write-back buffer"
                );
                // Sharded and paged mirrors decode every block too (the
                // per-shard counts merge by addition).
                assert_eq!(
                    cached_summary.merged.repo_records_undecodable
                        + raw_summary.merged.repo_records_undecodable,
                    0,
                    "{label}: a mirrored record block failed to decode"
                );
                // The hot/cold counter split coalesces same-day counter
                // bumps regardless of the cache knob.
                assert!(
                    cached_summary.merged.counter_coalesced_writes > 0,
                    "{label}: no counter writes coalesced"
                );
            }
        }
    }
}
