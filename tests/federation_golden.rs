//! Golden anchors for hierarchical relay federation:
//!
//! 1. **Federation is byte-inert** — the same spec with `--relays 2`
//!    (regional relays crawling contiguous fleet slices and forwarding
//!    into the super-relay) produces byte-identical reports to the classic
//!    single-relay run, serially and on the 4×4 sharded engine, over the
//!    in-memory and the paged store alike, for two seeds. The federated
//!    render is additionally pinned against the pre-federation FNV-1a
//!    goldens, so a divergence is caught even if both sides drift together.
//! 2. **The topology is real** — federated runs forward every frame
//!    through the dedup index (forwarded > 0, tracked == forwarded, zero
//!    duplicates on clean partitions), the counters merge exactly across
//!    engines and stores, paged federated cells actually spill, and
//!    non-federated runs never touch the forwarding path.

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

/// The same pre-redesign render hashes `tests/runspec_golden.rs` pins:
/// a federated run must land on these exact bytes too.
const GOLDEN_RENDER: [(u64, u64); 2] = [(31, 0xba69_c98a_fe7c_859e), (32, 0xff1a_63ca_e6bb_ac82)];

#[test]
fn federated_runs_are_byte_identical_to_single_relay() {
    let paged = StoreConfig::paged().page_size(4096).resident_pages(2);
    for (seed, render_hash) in GOLDEN_RENDER {
        let (baseline, baseline_summary) = StudyReport::run_serial(&spec(seed));
        assert_eq!(
            baseline_summary.relay_events_forwarded, 0,
            "seed {seed}: a single-relay run must never forward"
        );
        assert_eq!(baseline_summary.relay_dedup_tracked, 0);
        assert_eq!(baseline_summary.relay_duplicates_dropped, 0);
        // Every federated cell must agree on the forwarding counters: the
        // serial run and the 4×4 sharded run see the same events, so the
        // sharded engine's per-shard counters must merge to exactly the
        // serial totals, on either store.
        let mut counters: Option<(u64, u64)> = None;
        for (store, store_label) in [(StoreConfig::mem(), "mem"), (paged.clone(), "paged")] {
            for (engine_shards, engine_label) in [(1usize, "serial"), (4, "4x4 sharded")] {
                let label = format!("seed {seed}, {engine_label}, {store_label}, 2 relays");
                let (fed, fed_summary) = StudyReport::run(
                    &spec(seed)
                        .relays(2)
                        .shards(engine_shards)
                        .jobs(engine_shards)
                        .store(store.clone()),
                );
                assert_eq!(
                    fed.render(),
                    baseline.render(),
                    "{label}: federation changed the rendered report"
                );
                assert_eq!(
                    fed.to_json().to_string_pretty(),
                    baseline.to_json().to_string_pretty(),
                    "{label}: federation changed the JSON export"
                );
                assert_eq!(
                    fnv1a_64(fed.render().as_bytes(), FNV_OFFSET),
                    render_hash,
                    "{label}: federated render diverged from the pre-federation golden"
                );
                let merged = &fed_summary.merged;
                assert!(
                    merged.relay_events_forwarded > 0,
                    "{label}: regional relays forwarded nothing"
                );
                assert_eq!(
                    merged.relay_dedup_tracked, merged.relay_events_forwarded,
                    "{label}: every forwarded frame must pass through the dedup index"
                );
                assert_eq!(
                    merged.relay_duplicates_dropped, 0,
                    "{label}: clean contiguous partitions must produce zero duplicates"
                );
                assert_eq!(
                    merged.repo_records_undecodable, 0,
                    "{label}: a mirrored record block failed to decode"
                );
                match counters {
                    None => {
                        counters = Some((merged.relay_events_forwarded, merged.relay_dedup_tracked))
                    }
                    Some(expected) => assert_eq!(
                        (merged.relay_events_forwarded, merged.relay_dedup_tracked),
                        expected,
                        "{label}: counters did not merge exactly across engines/stores"
                    ),
                }
                if store_label == "paged" {
                    assert!(
                        merged.spilled_block_bytes > 0,
                        "{label}: the paged federated run must actually spill"
                    );
                }
            }
        }
    }
}
