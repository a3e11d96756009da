//! Golden equivalence: every layout of the one streaming engine — sharded
//! (`--jobs 4`), paged, framed, pipelined — must render a
//! `StudyReport` **byte-identical** to the serial in-memory run's, for
//! multiple seeds. The serial run's own bytes are pinned as stored hashes in
//! `tests/runspec_golden.rs`.
//!
//! Every run is described by one `RunSpec`; the knob under test is the only
//! field that differs between the compared specs. The rendered
//! report covers every table/figure field of every section and the JSON
//! export covers the headline numbers, so string equality over both pins
//! the full surface. Table 1 is compared field by field first, so a broken
//! event stream fails with a readable diff.

use bluesky_repro::bsky_atproto::blockstore::StoreConfig;
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_study::{Collector, RunSpec, StudyReport};
use bluesky_repro::bsky_workload::{ScenarioConfig, World};

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

fn framed(seed: u64, framing: bluesky_repro::bsky_atproto::framing::FramingPolicy) -> RunSpec {
    RunSpec {
        framing,
        ..spec(seed)
    }
}

fn assert_reports_identical(actual: &StudyReport, expected: &StudyReport, seed: u64) {
    // A structured spot check first, for a readable failure.
    assert_eq!(actual.table1.total, expected.table1.total, "seed {seed}");
    assert_eq!(actual.table1.rows, expected.table1.rows, "seed {seed}");
    // Full surface: the rendered report contains every table and figure
    // field; the JSON export contains every headline number.
    assert_eq!(actual.render(), expected.render(), "seed {seed}");
    assert_eq!(
        actual.to_json().to_string_pretty(),
        expected.to_json().to_string_pretty(),
        "seed {seed}"
    );
}

#[test]
fn run_and_run_serial_agree() {
    let spec = spec(33);
    let (via_run, _) = StudyReport::run(&spec);
    let (via_serial, _) = StudyReport::run_serial(&spec);
    assert_eq!(via_run.render(), via_serial.render());
}

#[test]
fn sharded_run_is_byte_identical_to_serial() {
    for seed in [31u64, 32] {
        let (serial, _) = StudyReport::run_serial(&spec(seed));
        // 4 shards on 4 worker threads: every stochastic decision derives
        // from (seed, DID, day), so partitioning the population must not
        // change a single byte of the rendered report or the JSON export.
        let (sharded, summary) = StudyReport::run(&spec(seed).shards(4).jobs(4));
        assert_eq!(summary.shards, 4);
        assert_eq!(summary.per_shard.len(), 4);
        assert_reports_identical(&sharded, &serial, seed);
        assert_eq!(sharded.render(), serial.render(), "seed {seed}");
        assert_eq!(
            sharded.to_json().to_string_pretty(),
            serial.to_json().to_string_pretty(),
            "seed {seed}"
        );
        // The shard partition is real: more than one shard produced events.
        let active_shards = summary
            .per_shard
            .iter()
            .filter(|s| s.firehose_events > 0)
            .count();
        assert!(active_shards > 1, "seed {seed}: population not partitioned");
    }
}

#[test]
fn paged_store_is_byte_identical_to_mem_store_serial_and_sharded() {
    for seed in [31u64, 32] {
        // Baseline: the in-memory block store (the default everywhere).
        let (mem, mem_summary) = StudyReport::run(&spec(seed).store(StoreConfig::mem()));
        // Paged: tiny pages and a 2-page LRU so the repositories actually
        // spill to disk.
        let paged_config = StoreConfig::paged().page_size(4096).resident_pages(2);
        let (paged, paged_summary) = StudyReport::run(&spec(seed).store(paged_config.clone()));
        assert_reports_identical(&paged, &mem, seed);
        // The paged run really went through the spill path, and ended the
        // window with strictly fewer resident block bytes.
        assert!(
            paged_summary.merged.spilled_block_bytes > 0,
            "seed {seed}: paged store never spilled"
        );
        assert!(
            paged_summary.merged.resident_block_bytes < mem_summary.merged.resident_block_bytes,
            "seed {seed}: paged resident {} vs mem {}",
            paged_summary.merged.resident_block_bytes,
            mem_summary.merged.resident_block_bytes,
        );
        assert_eq!(mem_summary.merged.spilled_block_bytes, 0, "seed {seed}");

        // And the paged backend composes with the sharded engine: 4 shards
        // on 4 workers, still byte-identical to the serial mem run.
        let (paged_sharded, sharded_summary) =
            StudyReport::run(&spec(seed).store(paged_config).shards(4).jobs(4));
        assert_reports_identical(&paged_sharded, &mem, seed);
        assert!(
            sharded_summary.merged.spilled_block_bytes > 0,
            "seed {seed}: sharded paged run never spilled"
        );
    }
}

#[test]
fn appview_sharding_is_byte_identical_across_backends() {
    // The study runs no AppView any more; what this test keeps is its
    // store-backend × engine grid.
    let paged = StoreConfig::paged().page_size(4096).resident_pages(2);
    for seed in [31u64, 32] {
        // Baseline: the in-memory store, serial.
        let (baseline, _) = StudyReport::run_serial(&spec(seed));
        // Every store backend, serial AND on the 4-shard engine: spill
        // changes only where blocks reside — never a report byte — and
        // every mirrored record block decodes into its snapshot.
        for (store, label) in [(StoreConfig::mem(), "mem"), (paged.clone(), "paged")] {
            for engine_shards in [1usize, 4] {
                let (report, summary) = StudyReport::run(
                    &spec(seed)
                        .shards(engine_shards)
                        .jobs(engine_shards)
                        .store(store.clone()),
                );
                assert_reports_identical(&report, &baseline, seed);
                let label = format!("seed {seed}, {label}, {engine_shards} shard(s)");
                assert_eq!(summary.merged.repo_records_undecodable, 0, "{label}");
                // Paged layouts really exercised the spill path.
                if store.kind == bluesky_repro::bsky_atproto::blockstore::StoreKind::Paged {
                    assert!(
                        summary.merged.spilled_block_bytes > 0,
                        "{label}: never spilled"
                    );
                }
            }
        }
    }
}

#[test]
fn observatory_mitigations_never_change_the_report() {
    use bluesky_repro::bsky_atproto::framing::{FramingPolicy, PaddingPolicy};
    for seed in [31u64, 32] {
        // Baseline: the plain streaming run (the default, unmitigated framing).
        let (baseline, _) = StudyReport::run_serial(&spec(seed));
        // Explicit no-op framing: the observatory tap is always on, but with
        // no padding and no batching it must not change a single report byte
        // — §4–§9 and the §10 mitigation sweep alike.
        let (unpadded, unpadded_summary) =
            StudyReport::run(&framed(seed, FramingPolicy::default()));
        assert_reports_identical(&unpadded, &baseline, seed);
        // Mitigations on the wire: 128-byte padding buckets plus a 2-second
        // batching window. The §10 sweep is counterfactual (every cell is
        // evaluated from the captured raw traces), so the active policy may
        // only move StreamSummary counters — never a report byte.
        let mitigated = FramingPolicy::new(PaddingPolicy::Buckets, 2);
        let (padded, padded_summary) = StudyReport::run(&framed(seed, mitigated));
        assert_reports_identical(&padded, &baseline, seed);
        // The capture layer really ran and the mitigation layer really cost
        // bytes: bucketed frames carry strictly more overhead than bare ones,
        // and the identity snapshots performed real DNS-backed lookups.
        assert!(
            padded_summary.merged.wire_frames > 0,
            "seed {seed}: no wire frames captured"
        );
        assert!(
            padded_summary.merged.padding_overhead_bytes
                > unpadded_summary.merged.padding_overhead_bytes,
            "seed {seed}: buckets overhead {} not above bare {}",
            padded_summary.merged.padding_overhead_bytes,
            unpadded_summary.merged.padding_overhead_bytes,
        );
        assert!(
            padded_summary.merged.identity_lookups > 0,
            "seed {seed}: no identity lookups recorded"
        );
        assert_eq!(
            padded_summary.merged.observer_trace_drops, 0,
            "seed {seed}: observer dropped frames at test scale"
        );
        // And the mitigated wire composes with the 4×4 sharded engine: the
        // report stays byte-identical and the wire accounting merges to the
        // exact serial totals (frame boundaries derive from (DID, time), so
        // partitioning the population cannot move them).
        let (sharded, sharded_summary) =
            StudyReport::run(&framed(seed, mitigated).shards(4).jobs(4));
        assert_reports_identical(&sharded, &baseline, seed);
        assert_eq!(
            sharded_summary.merged.wire_frames, padded_summary.merged.wire_frames,
            "seed {seed}"
        );
        assert_eq!(
            sharded_summary.merged.padding_overhead_bytes,
            padded_summary.merged.padding_overhead_bytes,
            "seed {seed}"
        );
        assert_eq!(
            sharded_summary.merged.identity_lookups, padded_summary.merged.identity_lookups,
            "seed {seed}"
        );
    }
}

#[test]
fn observatory_is_byte_identical_across_store_backends() {
    use bluesky_repro::bsky_atproto::framing::{FramingPolicy, PaddingPolicy};
    let seed = 31u64;
    let mitigated = FramingPolicy::new(PaddingPolicy::Buckets, 2);
    // Mitigated wire over the in-memory store...
    let (mem, mem_summary) = StudyReport::run(&framed(seed, mitigated));
    // ...and over the paged disk-spill store: where blocks live is invisible
    // to the wire, so the report and the wire accounting are identical.
    let paged_config = StoreConfig::paged().page_size(4096).resident_pages(2);
    let (paged, paged_summary) = StudyReport::run(&framed(seed, mitigated).store(paged_config));
    assert_reports_identical(&paged, &mem, seed);
    assert_eq!(
        paged_summary.merged.wire_frames,
        mem_summary.merged.wire_frames
    );
    assert_eq!(
        paged_summary.merged.padding_overhead_bytes,
        mem_summary.merged.padding_overhead_bytes
    );
    assert!(
        paged_summary.merged.spilled_block_bytes > 0,
        "paged store never spilled"
    );
}

#[test]
fn pipelined_run_is_byte_identical_for_every_cell() {
    for seed in [31u64, 32] {
        let (baseline, _) = StudyReport::run_serial(&spec(seed));
        // Serial engine (1 shard) with the intra-shard pipeline on: a lone
        // worker folding all eight analyzer parts and a 3-way fan-out must
        // both reassemble the serial bytes exactly.
        for threads in [1usize, 3] {
            let (piped, summary) =
                StudyReport::run(&spec(seed).pipeline(true).analyzer_threads(threads));
            assert_reports_identical(&piped, &baseline, seed);
            assert!(
                summary.merged.pipeline_batches > 0,
                "seed {seed}: pipeline ({threads} threads) shipped no batches"
            );
        }
        // The pipeline composes with the 4×4 sharded engine (mem store):
        // (shards, jobs, analyzer_threads) = (4, 4, 2).
        let (sharded, sharded_summary) = StudyReport::run(
            &spec(seed)
                .shards(4)
                .jobs(4)
                .pipeline(true)
                .analyzer_threads(2),
        );
        assert_reports_identical(&sharded, &baseline, seed);
        assert!(
            sharded_summary.merged.pipeline_batches > 0,
            "seed {seed}: sharded pipeline shipped no batches"
        );
        // And with the paged disk-spill store, which really spilled — the
        // producer's store I/O is exactly what the pipeline overlaps with
        // analyzer CPU.
        let paged_config = StoreConfig::paged().page_size(4096).resident_pages(2);
        let (paged, paged_summary) = StudyReport::run(
            &spec(seed)
                .store(paged_config)
                .shards(4)
                .jobs(4)
                .pipeline(true)
                .analyzer_threads(2),
        );
        assert_reports_identical(&paged, &baseline, seed);
        assert!(
            paged_summary.merged.spilled_block_bytes > 0,
            "seed {seed}: pipelined paged run never spilled"
        );
        assert!(paged_summary.merged.pipeline_batches > 0, "seed {seed}");
    }
}

#[test]
fn pipelined_fault_scenario_is_byte_identical() {
    use bluesky_repro::bsky_study::faults::FaultSpec;
    // One fault scenario through the pipeline: injected faults derive from
    // (seed, key, day) on the producer side, so decoupling the analyzers
    // cannot move a byte of the report — impact section included.
    let seed = 31u64;
    let scenario = || RunSpec {
        faults: FaultSpec::scenario("label-storm").unwrap(),
        scenario: Some("label-storm".into()),
        ..spec(seed)
    };
    let (plain, plain_summary) = StudyReport::run(&scenario());
    let (piped, piped_summary) = StudyReport::run(
        &scenario()
            .shards(4)
            .jobs(4)
            .pipeline(true)
            .analyzer_threads(2),
    );
    assert_reports_identical(&piped, &plain, seed);
    assert!(
        piped.to_json()["faults"]["scenario"].as_str().is_some(),
        "scenario run lost its impact section"
    );
    assert!(
        plain_summary.merged.storm_labels_applied > 0,
        "label storm injected nothing"
    );
    assert_eq!(
        piped_summary.merged.storm_labels_applied, plain_summary.merged.storm_labels_applied,
        "fault accounting diverged under the pipeline"
    );
    assert!(piped_summary.merged.pipeline_batches > 0);
}

#[test]
fn owned_observation_round_trip_folds_identically() {
    use bluesky_repro::bsky_study::{
        Observation, ObservationBatch, ObservationSink, StudyAnalyzers, StudyCtx,
    };
    use std::collections::BTreeSet;

    fn kind(obs: &Observation<'_>) -> &'static str {
        match obs {
            Observation::WindowStart { .. } => "window-start",
            Observation::DayBoundary { .. } => "day-boundary",
            Observation::Firehose(_) => "firehose",
            Observation::UserIdentifier { .. } => "user-identifier",
            Observation::DidDocument { .. } => "did-document",
            Observation::Labeler(_) => "labeler",
            Observation::Labels { .. } => "labels",
            Observation::FeedGenerator(_) => "feed-generator",
            Observation::Repo(_) => "repo",
            Observation::WireTrace(_) => "wire-trace",
            Observation::WindowEnd { .. } => "window-end",
        }
    }

    /// Tees every producer observation into two analyzer sets: one folds
    /// the borrowed bus item directly, the other folds it after a round
    /// trip through its owned, sequence-numbered [`ObservationBatch`] form
    /// — the exact materialization the intra-shard pipeline ships across
    /// threads.
    #[derive(Default)]
    struct RoundTripTee {
        direct: StudyAnalyzers,
        rebuilt: StudyAnalyzers,
        kinds: BTreeSet<&'static str>,
        seq: u64,
    }

    impl ObservationSink for RoundTripTee {
        fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
            self.kinds.insert(kind(obs));
            self.direct.observe(obs, ctx);
            let batch = ObservationBatch {
                seq: self.seq,
                items: vec![obs.to_owned_observation()],
            };
            self.seq += 1;
            self.rebuilt.observe(&batch.items[0].as_observation(), ctx);
        }
    }

    for seed in [31u64, 32] {
        let config = small_config(seed);
        let mut world = World::new(config);
        let mut tee = RoundTripTee::default();
        let summary = Collector::new().stream(&mut world, &mut tee);
        assert!(summary.observations > 0, "seed {seed}");
        // The live stream exercised every bus variant, WireTrace included.
        let expected: BTreeSet<&'static str> = [
            "window-start",
            "day-boundary",
            "firehose",
            "user-identifier",
            "did-document",
            "labeler",
            "labels",
            "feed-generator",
            "repo",
            "wire-trace",
            "window-end",
        ]
        .into_iter()
        .collect();
        assert_eq!(tee.kinds, expected, "seed {seed}: variants not all seen");
        // Both folds finish to byte-identical reports.
        let direct = StudyReport::from_analyzers(config, tee.direct, &world);
        let rebuilt = StudyReport::from_analyzers(config, tee.rebuilt, &world);
        assert_reports_identical(&rebuilt, &direct, seed);
    }
}

#[test]
fn sharded_run_is_independent_of_worker_count() {
    let (jobs1, _) = StudyReport::run(&spec(34).shards(3).jobs(1));
    let (jobs3, _) = StudyReport::run(&spec(34).shards(3).jobs(3));
    assert_eq!(jobs1.render(), jobs3.render());
    assert_eq!(
        jobs1.to_json().to_string_pretty(),
        jobs3.to_json().to_string_pretty()
    );
}
