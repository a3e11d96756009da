//! Golden equivalence: every layout of the one streaming engine — sharded
//! (`--jobs 4`), paged, pipelined, or with the inert framing field set —
//! must render a `StudyReport` **byte-identical** to the serial in-memory
//! run's, for
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
        // §10 included: where blocks live is invisible to the wire tap.
        assert_reports_identical(&paged, &mem, seed);
        // The paged run really went through the spill path. The in-memory
        // run released the bytes the mirror already holds, where the paged
        // one spilled them, and ended the window with fewer resident block
        // bytes. Every byte is accounted for: the paged store keeps each
        // block, resident or spilled, and the reports are identical, so the
        // same blocks stand behind the mem run's held and released bytes
        // (no repository that released bytes leaves the fleet in these
        // runs).
        let (mem_store, paged_store) = (&mem_summary.merged, &paged_summary.merged);
        assert!(
            paged_store.spilled_block_bytes > 0,
            "seed {seed}: paged store never spilled"
        );
        assert!(
            mem_store.store_bytes_reclaimed > 0,
            "seed {seed}: mem released nothing"
        );
        assert_eq!(
            paged_store.store_bytes_reclaimed, 0,
            "seed {seed}: paged released"
        );
        assert!(
            mem_store.resident_block_bytes < paged_store.resident_block_bytes,
            "seed {seed}: mem resident {} vs paged {}",
            mem_store.resident_block_bytes,
            paged_store.resident_block_bytes,
        );
        assert_eq!(
            mem_store.resident_block_bytes + mem_store.store_bytes_reclaimed,
            paged_store.resident_block_bytes + paged_store.spilled_block_bytes,
            "seed {seed}: mem held + released vs paged resident + spilled"
        );
        assert_eq!(mem_store.spilled_block_bytes, 0, "seed {seed}");

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
    use bluesky_repro::bsky_atproto::framing::{BatchPolicy, FramingPolicy, PaddingPolicy};
    // §10 sweeps every cell counterfactually, so the spec's framing is
    // inert: it may not move a report or summary byte.
    let mitigated = FramingPolicy {
        padding: PaddingPolicy::Buckets,
        batch: BatchPolicy::window(2),
    };
    for seed in [31u64, 32] {
        let (baseline, baseline_summary) = StudyReport::run_serial(&spec(seed));
        let (framed, framed_summary) = StudyReport::run_serial(&RunSpec {
            framing: mitigated,
            ..spec(seed)
        });
        assert_reports_identical(&framed, &baseline, seed);
        assert_eq!(framed_summary, baseline_summary, "seed {seed}");
        // The identity snapshots performed real DNS-backed lookups, and the
        // wire tap kept every frame.
        let merged = &baseline_summary;
        assert!(
            merged.identity_lookups > 0,
            "seed {seed}: no identity lookups recorded"
        );
        assert_eq!(
            merged.observer_trace_drops, 0,
            "seed {seed}: observer dropped frames at test scale"
        );
        // The 4×4 sharded engine merges to the exact serial report and
        // lookup count.
        let (sharded, sharded_summary) = StudyReport::run(&spec(seed).shards(4).jobs(4));
        assert_reports_identical(&sharded, &baseline, seed);
        assert_eq!(
            sharded_summary.merged.identity_lookups, merged.identity_lookups,
            "seed {seed}"
        );
    }
}

#[test]
fn observatory_is_byte_identical_across_store_backends() {
    use bluesky_repro::bsky_atproto::framing::{BatchPolicy, FramingPolicy, PaddingPolicy};
    let seed = 31u64;
    let framed = RunSpec {
        framing: FramingPolicy {
            padding: PaddingPolicy::Buckets,
            batch: BatchPolicy::window(2),
        },
        ..spec(seed)
    };
    // The collector's wire capture over the in-memory store...
    let (mem, mem_summary) = StudyReport::run(&framed);
    // ...and over the paged disk-spill store: where blocks live is invisible
    // to the wire, so the report and the observatory accounting are identical.
    let paged_config = StoreConfig::paged().page_size(4096).resident_pages(2);
    let (paged, paged_summary) = StudyReport::run(&framed.clone().store(paged_config));
    assert_reports_identical(&paged, &mem, seed);
    assert_eq!(
        paged_summary.merged.identity_lookups,
        mem_summary.merged.identity_lookups
    );
    assert_eq!(
        paged_summary.merged.observer_trace_drops,
        mem_summary.merged.observer_trace_drops
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
