//! Golden obligations of the deterministic fault-injection layer:
//!
//! 1. **Quiet plan is byte-inert** — running through the faulted terminal
//!    with the default (all-quiet) `FaultSpec` produces a report
//!    byte-identical to the plain streaming path, serial and 4×4 sharded,
//!    for multiple seeds. The fault machinery must never consume workload
//!    randomness or perturb output when nothing is injected.
//! 2. **Scenarios shard and spill exactly** — for each pinned scenario
//!    (pds-migration, label-storm, cursor-gap) the serial in-memory run,
//!    the 4×4 sharded run, and the paged-store run all render
//!    byte-identical reports, because every injected decision is a pure
//!    function of `(seed, key, day)`.
//! 3. **Never silent** — every scenario run surfaces its injected faults
//!    through nonzero named counters; no scenario completes with zero
//!    recovery-path counters.
//! 4. **Retries never double-count** — a flaky run whose retry budget
//!    always outlasts the injected failure cap fetches exactly the bytes
//!    the clean run fetches, while still recording its retries.

use bluesky_repro::bsky_atproto::blockstore::StoreConfig;
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_simnet::faults::{FaultPlan, FaultSpec, RetryPolicy, TimeoutClass};
use bluesky_repro::bsky_study::{Collector, RunSpec, StudyAnalyzers, StudyReport};
use bluesky_repro::bsky_workload::{ScenarioConfig, World};
use std::sync::Arc;

fn small_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(seed);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.scale = 40_000;
    config
}

fn run_faulted(
    config: ScenarioConfig,
    shards: usize,
    jobs: usize,
    store: &StoreConfig,
    spec: &FaultSpec,
    scenario: Option<&str>,
) -> (StudyReport, bluesky_repro::bsky_study::ShardedSummary) {
    let mut run = RunSpec::new(config)
        .shards(shards)
        .jobs(jobs)
        .store(store.clone())
        .faults(spec.clone());
    if let Some(name) = scenario {
        run = run.scenario(name);
    }
    StudyReport::run(&run)
}

#[test]
fn quiet_fault_plan_is_byte_inert() {
    for seed in [31u64, 32] {
        let config = small_config(seed);
        let (baseline, _) = StudyReport::run_serial(&RunSpec::new(config));
        // Serial through the faulted terminal with the quiet spec.
        let (quiet, summary) = run_faulted(
            config,
            1,
            1,
            &StoreConfig::mem(),
            &FaultSpec::default(),
            None,
        );
        assert!(
            quiet.faults.is_none(),
            "seed {seed}: quiet run grew a fault section"
        );
        assert_eq!(quiet.render(), baseline.render(), "seed {seed}");
        assert_eq!(
            quiet.to_json().to_string_pretty(),
            baseline.to_json().to_string_pretty(),
            "seed {seed}"
        );
        // Quiet means quiet: no injected-fault counter moves.
        let merged = &summary.merged;
        assert_eq!(merged.retry_attempts, 0, "seed {seed}");
        assert_eq!(merged.fetch_retry_giveups, 0, "seed {seed}");
        assert_eq!(merged.dns_retry_giveups, 0, "seed {seed}");
        assert_eq!(merged.dns_servfails, 0, "seed {seed}");
        assert_eq!(merged.cursor_gap_drops, 0, "seed {seed}");
        assert_eq!(merged.cursor_rewind_replays, 0, "seed {seed}");
        assert_eq!(merged.outage_migrations, 0, "seed {seed}");
        assert_eq!(merged.spam_posts_injected, 0, "seed {seed}");
        assert_eq!(merged.storm_labels_applied, 0, "seed {seed}");
        assert_eq!(merged.storm_tombstones, 0, "seed {seed}");
        // And sharded: 4 shards on 4 workers through the faulted terminal.
        let (quiet_sharded, _) = run_faulted(
            config,
            4,
            4,
            &StoreConfig::mem(),
            &FaultSpec::default(),
            None,
        );
        assert_eq!(quiet_sharded.render(), baseline.render(), "seed {seed}");
        assert_eq!(
            quiet_sharded.to_json().to_string_pretty(),
            baseline.to_json().to_string_pretty(),
            "seed {seed}"
        );
    }
}

/// Every pinned scenario must (a) render byte-identically serial vs. 4×4
/// sharded and mem vs. paged, and (b) account for its injected faults with
/// the scenario's own nonzero counters.
#[test]
fn scenarios_are_shard_and_store_exact_and_never_silent() {
    let seed = 31u64;
    let config = small_config(seed);
    let paged = StoreConfig::paged().page_size(4096).resident_pages(2);
    for name in ["pds-migration", "label-storm", "cursor-gap"] {
        let spec = FaultSpec::scenario(name).expect("pinned scenario exists");
        let (serial, serial_summary) =
            run_faulted(config, 1, 1, &StoreConfig::mem(), &spec, Some(name));
        let (sharded, sharded_summary) =
            run_faulted(config, 4, 4, &StoreConfig::mem(), &spec, Some(name));
        let (paged_run, paged_summary) = run_faulted(config, 1, 1, &paged, &spec, Some(name));
        assert_eq!(
            serial.render(),
            sharded.render(),
            "{name}: sharded diverged"
        );
        assert_eq!(
            serial.to_json().to_string_pretty(),
            sharded.to_json().to_string_pretty(),
            "{name}: sharded JSON diverged"
        );
        assert_eq!(
            serial.render(),
            paged_run.render(),
            "{name}: paged diverged"
        );
        assert_eq!(
            serial.to_json().to_string_pretty(),
            paged_run.to_json().to_string_pretty(),
            "{name}: paged JSON diverged"
        );
        assert!(
            paged_summary.merged.spilled_block_bytes > 0,
            "{name}: paged run never spilled"
        );
        // The report carries the scenario-impact section.
        let impact = serial
            .faults
            .as_ref()
            .expect("scenario run has a fault section");
        assert_eq!(impact.scenario, name);
        assert!(serial.render().contains("Scenario impact"), "{name}");
        assert!(
            serial.to_json()["faults"]["scenario"].as_str().is_some(),
            "{name}: faults missing from JSON"
        );
        // Never silent: the scenario's injected faults land in its named
        // counters, and they merge exactly across shards and stores.
        let merged = &serial_summary.merged;
        match name {
            "pds-migration" => {
                assert!(merged.outage_migrations > 0, "{name}: no migrations");
                assert!(
                    merged.backfill_full_fetches > 0,
                    "{name}: no host-change backfills"
                );
            }
            "label-storm" => {
                assert!(merged.storm_labels_applied > 0, "{name}: no storm labels");
            }
            "cursor-gap" => {
                assert!(merged.cursor_gap_drops > 0, "{name}: no gap drops");
                assert!(
                    merged.cursor_rewind_replays > 0,
                    "{name}: no rewind replays"
                );
            }
            _ => unreachable!(),
        }
        for (label, other) in [
            ("sharded", &sharded_summary.merged),
            ("paged", &paged_summary.merged),
        ] {
            assert_eq!(
                merged.outage_migrations, other.outage_migrations,
                "{name}: {label} migrations diverged"
            );
            assert_eq!(
                merged.cursor_gap_drops, other.cursor_gap_drops,
                "{name}: {label} gap drops diverged"
            );
            assert_eq!(
                merged.storm_labels_applied, other.storm_labels_applied,
                "{name}: {label} storm labels diverged"
            );
            assert_eq!(
                merged.backfill_full_fetches, other.backfill_full_fetches,
                "{name}: {label} backfills diverged"
            );
            // Faults cost fetches, never decodes: whatever the mirror kept
            // through outages, migrations and backfills still decodes.
            assert_eq!(
                merged.repo_records_undecodable + other.repo_records_undecodable,
                0,
                "{name}: {label} left a mirrored block undecoded"
            );
        }
    }
}

/// A flaky-fetch run whose retry budget always outlasts the injected
/// failure cap must fetch exactly the bytes the clean run fetches — a
/// retried request is the *same* request, re-issued after simulated
/// backoff, never an extra accounted download.
#[test]
fn retries_never_double_count_fetched_bytes() {
    let config = small_config(31);
    let total_days = config.end.days_since(config.start).max(0) as usize;

    let clean = {
        let mut world = World::new(config);
        let mut analyzers = StudyAnalyzers::new();
        Collector::new().stream(&mut world, &mut analyzers)
    };

    // Injected failure runs are capped below 6 failures; 8 attempts can
    // always outlast them, so nothing ever gives up and every fetch
    // eventually happens exactly once.
    let patient = RetryPolicy {
        max_attempts: 8,
        base_delay_ms: 100,
        max_delay_ms: 1_000,
        timeout_ms: 5_000,
    };
    let spec = FaultSpec {
        flaky_fetch: 0.3,
        ..FaultSpec::default()
    };
    let plan = Arc::new(FaultPlan::build(config.seed, total_days, spec));
    let flaky = {
        let mut world = World::new(config);
        let mut analyzers = StudyAnalyzers::new();
        Collector::new()
            .faults(plan)
            .retry(TimeoutClass::RepoFetch, patient)
            .retry(TimeoutClass::DeltaFetch, patient)
            .stream(&mut world, &mut analyzers)
    };

    assert!(flaky.retry_attempts > 0, "flakiness never triggered");
    assert!(flaky.retry_backoff_ms > 0, "retries cost no simulated time");
    assert_eq!(flaky.fetch_retry_giveups, 0, "patient policy gave up");
    assert_eq!(
        flaky.snapshot_bytes_fetched, clean.snapshot_bytes_fetched,
        "retries double-counted fetched bytes"
    );
    assert_eq!(flaky.repo_full_fetches, clean.repo_full_fetches);
    assert_eq!(flaky.repo_delta_fetches, clean.repo_delta_fetches);
    assert_eq!(flaky.firehose_events, clean.firehose_events);
}
