//! Golden obligations of the deterministic fault-injection layer:
//!
//! 1. **Quiet plan is byte-inert** — running through the faulted terminal
//!    with the default (all-quiet) `FaultSpec` produces a report
//!    byte-identical to the plain streaming path, serial and 4×4 sharded,
//!    for multiple seeds. The fault machinery must never consume workload
//!    randomness or perturb output when nothing is injected.
//! 2. **Scenarios shard and spill exactly** — for each pinned scenario
//!    (pds-migration, label-storm, cursor-gap, dns-flap) the serial in-memory run,
//!    the 4×4 sharded run, and the paged-store run all render
//!    byte-identical reports, because every injected decision is a pure
//!    function of `(seed, key, day)`.
//! 3. **Never silent** — every scenario run surfaces its injected faults
//!    through nonzero named counters; no scenario completes with zero
//!    recovery-path counters.
//! 4. **Pinned bytes** — every scenario preset's report and JSON export
//!    match stored hashes.
//!
//! (That retries never double-count fetched bytes is pinned beside the
//! collector, in `bsky-study`'s `collect` tests.)

use bluesky_repro::bsky_atproto::blockstore::StoreConfig;
use bluesky_repro::bsky_atproto::did::{fnv1a_64, FNV_OFFSET};
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_simnet::faults::{FaultSpec, SCENARIO_NAMES};
use bluesky_repro::bsky_study::json::Json;
use bluesky_repro::bsky_study::{RunSpec, StudyReport};
use bluesky_repro::bsky_workload::ScenarioConfig;

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
    let run = RunSpec {
        faults: spec.clone(),
        scenario: scenario.map(str::to_string),
        ..RunSpec::new(config)
            .shards(shards)
            .jobs(jobs)
            .store(store.clone())
    };
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
            quiet.to_json()["faults"] == Json::Null,
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
    for name in ["pds-migration", "label-storm", "cursor-gap", "dns-flap"] {
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
        assert!(serial.render().contains("Scenario impact"), "{name}");
        assert_eq!(
            serial.to_json()["faults"]["scenario"].as_str(),
            Some(name),
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
            "dns-flap" => {
                // Injected flaps are the only writer of this counter.
                assert!(merged.dns_servfails > 0, "{name}: no SERVFAILs");
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
            assert_eq!(
                merged.dns_servfails, other.dns_servfails,
                "{name}: {label} SERVFAILs diverged"
            );
            assert_eq!(
                merged.dns_retry_giveups, other.dns_retry_giveups,
                "{name}: {label} DNS give-ups diverged"
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

/// `(scenario, fnv1a_64(render), fnv1a_64(to_json pretty))` of the serial
/// in-memory run at seed 31 for every scenario preset, so the `Scenario
/// impact` section is pinned byte for byte like the quiet reports in
/// `tests/runspec_golden.rs`.
const SCENARIO_GOLDEN: [(&str, u64, u64); 7] = [
    (
        "pds-migration",
        0xf6ae_bb13_6277_f1d4,
        0x42ba_3121_cee9_7448,
    ),
    ("flaky-fetch", 0xc654_2131_ea89_41f3, 0xcb7c_3dd4_2662_9c2b),
    ("dns-flap", 0x753d_0dc4_f79d_d46a, 0x83b7_e91e_6efa_0f08),
    ("cursor-gap", 0x73b0_a01e_d5b6_7251, 0xf6e9_692e_ed75_9baa),
    ("spam-wave", 0x7932_6c19_f0d4_7929, 0x8ecb_9518_0c68_6a57),
    ("label-storm", 0xe4b5_ce80_6574_1550, 0xeb17_5d02_ddd1_0d02),
    (
        "tombstone-storm",
        0x7abc_5ba0_80d1_9eb5,
        0x4bdb_246b_58e9_c88c,
    ),
];

#[test]
fn scenario_reports_match_their_goldens() {
    let config = small_config(31);
    let actual: Vec<(&str, u64, u64)> = SCENARIO_NAMES
        .iter()
        .map(|&name| {
            let spec = FaultSpec::scenario(name).expect("preset exists");
            let (report, _) = run_faulted(config, 1, 1, &StoreConfig::mem(), &spec, Some(name));
            (
                name,
                fnv1a_64(report.render().as_bytes(), FNV_OFFSET),
                fnv1a_64(report.to_json().to_string_pretty().as_bytes(), FNV_OFFSET),
            )
        })
        .collect();
    assert_eq!(actual, SCENARIO_GOLDEN, "a scenario report diverged");
}
