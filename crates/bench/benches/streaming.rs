//! Structural assertions over the streaming study pipeline at bench scale.
//! Nothing here reads a clock: wall time, CPU time and the per-layer ledger
//! are the study benchmark's job (`benchmark/`, `BENCHMARK.json`). The
//! target has `test = true`, so `cargo test` runs every body below once.
//!
//! * **bounded in-flight events** — the producer drains the relay in
//!   constant-size chunks, so the peak subscription batch must not scale
//!   with daily volume (asserted across a 3× population difference).
//! * **paged block store** — the same collection with `--store paged`
//!   (the fleet's repositories over the disk-spill store) must end the
//!   run with strictly fewer resident block bytes than the in-memory
//!   store, with the difference spilled (the reports are byte-identical,
//!   pinned by the golden equivalence test).
//! * **relay federation** — the collection with the PDS fleet crawled by
//!   two regional relays forwarding into the super-relay over the paged
//!   store, at two population scales: resident block bytes per DID must
//!   shrink as the population grows (sublinear scale-out).
//! * **wire observatory** — the §10 traffic-analysis sweep: classifier
//!   accuracy and framing overhead with no mitigation vs 128-byte bucket
//!   padding (bucket padding must cost strictly more overhead than bare
//!   framing).

use bsky_atproto::Datetime;
use bsky_study::pipeline::{Observation, ObservationSink, StudyCtx};
use bsky_study::{Collector, RunSpec, StudyReport};
use bsky_workload::{ScenarioConfig, World, WorldSpec};

fn bench_config() -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(17);
    config.start = Datetime::from_ymd(2024, 2, 1).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 30).unwrap();
    config.scale = 20_000;
    config
}

fn main() {
    let config = bench_config();

    // Memory: with a fixed chunk size, peak in-flight events must not scale
    // with daily volume — the producer crawls once a chunk's worth of relay
    // events is pending, so the subscription batch is bounded by the chunk
    // plus one user's commit burst no matter how heavy the day is.
    const CHUNK: usize = 32;
    struct NullSink;
    impl ObservationSink for NullSink {
        fn observe(&mut self, _obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {}
    }
    let base_summary = {
        let mut world = World::new(config);
        Collector::with_chunk_size(CHUNK).stream(&mut world, &mut NullSink)
    };
    let mut large_config = config;
    large_config.scale = 6_000; // ≈3.3× the population ⇒ ≈3× daily volume
    let large_summary = {
        let mut world = World::new(large_config);
        Collector::with_chunk_size(CHUNK).stream(&mut world, &mut NullSink)
    };
    println!(
        "events streamed: {} (base) vs {} (3x volume); peak in-flight {} vs {} (chunk {})",
        base_summary.firehose_events,
        large_summary.firehose_events,
        base_summary.peak_in_flight_events,
        large_summary.peak_in_flight_events,
        CHUNK,
    );
    assert!(
        large_summary.firehose_events > base_summary.firehose_events * 2,
        "volume scaling sanity: {} vs {}",
        large_summary.firehose_events,
        base_summary.firehose_events
    );
    // The hard invariant is the absolute bound: chunk size plus one day's
    // signup/activation burst, regardless of volume. The ratio check only
    // guards against accidental proportional growth (3× volume must not
    // mean 3× peak).
    assert!(
        large_summary.peak_in_flight_events < CHUNK + 64,
        "peak in-flight must be bounded by the chunk size, got {}",
        large_summary.peak_in_flight_events
    );
    let peak_ratio = large_summary.peak_in_flight_events as f64
        / base_summary.peak_in_flight_events.max(1) as f64;
    assert!(
        peak_ratio < 2.5,
        "peak in-flight must be volume-independent (chunked day steps); ratio {peak_ratio:.2}"
    );
    assert!(
        (base_summary.peak_in_flight_events as u64) < base_summary.firehose_events,
        "the producer must hold strictly fewer events than it streamed"
    );

    // Storage: the same run over the in-memory vs the paged disk-spill
    // block store. The paged backend spills what the in-memory one
    // releases: the bytes of user-day records the mirror already holds,
    // which the fleet draws again for a later full fetch. So the mem run
    // must end the window with strictly fewer resident block bytes, while
    // the golden test pins the reports byte-identical.
    use bsky_atproto::blockstore::StoreConfig;
    let run_with_store = |store: StoreConfig| {
        let mut world = World::from_spec(WorldSpec::new(config).store(store));
        Collector::new().stream(&mut world, &mut NullSink)
    };
    let mem_store = run_with_store(StoreConfig::mem());
    let paged_store = run_with_store(StoreConfig::paged().page_size(8 * 1024).resident_pages(2));
    println!(
        "block store: {} bytes resident + {} reclaimed by compaction (mem) vs {} resident + {} spilled (paged)",
        mem_store.resident_block_bytes,
        mem_store.store_bytes_reclaimed,
        paged_store.resident_block_bytes,
        paged_store.spilled_block_bytes,
    );
    assert!(
        paged_store.spilled_block_bytes > 0,
        "the paged store must actually spill at bench scale"
    );
    assert!(
        mem_store.store_bytes_reclaimed > 0,
        "compaction released no record bytes: inside the window each pass follows a mirror \
         sync and lets go of the user-day records committed before its cutoff"
    );
    assert_eq!(
        paged_store.store_bytes_reclaimed, 0,
        "a paged store keeps its bytes: it spills, it does not release"
    );
    assert!(
        mem_store.resident_block_bytes < paged_store.resident_block_bytes,
        "mem resident bytes ({}) must be strictly below paged ({})",
        mem_store.resident_block_bytes,
        paged_store.resident_block_bytes,
    );
    // Every byte is accounted for: the paged store keeps each block,
    // resident or spilled, and the same blocks stand behind the mem run's
    // held and released bytes.
    assert_eq!(
        mem_store.resident_block_bytes + mem_store.store_bytes_reclaimed,
        paged_store.resident_block_bytes + paged_store.spilled_block_bytes,
        "mem held + released vs paged resident + spilled"
    );

    // Observatory: the §10 mitigation sweep, computed counterfactually
    // from the collector's passive capture.
    let (report, _) = StudyReport::run(&RunSpec::new(config));
    let json = report.to_json();
    let observatory = &json["section10"];
    let cell = |name: &str| &observatory["cells"][name];
    let accuracy_none = cell("none")["accuracy"].as_f64().unwrap_or(0.0);
    let accuracy_bucketed = cell("pad128")["accuracy"].as_f64().unwrap_or(0.0);
    let overhead_none = cell("none")["overhead_bytes"].as_u64().unwrap_or(0);
    let overhead_bucketed = cell("pad128")["overhead_bytes"].as_u64().unwrap_or(0);
    let chance = observatory["chance_accuracy"].as_f64().unwrap_or(0.0);
    println!(
        "observatory: {:.1}% classifier accuracy unmitigated vs {:.1}% under pad128 (chance {:.1}%); framing overhead {} bytes unmitigated vs {} pad128",
        accuracy_none * 100.0,
        accuracy_bucketed * 100.0,
        chance * 100.0,
        overhead_none,
        overhead_bucketed,
    );
    assert!(
        observatory["traced_days"].as_u64().unwrap_or(0) > 0,
        "the collector must capture traces at bench scale"
    );
    assert!(
        overhead_bucketed > overhead_none,
        "bucket padding must cost strictly more overhead than bare framing ({overhead_bucketed} vs {overhead_none})"
    );

    // Chaos: one combined fault scenario (host outage + mass migration,
    // flaky fetches, a label storm, cursor gaps) through the faulted
    // terminal. The golden tests pin faulted reports byte-identical serial
    // vs sharded and mem vs paged; this leg prints the *recovery* costs —
    // retries, backfill full fetches, storm volume — and asserts the
    // never-silent contract: injected faults must surface as nonzero named
    // counters.
    use bsky_study::faults::FaultSpec;
    let chaos_spec = FaultSpec {
        outage_day: Some(0.5),
        flaky_fetch: 0.3,
        label_storm_day: Some(0.6),
        label_storm_prob: 0.5,
        cursor_gap: 0.05,
        ..FaultSpec::default()
    };
    let chaos_run = RunSpec {
        faults: chaos_spec,
        scenario: Some("chaos".into()),
        ..RunSpec::new(config)
    };
    let (_, chaos_summary) = StudyReport::run(&chaos_run);
    let chaos = &chaos_summary.merged;
    println!(
        "chaos scenario: {} retries ({} ms simulated backoff, {} give-ups), {} outage migrations, {} backfill full fetches, {} storm labels, {} gap drops",
        chaos.retry_attempts,
        chaos.retry_backoff_ms,
        chaos.fetch_retry_giveups,
        chaos.outage_migrations,
        chaos.backfill_full_fetches,
        chaos.storm_labels_applied,
        chaos.cursor_gap_drops,
    );
    assert!(
        chaos.retry_attempts > 0,
        "flaky fetches must surface as counted retries"
    );
    assert!(
        chaos.outage_migrations > 0 && chaos.backfill_full_fetches > 0,
        "the outage must migrate accounts and force counted backfills"
    );
    assert!(
        chaos.storm_labels_applied > 0,
        "the label storm must apply counted labels"
    );
    assert!(
        chaos.cursor_gap_drops > 0,
        "cursor gaps must surface as counted drops"
    );

    // Federation: the same collection with the PDS fleet crawled by two
    // regional relays forwarding (cursor-resumable, (did, rev)-dedup'd)
    // into the super-relay, over the paged store, at the base and ≈3.3×
    // populations. Residency is LRU-bounded rather than population-bound,
    // so resident block bytes *per DID* must shrink as the population
    // grows (sublinear scale-out).
    let federated_run = |config: ScenarioConfig| {
        let store = StoreConfig::paged().page_size(8 * 1024).resident_pages(2);
        let mut world = World::from_spec(WorldSpec::new(config).store(store).relays(2));
        let summary = Collector::new().stream(&mut world, &mut NullSink);
        let population = world.users.len().max(1) as u64;
        assert!(
            summary.relay_events_forwarded > 0 && summary.relay_dedup_tracked > 0,
            "federated run must forward through the super-relay"
        );
        assert_eq!(
            summary.relay_duplicates_dropped, 0,
            "clean partitions must produce zero duplicates"
        );
        let bytes_per_did = summary.resident_block_bytes as f64 / population as f64;
        (population, bytes_per_did)
    };
    let (population_base, bytes_per_did_base) = federated_run(config);
    let (population_large, bytes_per_did_large) = federated_run(large_config);
    println!(
        "federation (2 relays, paged): {bytes_per_did_base:.1} resident bytes/DID at {population_base} DIDs vs {bytes_per_did_large:.1} at {population_large}",
    );
    assert!(
        population_large > population_base * 2,
        "population scaling sanity: {population_large} vs {population_base}"
    );
    assert!(
        bytes_per_did_large < bytes_per_did_base,
        "per-DID residency must shrink with population (sublinear scale-out): {bytes_per_did_large:.1} vs {bytes_per_did_base:.1}"
    );
}
