use super::mirror::RepoSnapshot;
use super::*;
use crate::pipeline::OwnedObservation;
use bsky_atproto::firehose::Event;
use bsky_workload::ScenarioConfig;

pub(crate) fn small_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(seed);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.firehose_collection_start = Datetime::from_ymd(2024, 3, 6).unwrap();
    config.scale = 40_000;
    config
}

/// Stream `config`'s world into a recording tape.
pub(crate) fn collected(config: ScenarioConfig) -> (World, Vec<OwnedObservation>, StreamSummary) {
    let mut world = World::new(config);
    let mut tape = Vec::new();
    let summary = Collector::new().stream(&mut world, &mut tape);
    (world, tape, summary)
}

pub(crate) fn identifiers(tape: &[OwnedObservation]) -> Vec<&Did> {
    tape.iter()
        .filter_map(|obs| match obs {
            OwnedObservation::UserIdentifier { did, .. } => Some(did),
            _ => None,
        })
        .collect()
}

pub(crate) fn repositories(tape: &[OwnedObservation]) -> Vec<&RepoSnapshot> {
    tape.iter()
        .filter_map(|obs| match obs {
            OwnedObservation::Repo(snapshot) => Some(snapshot),
            _ => None,
        })
        .collect()
}

fn firehose_events(tape: &[OwnedObservation]) -> Vec<&Event> {
    tape.iter()
        .filter_map(|obs| match obs {
            OwnedObservation::Firehose(event) => Some(event),
            _ => None,
        })
        .collect()
}

#[test]
fn collector_gathers_all_datasets() {
    let config = small_config(5);
    let (world, tape, _) = collected(config);
    let has = |pred: fn(&OwnedObservation) -> bool| tape.iter().any(pred);
    assert!(has(|o| matches!(o, OwnedObservation::DidDocument { .. })));
    assert!(has(|o| matches!(o, OwnedObservation::FeedGenerator(_))));
    assert!(has(|o| matches!(o, OwnedObservation::Labeler(_))));
    // Identifiers are unique.
    let mut dids: Vec<String> = identifiers(&tape).iter().map(|d| d.to_string()).collect();
    assert!(!dids.is_empty());
    let before = dids.len();
    dids.sort();
    dids.dedup();
    assert_eq!(dids.len(), before);
    // Firehose events all postdate the collection start.
    let events = firehose_events(&tape);
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .all(|e| e.time >= config.firehose_collection_start));
    // Some repository snapshot decoded at least one record.
    assert!(repositories(&tape)
        .iter()
        .any(|r| r.records().next().is_some()));
    // Label interactions were observed.
    let label_interactions: usize = tape
        .iter()
        .map(|obs| match obs {
            OwnedObservation::Labels { labels, .. } => labels.len(),
            _ => 0,
        })
        .sum();
    assert!(label_interactions > 0);
    // The world is still usable afterwards.
    assert!(world.finished());
}

#[test]
fn repositories_cover_most_identifiers() {
    let (_, tape, _) = collected(small_config(5));
    let ratio = repositories(&tape).len() as f64 / identifiers(&tape).len() as f64;
    assert!(ratio > 0.9, "repo coverage {ratio}");
}

#[test]
fn collector_can_be_reused_across_worlds() {
    let config = small_config(5);
    let mut collector = Collector::new();
    let mut first = Vec::new();
    collector.stream(&mut World::new(config), &mut first);
    let mut second = Vec::new();
    collector.stream(&mut World::new(config), &mut second);
    // Per-run producer state resets, so the second collection sees the
    // same world from scratch instead of deduplicating against run one.
    assert_eq!(identifiers(&first).len(), identifiers(&second).len());
    assert_eq!(repositories(&first).len(), repositories(&second).len());
    assert!(!identifiers(&second).is_empty());
}

#[test]
fn stream_summary_reports_bounded_inflight() {
    let (_, tape, summary) = collected(small_config(5));
    let retained = firehose_events(&tape).len();
    assert_eq!(summary.firehose_events as usize, retained);
    assert_eq!(summary.observations as usize, tape.len());
    assert!(summary.peak_in_flight_events > 0);
    // The producer never holds more than one chunk, which is far
    // smaller than the full firehose dataset the recording tape kept.
    assert!(summary.peak_in_flight_events < retained);
    assert!(summary.observations > summary.firehose_events);
    assert!(summary.days > 0);
    assert!(summary.render().contains("in flight"));
}

#[test]
fn chunk_size_bounds_in_flight_events() {
    let mut config = small_config(5);
    config.end = Datetime::from_ymd(2024, 4, 10).unwrap();
    let mut world = World::new(config);
    let mut tape = Vec::new();
    let summary = Collector::with_chunk_size(32).stream(&mut world, &mut tape);
    // One chunk plus one user's commit burst bounds the batch.
    assert!(
        summary.peak_in_flight_events < 32 + 64,
        "peak {} not bounded by chunk",
        summary.peak_in_flight_events
    );
}

/// A flaky-fetch run whose retry budget always outlasts the injected
/// failure cap must fetch exactly the bytes the clean run fetches — a
/// retried request is the *same* request, re-issued after simulated
/// backoff, never an extra accounted download.
#[test]
fn retries_never_double_count_fetched_bytes() {
    let mut config = ScenarioConfig::test_scale(31);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.scale = 40_000;
    let total_days = config.end.days_since(config.start).max(0) as usize;

    let clean = {
        let mut world = World::new(config);
        let mut analyzers = crate::shard::StudyAnalyzers::default();
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
    let spec = bsky_simnet::faults::FaultSpec {
        flaky_fetch: 0.3,
        ..Default::default()
    };
    let plan = Arc::new(FaultPlan::build(config.seed, total_days, spec));
    let flaky = {
        let mut world = World::new(config);
        let mut analyzers = crate::shard::StudyAnalyzers::default();
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
