//! Cross-crate integration tests: the full pipeline from the synthetic world
//! through the collectors to the analyses, plus invariants that span crates.

use bluesky_repro::bsky_atproto::label::Label;
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_study::collect::DEFAULT_CHUNK_EVENTS;
use bluesky_repro::bsky_study::{
    collect_sharded, Collector, OwnedObservation, RunSpec, StudyAnalyzers, StudyReport,
};
use bluesky_repro::bsky_workload::{ScenarioConfig, World};
use std::collections::BTreeMap;

fn small_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::test_scale(seed);
    config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
    config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
    config.scale = 40_000;
    config
}

#[test]
fn collector_observes_only_public_surfaces() {
    let mut world = World::new(small_config(2));
    let mut tape: Vec<OwnedObservation> = Vec::new();
    Collector::new().stream(&mut world, &mut tape);
    let mut identifiers = 0usize;
    let mut label_streams: BTreeMap<String, Vec<Label>> = BTreeMap::new();
    for obs in &tape {
        match obs {
            OwnedObservation::UserIdentifier { .. } => identifiers += 1,
            // Repositories decode into records; every decoded record
            // belongs to a collection with a valid NSID.
            OwnedObservation::Repo(repo) => {
                for record in repo.records() {
                    assert!(record.collection.as_str().split('.').count() >= 3);
                }
            }
            OwnedObservation::Labels { src, labels } => label_streams
                .entry(src.to_string())
                .or_default()
                .extend(labels.iter().cloned()),
            _ => {}
        }
    }
    // The datasets never contain more identities than the relay exposes.
    assert!(identifiers > 0);
    assert!(identifiers <= world.relay.known_account_count() + 5);
    // Every rescission in a labeler's stream rescinds a label that labeler
    // applied earlier in the stream.
    for labels in label_streams.values() {
        for (i, label) in labels.iter().enumerate().filter(|(_, l)| l.negated) {
            assert!(
                labels[..i]
                    .iter()
                    .any(|l| !l.negated && l.target == label.target && l.value == label.value),
                "{label:?} rescinds nothing"
            );
        }
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let (a, _) = StudyReport::run_serial(&RunSpec::new(small_config(3)));
    let (b, _) = StudyReport::run_serial(&RunSpec::new(small_config(3)));
    assert_eq!(a.render(), b.render());
    assert_eq!(a.to_json(), b.to_json());
    // And a different seed gives a different world.
    let (c, _) = StudyReport::run_serial(&RunSpec::new(small_config(4)));
    let totals = |report: &StudyReport| report.to_json()["section4"]["totals"].clone();
    assert_ne!(totals(&a), totals(&c));
}

#[test]
fn pds_outboxes_drain_and_no_relay_lags() {
    // Bounded and loud: after a whole study no PDS holds more than the
    // chunk of events produced since its last crawl, every event ever
    // produced is either trimmed or still held, and no relay was ever
    // served past events it had not seen — single relay and federation.
    for relays in [1, 2] {
        // The whole 531-day window at `repro --scale 40000`.
        let mut config = ScenarioConfig::repro_scale(5);
        config.scale = 40_000;
        let spec = RunSpec::new(config).relays(relays);
        let (_, world, _) = collect_sharded(&spec, StudyAnalyzers::default());
        let mut produced = 0;
        for server in world.fleet.servers() {
            // The held slice from position 0 ends at the absolute position
            // of the next event: every event the server ever produced.
            let (held, next) = server.events_since(0);
            assert!(
                held.len() <= DEFAULT_CHUNK_EVENTS,
                "{} events held",
                held.len()
            );
            produced += next;
        }
        let pending = match &world.federation {
            Some(tier) => tier.pending_events(&world.fleet),
            None => world.relay.pending_events(&world.fleet),
        };
        let crawled = world.relay.firehose().total_events() as usize;
        assert!(crawled > 2_000, "a whole study: {crawled} events");
        // An event a relay skipped is neither crawled nor pending.
        assert_eq!(produced, crawled + pending, "relays = {relays}");
    }
}
