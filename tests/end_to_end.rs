//! Cross-crate integration tests: the full pipeline from the synthetic world
//! through the collectors to the analyses, plus invariants that span crates.

use bluesky_repro::bsky_atproto::label::{effective_labels, Label};
use bluesky_repro::bsky_atproto::Datetime;
use bluesky_repro::bsky_study::datasets::DEFAULT_CHUNK_EVENTS;
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
fn full_study_reproduces_headline_shapes() {
    let (report, _) = StudyReport::run_serial(&RunSpec::new(small_config(1)));

    // Table 1: commits dominate the firehose.
    let commit_share = report
        .table1
        .rows
        .iter()
        .find(|r| r.0 == "Repo Commit")
        .map(|r| r.2)
        .unwrap_or(0.0);
    assert!(commit_share > 90.0, "commit share {commit_share}");

    // §4: likes outnumber posts, posts outnumber reposts.
    let (posts, likes, _follows, reposts, blocks) = report.activity.totals;
    assert!(likes > posts && posts > reposts && blocks < reposts);

    // §5: custodial handles dominate; DNS TXT proofs dominate.
    assert!(report.identity.bsky_social.1 > 95.0);
    assert!(report.identity.proofs.2 > 80.0);

    // §6: community labelers issue the majority of recent labels; the most
    // prolific labeler is an automated one with a sub-minute median.
    assert!(report.moderation.community_share_last_month > 50.0);
    if let Some(top) = report.moderation.table6.first() {
        if let Some(median) = top.median_reaction_secs {
            assert!(median < 60.0, "top labeler median {median}");
        }
    }

    // §7: Skyfeed hosts the largest share of feeds; some feeds never curated.
    assert_eq!(report.recommendation.platform_shares[0].0, "Skyfeed");
    assert!(report.recommendation.platform_shares[0].2 > 50.0);
    assert!(report.recommendation.never_curated.0 > 0);

    // §9: extrapolated firehose volume is positive and scales with the
    // configured factor.
    assert!(
        report.firehose_volume.extrapolated_full_network > report.firehose_volume.bytes_per_day
    );
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
                for (collection, _, _) in &repo.records {
                    assert!(collection.as_str().split('.').count() >= 3);
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
    // Labeler streams include rescissions that effective-label application
    // removes.
    if label_streams.values().flatten().any(|l| l.negated) {
        for labels in label_streams.values() {
            let applied = labels.iter().filter(|l| !l.negated).count();
            assert!(effective_labels(labels).len() <= applied);
        }
    }
}

#[test]
fn identical_seeds_give_identical_reports() {
    let (a, _) = StudyReport::run_serial(&RunSpec::new(small_config(3)));
    let (b, _) = StudyReport::run_serial(&RunSpec::new(small_config(3)));
    assert_eq!(a.table1.total, b.table1.total);
    assert_eq!(a.activity.totals, b.activity.totals);
    assert_eq!(a.moderation.interactions, b.moderation.interactions);
    assert_eq!(a.recommendation.total_feeds, b.recommendation.total_feeds);
    // And a different seed gives a different world.
    let (c, _) = StudyReport::run_serial(&RunSpec::new(small_config(4)));
    assert_ne!(a.activity.totals, c.activity.totals);
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
        let (_, world, _) = collect_sharded(&spec, StudyAnalyzers::new());
        let mut produced = 0;
        for server in world.fleet.servers() {
            let held = server.outbox_len();
            assert!(held <= DEFAULT_CHUNK_EVENTS, "{held} events held");
            produced += server.outbox_trimmed() + held;
        }
        let pending = match &world.federation {
            Some(tier) => tier.pending_events(&world.fleet),
            None => world.relay.pending_events(&world.fleet),
        };
        let crawled = world.relay.stats().total_events() as usize;
        assert!(crawled > 2_000, "a whole study: {crawled} events");
        assert_eq!(produced, crawled + pending, "relays = {relays}");
        let regions = world.federation.iter();
        let regions = regions.flat_map(|tier| (0..tier.region_count()).map(|r| tier.region(r)));
        for relay in regions.chain([&world.relay]) {
            assert_eq!(relay.stats().outbox_positions_skipped(), 0);
        }
    }
}
