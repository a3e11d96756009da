//! The full study report: stream the world through the analyzers in one
//! pass — serially or sharded across worker threads — and render or
//! serialise the results.
//!
//! There is one way a report is computed, described by one [`RunSpec`]:
//! [`StudyReport::run`] drives the sharded streaming engine
//! ([`crate::shard::collect_sharded`]) and assembles the report from the
//! merged analyzer states ([`StudyReport::from_analyzers`]) — firehose
//! events are never retained, and the result is byte-identical to the
//! serial run's for any `(shards, jobs)` (the golden tests in `tests/` pin
//! this against stored hashes). [`StudyReport::run_serial`] is the same
//! call coerced to one shard on one thread (report + [`StreamSummary`]).
//! One spec is one run: a sweep over seeds or scales is a loop over
//! [`StudyReport::run`] with one spec per cell.

use crate::analysis::{
    table5_feature_matrix, ActivitySeries, FirehoseVolume, IdentityReport, ModerationReport,
    RecommendationReport, Section4, Table1,
};
use crate::json::Json;
use crate::observatory::ObservatoryReport;
use crate::pipeline::{Analyzer, StreamSummary, StudyCtx};
use crate::shard::{collect_sharded, ShardedSummary, StudyAnalyzers};
use crate::spec::RunSpec;
use bsky_workload::{ScenarioConfig, World};

/// The injected-fault impact section of a scenario run's report: the named
/// recovery-path counters from the merged [`StreamSummary`], rendered as
/// their own report section. Present only on runs launched with a non-quiet
/// [`RunSpec::faults`] spec (repro `--scenario` / `--faults`) — quiet runs
/// carry `None` and their reports stay byte-identical to pre-fault-layer
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FaultImpact {
    /// Scenario name (or `custom` for a `--faults` spec).
    pub(crate) scenario: String,
    /// Retries issued across all timeout classes.
    pub(crate) retry_attempts: u64,
    /// Simulated milliseconds spent in timeouts + backoff.
    pub(crate) retry_backoff_ms: u64,
    /// Repo fetches abandoned after the retry budget.
    pub(crate) fetch_retry_giveups: u64,
    /// DNS lookups abandoned after the retry budget.
    pub(crate) dns_retry_giveups: u64,
    /// SERVFAIL responses observed on the identity path.
    pub(crate) dns_servfails: u64,
    /// Full fetches forced by a repo re-homing to another PDS.
    pub(crate) backfill_full_fetches: u64,
    /// Firehose commits lost to injected cursor gaps.
    pub(crate) cursor_gap_drops: u64,
    /// Events re-served by injected cursor rewinds.
    pub(crate) cursor_rewind_replays: u64,
    /// did:web documents that failed to fetch or parse.
    pub(crate) did_doc_fetch_failures: u64,
    /// Repositories skipped at snapshot time (vanished or given up).
    pub(crate) repo_snapshot_skips: u64,
    /// Accounts migrated off a failed host by the outage.
    pub(crate) outage_migrations: u64,
    /// Spam-wave posts injected into the workload.
    pub(crate) spam_posts_injected: u64,
    /// Labels applied by the label storm.
    pub(crate) storm_labels_applied: u64,
    /// Accounts deleted + tombstoned by the tombstone storm.
    pub(crate) storm_tombstones: u64,
}

impl FaultImpact {
    /// Extract the impact counters from a merged summary.
    pub(crate) fn from_summary(scenario: &str, summary: &StreamSummary) -> FaultImpact {
        FaultImpact {
            scenario: scenario.to_string(),
            retry_attempts: summary.retry_attempts,
            retry_backoff_ms: summary.retry_backoff_ms,
            fetch_retry_giveups: summary.fetch_retry_giveups,
            dns_retry_giveups: summary.dns_retry_giveups,
            dns_servfails: summary.dns_servfails,
            backfill_full_fetches: summary.backfill_full_fetches,
            cursor_gap_drops: summary.cursor_gap_drops,
            cursor_rewind_replays: summary.cursor_rewind_replays,
            did_doc_fetch_failures: summary.did_doc_fetch_failures,
            repo_snapshot_skips: summary.repo_snapshot_skips,
            outage_migrations: summary.outage_migrations,
            spam_posts_injected: summary.spam_posts_injected,
            storm_labels_applied: summary.storm_labels_applied,
            storm_tombstones: summary.storm_tombstones,
        }
    }

    /// Render the scenario-impact section.
    pub(crate) fn render(&self) -> String {
        let mut out = format!("== Scenario impact: {} ==\n", self.scenario);
        let rows: [(&str, u64); 14] = [
            ("retry attempts", self.retry_attempts),
            ("retry backoff (simulated ms)", self.retry_backoff_ms),
            ("fetch give-ups", self.fetch_retry_giveups),
            ("dns give-ups", self.dns_retry_giveups),
            ("dns servfails", self.dns_servfails),
            (
                "host-change backfill full fetches",
                self.backfill_full_fetches,
            ),
            ("cursor-gap commit drops", self.cursor_gap_drops),
            ("cursor-rewind replayed events", self.cursor_rewind_replays),
            ("did-doc fetch failures", self.did_doc_fetch_failures),
            ("repo snapshot skips", self.repo_snapshot_skips),
            ("outage migrations", self.outage_migrations),
            ("spam posts injected", self.spam_posts_injected),
            ("storm labels applied", self.storm_labels_applied),
            ("storm tombstones", self.storm_tombstones),
        ];
        for (name, value) in rows {
            out.push_str(&format!("{name:>34}: {value}\n"));
        }
        out
    }

    /// Serialise the impact counters.
    pub(crate) fn to_json(&self) -> Json {
        Json::object()
            .with("scenario", self.scenario.as_str())
            .with("retry_attempts", self.retry_attempts)
            .with("retry_backoff_ms", self.retry_backoff_ms)
            .with("fetch_retry_giveups", self.fetch_retry_giveups)
            .with("dns_retry_giveups", self.dns_retry_giveups)
            .with("dns_servfails", self.dns_servfails)
            .with("backfill_full_fetches", self.backfill_full_fetches)
            .with("cursor_gap_drops", self.cursor_gap_drops)
            .with("cursor_rewind_replays", self.cursor_rewind_replays)
            .with("did_doc_fetch_failures", self.did_doc_fetch_failures)
            .with("repo_snapshot_skips", self.repo_snapshot_skips)
            .with("outage_migrations", self.outage_migrations)
            .with("spam_posts_injected", self.spam_posts_injected)
            .with("storm_labels_applied", self.storm_labels_applied)
            .with("storm_tombstones", self.storm_tombstones)
    }
}

/// All analyses of the paper, computed for one simulated run.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The scenario that produced the report.
    pub(crate) config: ScenarioConfig,
    /// Table 1.
    pub table1: Table1,
    /// Figures 1–2 and §4 totals.
    pub(crate) activity: ActivitySeries,
    /// §4 account popularity and non-Bluesky content.
    pub(crate) section4: Section4,
    /// §5, Table 2, Figure 3.
    pub(crate) identity: IdentityReport,
    /// §6, Tables 3/4/6, Figures 4/5/6.
    pub(crate) moderation: ModerationReport,
    /// §7, Table 5, Figures 7–12.
    pub(crate) recommendation: RecommendationReport,
    /// §9 firehose volume.
    pub(crate) firehose_volume: FirehoseVolume,
    /// §10 wire-traffic observatory (classifier × mitigation sweep).
    pub(crate) observatory: ObservatoryReport,
    /// Injected-fault impact (scenario runs only; `None` keeps quiet runs'
    /// rendered/serialised output byte-identical to pre-fault-layer runs).
    pub(crate) faults: Option<FaultImpact>,
}

impl StudyReport {
    /// Run the full pipeline described by `spec` through the sharded
    /// streaming engine: the population is split into [`RunSpec::shards`]
    /// DID-hash partitions, each simulated and analyzed independently (at
    /// most [`RunSpec::jobs`] on worker threads at once), and the analyzer
    /// states are merged in shard order. Every observation folds into the
    /// incremental analyzers — the firehose is never retained — and the
    /// report is **byte-identical** to the serial run's for any
    /// `(shards, jobs)`, store backend, relay topology or framing policy;
    /// the golden equivalence tests pin this.
    ///
    /// Non-quiet [`RunSpec::faults`] specs attach a `Scenario impact` section
    /// labelled by [`RunSpec::scenario`] (`custom` when unlabelled).
    ///
    /// Panics on an invalid spec (see [`RunSpec::validate`]).
    pub fn run(spec: &RunSpec) -> (StudyReport, ShardedSummary) {
        let (analyzers, world, summary) = collect_sharded(spec, StudyAnalyzers::default());
        let mut report = StudyReport::from_analyzers(spec.config, analyzers, &world);
        if !spec.faults.is_quiet() {
            report.faults = Some(FaultImpact::from_summary(
                spec.scenario.as_deref().unwrap_or("custom"),
                &summary.merged,
            ));
        }
        (report, summary)
    }

    /// [`StudyReport::run`] coerced to one shard on one thread, returning
    /// the producer's plain [`StreamSummary`] (days, observation counts,
    /// peak in-flight events) instead of the sharded wrapper.
    pub fn run_serial(spec: &RunSpec) -> (StudyReport, StreamSummary) {
        let serial = spec.clone().shards(1).jobs(1);
        let (report, summary) = StudyReport::run(&serial);
        (report, summary.merged)
    }

    /// Assemble the report from a (merged) analyzer set. The world provides
    /// the finish-time context (scenario constants such as the scale
    /// factor); any shard's world is equivalent.
    pub fn from_analyzers(
        config: ScenarioConfig,
        analyzers: StudyAnalyzers,
        world: &World,
    ) -> StudyReport {
        let ctx = StudyCtx::new(world);
        StudyReport {
            config,
            table1: analyzers.table1.finish(&ctx),
            activity: analyzers.activity.finish(&ctx),
            section4: analyzers.section4.finish(&ctx),
            identity: analyzers.identity.finish(&ctx),
            moderation: analyzers.moderation.finish(&ctx),
            recommendation: analyzers.recommendation.finish(&ctx),
            firehose_volume: analyzers.volume.finish(&ctx),
            observatory: analyzers.observatory.finish(&ctx),
            faults: None,
        }
    }

    /// Render the whole report as text (every table and figure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Reproduction run: seed {} scale 1:{} ({} → {}) ==\n\n",
            self.config.seed,
            self.config.scale,
            self.config.start.date(),
            self.config.end.date()
        ));
        out.push_str(&self.table1.render());
        out.push('\n');
        out.push_str(&self.activity.render_figure1());
        out.push('\n');
        out.push_str(&self.activity.render_figure2());
        out.push('\n');
        out.push_str(&self.section4.render());
        out.push('\n');
        out.push_str(&self.identity.render());
        out.push('\n');
        out.push_str(&self.moderation.render());
        out.push('\n');
        out.push_str(&self.recommendation.render());
        out.push('\n');
        out.push_str(&table5_feature_matrix());
        out.push('\n');
        out.push_str(&self.firehose_volume.render());
        out.push('\n');
        out.push_str(&self.observatory.render());
        if let Some(faults) = &self.faults {
            out.push('\n');
            out.push_str(&faults.render());
        }
        out
    }

    /// Serialise headline numbers as JSON for EXPERIMENTS.md tooling.
    pub fn to_json(&self) -> Json {
        let json = Json::object()
            .with("seed", self.config.seed)
            .with("scale", self.config.scale)
            .with(
                "table1",
                Json::object().with("total_events", self.table1.total).with(
                    "rows",
                    Json::Arr(
                        self.table1
                            .rows
                            .iter()
                            .map(|(n, c, s)| {
                                Json::object()
                                    .with("type", n.as_str())
                                    .with("count", *c)
                                    .with("share_pct", *s)
                            })
                            .collect(),
                    ),
                ),
            )
            .with(
                "section4",
                Json::object()
                    .with(
                        "totals",
                        Json::object()
                            .with("posts", self.activity.totals.0)
                            .with("likes", self.activity.totals.1)
                            .with("follows", self.activity.totals.2)
                            .with("reposts", self.activity.totals.3)
                            .with("blocks", self.activity.totals.4),
                    )
                    .with("non_bsky_records", self.section4.non_bsky_records),
            )
            .with(
                "section5",
                Json::object()
                    .with("handles", self.identity.total_handles)
                    .with("bsky_social_share_pct", self.identity.bsky_social.1)
                    .with("did_web", self.identity.did_web)
                    .with("dns_txt_share_pct", self.identity.proofs.2)
                    .with("tranco_share_pct", self.identity.tranco_overlap.1),
            )
            .with(
                "section6",
                Json::object()
                    .with("labelers_announced", self.moderation.labeler_counts.0)
                    .with("labelers_functional", self.moderation.labeler_counts.1)
                    .with("labelers_active", self.moderation.labeler_counts.2)
                    .with(
                        "community_share_last_month_pct",
                        self.moderation.community_share_last_month,
                    )
                    .with("label_interactions", self.moderation.interactions.0)
                    .with("rescinded", self.moderation.interactions.1)
                    .with(
                        "posts_labeled_share_pct",
                        self.moderation.last_month_posts_labeled_share,
                    ),
            )
            .with(
                "section7",
                Json::object()
                    .with("feeds", self.recommendation.total_feeds)
                    .with("never_curated_pct", self.recommendation.never_curated.1)
                    .with("r_feeds_followers", self.recommendation.r_feeds_followers)
                    .with("r_likes_followers", self.recommendation.r_likes_followers)
                    .with(
                        "skyfeed_share_pct",
                        self.recommendation.platform_shares.first().map(|p| p.2),
                    ),
            )
            .with(
                "section9",
                Json::object().with(
                    "firehose_gb_per_day_extrapolated",
                    self.firehose_volume.extrapolated_full_network / 1e9,
                ),
            )
            .with("section10", self.observatory.to_json());
        match &self.faults {
            Some(faults) => json.with("faults", faults.to_json()),
            None => json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::Datetime;

    fn small_config(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(seed);
        config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
        config.scale = 40_000;
        config
    }

    #[test]
    fn full_report_runs_and_serialises() {
        let config = small_config(21);
        let (report, _) = StudyReport::run_serial(&RunSpec::new(config));
        let text = report.render();
        for needle in [
            "Table 1",
            "Figure 1",
            "Figure 3",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 6",
            "Figure 7",
            "Figure 12",
            "Table 5",
            "firehose volume",
            "§10 Wire-level traffic observatory",
            "mitigation cell",
        ] {
            assert!(text.contains(needle), "report missing {needle}");
        }
        let json = report.to_json();
        assert!(json["table1"]["total_events"].as_u64().unwrap() > 0);
        assert!(json["section5"]["bsky_social_share_pct"].as_f64().unwrap() > 90.0);
        assert!(json["section6"]["labelers_announced"].as_u64().unwrap() >= 40);
    }

    #[test]
    fn streaming_summary_shows_bounded_memory() {
        let (report, summary) = StudyReport::run_serial(&RunSpec::new(small_config(22)));
        assert_eq!(summary.firehose_events, report.table1.total);
        assert!(summary.peak_in_flight_events > 0);
        assert!((summary.peak_in_flight_events as u64) < summary.firehose_events);
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
}
