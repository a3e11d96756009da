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

use crate::activity::{ActivitySeries, Section4};
use crate::identity::IdentityReport;
use crate::json::Json;
use crate::moderation::ModerationReport;
use crate::observatory::ObservatoryReport;
use crate::pipeline::{Analyzer, StreamSummary, StudyCtx};
use crate::recommendation::RecommendationReport;
use crate::shard::{collect_sharded, ShardedSummary, StudyAnalyzers};
use crate::spec::RunSpec;
use crate::table1::{FirehoseVolume, Table1};
use bsky_workload::{ScenarioConfig, World};

/// The injected-fault impact section of a scenario run's report: one
/// `(label, JSON key, value)` row per recovery-path counter of the merged
/// [`StreamSummary`]. Present only on runs launched with a non-quiet
/// [`RunSpec::faults`] spec (repro `--scenario` / `--faults`) — quiet runs
/// carry `None` and their reports stay byte-identical to pre-fault-layer
/// output.
#[derive(Debug, Clone)]
struct FaultImpact {
    /// Scenario name (or `custom` for a `--faults` spec).
    scenario: String,
    rows: [(&'static str, &'static str, u64); 14],
}

impl FaultImpact {
    /// Read the impact counters from a merged summary.
    fn from_summary(scenario: &str, summary: &StreamSummary) -> FaultImpact {
        // A counter's JSON key is its `StreamSummary` field name.
        macro_rules! rows {
            ($($label:literal: $field:ident),*) => {
                [$(($label, stringify!($field), summary.$field)),*]
            };
        }
        let rows = rows![
            "retry attempts": retry_attempts,
            "retry backoff (simulated ms)": retry_backoff_ms,
            "fetch give-ups": fetch_retry_giveups,
            "dns give-ups": dns_retry_giveups,
            "dns servfails": dns_servfails,
            "host-change backfill full fetches": backfill_full_fetches,
            "cursor-gap commit drops": cursor_gap_drops,
            "cursor-rewind replayed events": cursor_rewind_replays,
            "did-doc fetch failures": did_doc_fetch_failures,
            "repo snapshot skips": repo_snapshot_skips,
            "outage migrations": outage_migrations,
            "spam posts injected": spam_posts_injected,
            "storm labels applied": storm_labels_applied,
            "storm tombstones": storm_tombstones
        ];
        FaultImpact {
            scenario: scenario.to_string(),
            rows,
        }
    }

    /// Render the scenario-impact section.
    fn render(&self) -> String {
        let mut out = format!("== Scenario impact: {} ==\n", self.scenario);
        for (label, _, value) in self.rows {
            out.push_str(&format!("{label:>34}: {value}\n"));
        }
        out
    }

    /// Serialise the impact counters.
    fn to_json(&self) -> Json {
        let json = Json::object().with("scenario", self.scenario.as_str());
        self.rows
            .iter()
            .fold(json, |json, (_, key, value)| json.with(key, *value))
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
    faults: Option<FaultImpact>,
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

    /// Render the whole report as text: one section after another, in
    /// paper order.
    pub fn render(&self) -> String {
        let header = format!(
            "== Reproduction run: seed {} scale 1:{} ({} → {}) ==\n\n",
            self.config.seed,
            self.config.scale,
            self.config.start.date(),
            self.config.end.date()
        );
        let mut sections = vec![
            self.table1.render(),
            self.activity.render(),
            self.section4.render(),
            self.identity.render(),
            self.moderation.render(),
            self.recommendation.render(),
            self.firehose_volume.render(),
            self.observatory.render(),
        ];
        sections.extend(self.faults.as_ref().map(FaultImpact::render));
        header + &sections.join("\n")
    }

    /// Serialise headline numbers as JSON for EXPERIMENTS.md tooling: one
    /// slice per section, in paper order.
    pub fn to_json(&self) -> Json {
        let json = Json::object()
            .with("seed", self.config.seed)
            .with("scale", self.config.scale)
            .with("table1", self.table1.to_json())
            .with("section4", self.section4.to_json(&self.activity))
            .with("section5", self.identity.to_json())
            .with("section6", self.moderation.to_json())
            .with("section7", self.recommendation.to_json())
            .with("section9", self.firehose_volume.to_json())
            .with("section10", self.observatory.to_json());
        match &self.faults {
            Some(faults) => json.with("faults", faults.to_json()),
            None => json,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::activity::{ActivityAnalyzer, Section4Analyzer};
    use crate::collect::Collector;
    use crate::identity::IdentityAnalyzer;
    use crate::moderation::ModerationAnalyzer;
    use crate::observatory::ObservatoryAnalyzer;
    use crate::pipeline::OwnedObservation;
    use crate::recommendation::RecommendationAnalyzer;
    use crate::table1::{FirehoseVolumeAnalyzer, Table1Analyzer};
    use bsky_atproto::Datetime;
    use bsky_workload::rng::SimRng;
    use std::sync::OnceLock;

    fn small_config(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(seed);
        config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
        config.scale = 40_000;
        config
    }

    /// Seed 11 at 1:30000 from mid-February to late April: the study every
    /// section's own tests read.
    fn section_config() -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(11);
        config.start = Datetime::from_ymd(2024, 2, 15).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 25).unwrap();
        config.scale = 30_000;
        config
    }

    /// The report of [`section_config`], computed once per test binary.
    pub(crate) fn small_report() -> &'static StudyReport {
        static REPORT: OnceLock<StudyReport> = OnceLock::new();
        REPORT.get_or_init(|| StudyReport::run_serial(&RunSpec::new(section_config())).0)
    }

    /// The seed-1 report whose headline shapes the paper states, computed
    /// once per test binary.
    pub(crate) fn headline_report() -> &'static StudyReport {
        static REPORT: OnceLock<StudyReport> = OnceLock::new();
        REPORT.get_or_init(|| StudyReport::run_serial(&RunSpec::new(small_config(1))).0)
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
        let json = headline_report().to_json();
        let number = |section: &str, key: &str| json[section][key].as_f64().unwrap();

        // Table 1: commits dominate the firehose.
        let rows = json["table1"]["rows"].as_array().unwrap();
        let commits = rows
            .iter()
            .find(|r| r["type"].as_str() == Some("Repo Commit"));
        let commit_share = commits.unwrap()["share_pct"].as_f64().unwrap();
        assert!(commit_share > 90.0, "commit share {commit_share}");

        // §4: likes outnumber posts, posts outnumber reposts.
        let total = |key: &str| json["section4"]["totals"][key].as_u64().unwrap();
        let (posts, likes, reposts) = (total("posts"), total("likes"), total("reposts"));
        assert!(likes > posts && posts > reposts && total("blocks") < reposts);

        // §5: custodial handles dominate; DNS TXT proofs dominate.
        assert!(number("section5", "bsky_social_share_pct") > 95.0);
        assert!(number("section5", "dns_txt_share_pct") > 80.0);

        // §6: community labelers issue the majority of recent labels.
        assert!(number("section6", "community_share_last_month_pct") > 50.0);

        // §7: the largest platform (Skyfeed) hosts over half the feeds; some
        // feeds never curated.
        assert!(number("section7", "skyfeed_share_pct") > 50.0);
        assert!(number("section7", "never_curated_pct") > 0.0);
    }

    /// The merge law, pinned per analyzer: fold the whole recorded stream vs
    /// split it at a random point, fold the halves into two fresh
    /// analyzers, merge, and compare the finished outputs.
    fn assert_split_merge_equals_fold<A, F>(make: F, world: &World, tape: &[OwnedObservation])
    where
        A: Analyzer,
        A::Output: PartialEq + std::fmt::Debug,
        F: Fn() -> A,
    {
        let ctx = StudyCtx::new(world);
        let fold = |items: &[OwnedObservation]| {
            let mut analyzer = make();
            for item in items {
                analyzer.observe(&item.as_observation(), &ctx);
            }
            analyzer
        };
        let expected = fold(tape).finish(&ctx);
        // Seeded test RNG: reproducible split points.
        let mut rng = SimRng::new(0xfeed);
        for _ in 0..8 {
            let split = rng.range(0..tape.len().max(1));
            let mut first = fold(&tape[..split]);
            first.merge(fold(&tape[split..]));
            let merged = first.finish(&ctx);
            assert!(
                merged == expected,
                "split at {split}/{} diverged",
                tape.len()
            );
        }
    }

    #[test]
    fn every_analyzer_satisfies_the_merge_law() {
        // The live tape: day boundaries, weekly identifier snapshots and
        // daily label batches interleaved with the firehose exactly as the
        // producer emitted them.
        let mut world = World::new(section_config());
        let mut tape: Vec<OwnedObservation> = Vec::new();
        Collector::new().stream(&mut world, &mut tape);
        assert!(tape
            .iter()
            .any(|o| matches!(o, OwnedObservation::DayBoundary { .. })));
        assert_split_merge_equals_fold(Table1Analyzer::default, &world, &tape);
        assert_split_merge_equals_fold(ActivityAnalyzer::default, &world, &tape);
        assert_split_merge_equals_fold(Section4Analyzer::default, &world, &tape);
        assert_split_merge_equals_fold(IdentityAnalyzer::default, &world, &tape);
        assert_split_merge_equals_fold(ModerationAnalyzer::default, &world, &tape);
        assert_split_merge_equals_fold(RecommendationAnalyzer::default, &world, &tape);
        assert_split_merge_equals_fold(FirehoseVolumeAnalyzer::default, &world, &tape);
        assert_split_merge_equals_fold(ObservatoryAnalyzer::default, &world, &tape);
    }
}
