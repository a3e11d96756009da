//! Table 1 and §9: what the firehose carries — the breakdown of its event
//! types and its daily volume.

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation, StudyCtx};
use crate::stats;
use bsky_atproto::firehose::EventKind;
use std::collections::BTreeMap;

/// Table 1: firehose event-type breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows: `(event type name, count, share %)`.
    pub rows: Vec<(String, u64, f64)>,
    /// Total events.
    pub total: u64,
}

/// Incremental Table 1: counts firehose events by kind.
#[derive(Debug, Default)]
pub(crate) struct Table1Analyzer {
    counts: BTreeMap<EventKind, u64>,
}

impl Analyzer for Table1Analyzer {
    type Output = Table1;

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        if let Observation::Firehose(event) = obs {
            *self.counts.entry(event.kind()).or_insert(0) += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        stats::add_counts(&mut self.counts, other.counts);
    }

    fn finish(self, _ctx: &StudyCtx<'_>) -> Table1 {
        let total: u64 = self.counts.values().sum();
        let rows = EventKind::all()
            .iter()
            .filter(|k| **k != EventKind::Info)
            .map(|k| {
                let count = self.counts.get(k).copied().unwrap_or(0);
                (
                    k.display_name().to_string(),
                    count,
                    stats::share(count, total),
                )
            })
            .collect();
        Table1 { rows, total }
    }
}

impl Table1 {
    /// Render in the paper's format.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Table 1: Overview of Firehose event types\nEvent Type              | # Total      | Share (%)\n");
        for (name, count, share) in &self.rows {
            out.push_str(&format!("{name:<23} | {count:>12} | {share:>8.2}\n"));
        }
        out.push_str(&format!("Total events: {}\n", self.total));
        out
    }

    /// The Table 1 slice of the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|(name, count, share)| {
            Json::object()
                .with("type", name.as_str())
                .with("count", *count)
                .with("share_pct", *share)
        });
        Json::object()
            .with("total_events", self.total)
            .with("rows", Json::Arr(rows.collect()))
    }
}

/// §9 firehose volume estimate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FirehoseVolume {
    /// Mean bytes per day observed on the firehose during collection.
    bytes_per_day: f64,
    /// The same figure extrapolated to the full network size (multiplying by
    /// the scale factor).
    extrapolated_full_network: f64,
}

/// Incremental §9 firehose-volume accumulator.
#[derive(Debug, Default)]
pub(crate) struct FirehoseVolumeAnalyzer {
    per_day: BTreeMap<i64, u64>,
}

impl Analyzer for FirehoseVolumeAnalyzer {
    type Output = FirehoseVolume;

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        if let Observation::Firehose(event) = obs {
            *self.per_day.entry(event.time.day_index()).or_insert(0) += event.wire_size() as u64;
        }
    }

    fn merge(&mut self, other: Self) {
        stats::add_counts(&mut self.per_day, other.per_day);
    }

    fn finish(self, ctx: &StudyCtx<'_>) -> FirehoseVolume {
        let days = self.per_day.len().max(1) as f64;
        let total: u64 = self.per_day.values().sum();
        let bytes_per_day = total as f64 / days;
        FirehoseVolume {
            bytes_per_day,
            extrapolated_full_network: bytes_per_day * ctx.world().config.scale as f64,
        }
    }
}

impl FirehoseVolume {
    /// Render the volume estimate.
    pub(crate) fn render(&self) -> String {
        format!(
            "Section 9: firehose volume ≈ {:.1} MB/day at simulation scale, ≈ {:.1} GB/day extrapolated to the full network\n",
            self.bytes_per_day / 1e6,
            self.extrapolated_full_network / 1e9
        )
    }

    /// The §9 slice of the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        Json::object().with(
            "firehose_gb_per_day_extrapolated",
            self.extrapolated_full_network / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::report::tests::{headline_report, small_report};

    #[test]
    fn table1_and_volume_run_and_render() {
        let report = small_report();
        let t1 = &report.table1;
        assert!(t1.total > 0);
        let commit_share = t1.rows.iter().find(|r| r.0 == "Repo Commit").unwrap().2;
        assert!(commit_share > 90.0, "commit share {commit_share}");
        assert!(t1.render().contains("Repo Commit"));

        // §9: the extrapolated firehose volume is positive and scales with
        // the configured factor.
        for report in [small_report(), headline_report()] {
            let volume = &report.firehose_volume;
            assert!(volume.bytes_per_day > 0.0);
            assert!(volume.extrapolated_full_network > volume.bytes_per_day);
            assert!(volume.render().contains("firehose volume"));
        }
    }
}
