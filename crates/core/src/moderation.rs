//! §6: content moderation — the labeling services, their labels and
//! reaction times (Tables 3, 4 and 6, Figures 4–6).

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation};
use crate::stats::{self, month_of};
use bsky_atproto::firehose::EventBody;
use bsky_atproto::label::LabelTargetKind;
use bsky_atproto::nsid::known;
use bsky_atproto::{Datetime, Did};
use bsky_workload::net::HostingClass;
use bsky_workload::service::{LabelerOperator, REACTION_WINDOW_DAYS};
use std::collections::{BTreeMap, BTreeSet};

/// Labeling-service dataset entry: the service's metadata. Its labels
/// arrive separately, as [`Observation::Labels`] batches.
#[derive(Debug, Clone)]
pub struct LabelerEntry {
    /// The labeler's account DID.
    pub(crate) did: Did,
    /// Display name.
    pub(crate) name: String,
    /// Operator class.
    pub(crate) operator: LabelerOperator,
    /// Endpoint hosting classification (from the active measurements).
    pub(crate) hosting: HostingClass,
    /// Whether the endpoint answered.
    pub(crate) functional: bool,
}

/// One Table 4 row: `(target kind, objects, share %, top values)`.
pub(crate) type LabelTargetRow = (String, u64, f64, Vec<(String, u64)>);

/// Per-labeler reaction-time statistics (Table 6 / Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabelerReaction {
    /// Labeler DID.
    did: String,
    /// Display name.
    name: String,
    /// Operator class.
    community: bool,
    /// Top label values by application count.
    top_values: Vec<String>,
    /// Distinct values emitted.
    unique_values: u64,
    /// Total labels applied (excluding negations).
    total: u64,
    /// Share of all labels (%).
    share: f64,
    /// Median reaction time in seconds (posts only).
    median_reaction_secs: Option<f64>,
    /// Interquartile distance of the reaction time.
    iqd_reaction_secs: Option<f64>,
}

/// The §6 moderation report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModerationReport {
    /// Announced / functional / active labeler counts.
    labeler_counts: (u64, u64, u64),
    /// Endpoint hosting classification `(cloud, residential, dead)`.
    hosting: (u64, u64, u64),
    /// Figure 4: per-month labels by source `(month, bluesky, community)` and
    /// cumulative community labelers.
    labels_by_month: Vec<(String, u64, u64, u64)>,
    /// Community share of labels in the last full month (%).
    community_share_last_month: f64,
    /// Total label interactions and rescissions.
    interactions: (u64, u64),
    /// Unique labeled objects.
    unique_objects: u64,
    /// Share of last-month posts that received a label (%).
    last_month_posts_labeled_share: f64,
    /// Distinct label values (raw and after cleaning).
    label_values: (u64, u64),
    /// Share of labeled objects carrying labels from multiple services (%).
    multi_service_share: f64,
    /// Share of objects labeled by both Bluesky and a community labeler (%).
    bluesky_community_overlap_share: f64,
    /// Table 3: top community labelers `(name, labels applied, likes)`.
    table3: Vec<(String, u64, u64)>,
    /// Table 4: label targets `(kind, objects, share %, top values)`.
    table4: Vec<LabelTargetRow>,
    /// Table 6 / Figure 5: per-labeler reaction statistics.
    table6: Vec<LabelerReaction>,
    /// Figure 6: per-value `(value, objects, median reaction s, community)`.
    figure6: Vec<(String, u64, f64, bool)>,
}

/// Per-labeler accumulator feeding Tables 3/6 and Figures 4/5.
#[derive(Debug, Default)]
struct LabelerAcc {
    /// The labeler's announcement, once it has arrived.
    meta: Option<LabelerEntry>,
    values: BTreeMap<String, u64>,
    reactions: Vec<f64>,
    applied: u64,
    stream_entries: u64,
    /// Applied labels per month (split Bluesky vs community at finish).
    per_month: BTreeMap<String, u64>,
    /// Objects this labeler labeled.
    objects: BTreeSet<String>,
    /// First month with an applied label.
    first_month: Option<String>,
}

impl LabelerAcc {
    /// Display name (empty until the announcement arrives).
    fn name(&self) -> String {
        self.meta
            .as_ref()
            .map(|m| m.name.clone())
            .unwrap_or_default()
    }

    /// Community-operated, or never announced.
    fn is_community(&self) -> bool {
        self.meta
            .as_ref()
            .is_none_or(|m| m.operator == LabelerOperator::Community)
    }

    fn absorb(&mut self, other: LabelerAcc) {
        if self.meta.is_none() {
            self.meta = other.meta;
        }
        stats::add_counts(&mut self.values, other.values);
        self.reactions.extend(other.reactions);
        self.applied += other.applied;
        self.stream_entries += other.stream_entries;
        stats::add_counts(&mut self.per_month, other.per_month);
        self.objects.extend(other.objects);
        self.first_month = match (self.first_month.take(), other.first_month) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A label whose post was not (yet) seen when the label streamed by.
/// Resolved against the other half's post index at merge time; labels whose
/// posts never appear simply have no reaction time (matching the study:
/// labels on pre-window posts are volume-counted but not reaction-timed).
#[derive(Debug, Clone)]
struct PendingReaction {
    object: String,
    value: String,
    labeler: String,
    label_created: Datetime,
}

/// Incremental §6 moderation analyses.
///
/// Labeler metadata arrives when a service is announced; its label stream
/// arrives in daily batches. Reaction times are measured against the
/// post-creation index built from firehose commits — and because every
/// labeler's reaction delay is bounded by
/// [`bsky_workload::service::REACTION_WINDOW_DAYS`], that index is *aged
/// out* at every day boundary: entries older than the reaction window can
/// never match a future label, so peak index size is bounded by one
/// window's worth of posts instead of the whole collection (the former
/// `--scale 100` memory ceiling).
#[derive(Debug, Default)]
pub(crate) struct ModerationAnalyzer {
    collection_end: Datetime,
    /// Post URI → firehose arrival time, aged past the reaction window.
    post_created: BTreeMap<String, Datetime>,
    /// Posts per month (bounded by the number of months).
    posts_per_month: BTreeMap<String, u64>,
    /// Per-labeler accumulators, keyed by DID.
    accs: BTreeMap<String, LabelerAcc>,
    /// Labeled object → labeler DIDs.
    objects: BTreeMap<String, BTreeSet<String>>,
    object_kind: BTreeMap<String, LabelTargetKind>,
    /// Labeled post → its creation month (bounded by labeled objects).
    labeled_post_month: BTreeMap<String, String>,
    value_counts: BTreeMap<String, u64>,
    value_reactions: BTreeMap<String, Vec<f64>>,
    per_target_kind: BTreeMap<LabelTargetKind, BTreeMap<String, u64>>,
    raw_values: BTreeSet<String>,
    applied_values: BTreeSet<String>,
    interactions: u64,
    rescissions: u64,
    likes_on_accounts: BTreeMap<String, u64>,
    pending: Vec<PendingReaction>,
}

impl ModerationAnalyzer {
    /// Record one measured reaction: the post's creation month (for the
    /// last-month labeled share), the per-labeler delta and the per-value
    /// delta.
    fn record_reaction(
        &mut self,
        labeler: &str,
        value: &str,
        object: &str,
        post_created: Datetime,
        label_created: Datetime,
    ) {
        let delta = (label_created.timestamp() - post_created.timestamp()).max(0) as f64;
        self.labeled_post_month
            .insert(object.to_string(), month_of(post_created));
        if let Some(acc) = self.accs.get_mut(labeler) {
            acc.reactions.push(delta);
        }
        self.value_reactions
            .entry(value.to_string())
            .or_default()
            .push(delta);
    }
}

impl Analyzer for ModerationAnalyzer {
    type Output = ModerationReport;

    fn observe(&mut self, obs: &Observation<'_>) {
        match obs {
            Observation::WindowStart { collection_end, .. } => {
                self.collection_end = *collection_end;
            }
            // Age out the post index: a label for a post always surfaces
            // within the bounded reaction window, so entries older than the
            // window (plus one day of publication slack) can never match.
            Observation::DayBoundary { day } => {
                let cutoff = day.timestamp() - (REACTION_WINDOW_DAYS + 1) * 86_400;
                self.post_created.retain(|_, t| t.timestamp() >= cutoff);
            }
            // Post creation times from firehose commit ops (the paper
            // computes reaction times against posts received from the
            // firehose since Mar 6).
            Observation::Firehose(event) => {
                if let EventBody::Commit { did, ops, .. } = &event.body {
                    let did = did.as_string();
                    for op in ops {
                        if op.collection() == known::POST {
                            let uri = ["at://", &did, "/", &op.key].concat();
                            if let std::collections::btree_map::Entry::Vacant(e) =
                                self.post_created.entry(uri)
                            {
                                e.insert(event.time);
                                *self
                                    .posts_per_month
                                    .entry(month_of(event.time))
                                    .or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            Observation::Labeler(entry) => {
                let acc = self.accs.entry(entry.did.as_string()).or_default();
                acc.meta = Some((*entry).clone());
            }
            Observation::Labels { src, labels } => {
                let key = src.as_string();
                for label in labels.iter() {
                    self.interactions += 1;
                    self.raw_values.insert(label.value.clone());
                    let acc = self.accs.entry(key.clone()).or_default();
                    acc.stream_entries += 1;
                    if label.negated {
                        self.rescissions += 1;
                        continue;
                    }
                    acc.applied += 1;
                    *acc.values.entry(label.value.clone()).or_insert(0) += 1;
                    let month = month_of(label.created_at);
                    *acc.per_month.entry(month.clone()).or_insert(0) += 1;
                    acc.first_month = match acc.first_month.take() {
                        Some(m) => Some(m.min(month)),
                        None => Some(month),
                    };
                    self.applied_values.insert(label.value.clone());
                    *self.value_counts.entry(label.value.clone()).or_insert(0) += 1;
                    let object = label.target.uri();
                    acc.objects.insert(object.clone());
                    self.objects
                        .entry(object.clone())
                        .or_default()
                        .insert(key.clone());
                    self.object_kind.insert(object.clone(), label.target.kind());
                    *self
                        .per_target_kind
                        .entry(label.target.kind())
                        .or_default()
                        .entry(label.value.clone())
                        .or_insert(0) += 1;
                    // Reaction time against the post's firehose arrival.
                    match self.post_created.get(&object).copied() {
                        Some(created) => {
                            self.record_reaction(
                                &key,
                                &label.value,
                                &object,
                                created,
                                label.created_at,
                            );
                        }
                        None => self.pending.push(PendingReaction {
                            object,
                            value: label.value.clone(),
                            labeler: key.clone(),
                            label_created: label.created_at,
                        }),
                    }
                }
            }
            Observation::Repo(repo) => {
                // Table 3's likes column: likes on labeler accounts.
                for record in repo.records() {
                    if let (known::LIKE, Some(subject)) =
                        (record.collection.as_str(), record.subject)
                    {
                        *self
                            .likes_on_accounts
                            .entry(subject.as_string())
                            .or_insert(0) += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        if self.collection_end == Datetime::default() {
            self.collection_end = other.collection_end;
        }
        // Post indices are disjoint-keyed (each post arrives once) except
        // under artificial replays; first writer wins either way.
        for (uri, time) in other.post_created {
            self.post_created.entry(uri).or_insert(time);
        }
        stats::add_counts(&mut self.posts_per_month, other.posts_per_month);
        for (did, acc) in other.accs {
            self.accs.entry(did).or_default().absorb(acc);
        }
        for (object, dids) in other.objects {
            self.objects.entry(object).or_default().extend(dids);
        }
        for (object, kind) in other.object_kind {
            self.object_kind.entry(object).or_insert(kind);
        }
        for (object, month) in other.labeled_post_month {
            self.labeled_post_month.entry(object).or_insert(month);
        }
        stats::add_counts(&mut self.value_counts, other.value_counts);
        for (value, reactions) in other.value_reactions {
            self.value_reactions
                .entry(value)
                .or_default()
                .extend(reactions);
        }
        for (kind, values) in other.per_target_kind {
            stats::add_counts(self.per_target_kind.entry(kind).or_default(), values);
        }
        self.raw_values.extend(other.raw_values);
        self.applied_values.extend(other.applied_values);
        self.interactions += other.interactions;
        self.rescissions += other.rescissions;
        stats::add_counts(&mut self.likes_on_accounts, other.likes_on_accounts);
        // Re-resolve pending reactions against the combined post index: a
        // stream split can separate a label from its post, and the merge
        // must heal exactly that.
        let mut pending = std::mem::take(&mut self.pending);
        pending.extend(other.pending);
        for p in pending {
            match self.post_created.get(&p.object).copied() {
                Some(created) => {
                    self.record_reaction(&p.labeler, &p.value, &p.object, created, p.label_created)
                }
                None => self.pending.push(p),
            }
        }
    }

    fn finish(self) -> ModerationReport {
        // Labels whose posts never appeared on the stream (pre-window
        // posts) keep their volume counts but have no reaction time — drop
        // the leftover pendings.
        let official: Option<String> = self
            .accs
            .iter()
            .find(|(_, acc)| {
                acc.meta
                    .as_ref()
                    .is_some_and(|m| m.operator == LabelerOperator::BlueskyOfficial)
            })
            .map(|(did, _)| did.clone());

        let mut announced = 0u64;
        let mut functional = 0u64;
        let mut active = 0u64;
        let mut hosting = (0u64, 0u64, 0u64);
        for acc in self.accs.values() {
            let Some(meta) = &acc.meta else { continue };
            announced += 1;
            if meta.functional {
                functional += 1;
            }
            if acc.stream_entries > 0 {
                active += 1;
            }
            match meta.hosting {
                HostingClass::Cloud => hosting.0 += 1,
                HostingClass::Residential => hosting.1 += 1,
                HostingClass::Dead => hosting.2 += 1,
            }
        }

        let total_applied: u64 = self.accs.values().map(|a| a.applied).sum();
        let mut table6 = Vec::new();
        for (did, acc) in &self.accs {
            if acc.applied == 0 {
                continue;
            }
            let mut top: Vec<(String, u64)> =
                acc.values.iter().map(|(v, c)| (v.clone(), *c)).collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            table6.push(LabelerReaction {
                did: did.clone(),
                name: acc.name(),
                community: acc.is_community(),
                unique_values: top.len() as u64,
                top_values: top.iter().take(3).map(|(v, _)| v.clone()).collect(),
                total: acc.applied,
                share: stats::share(acc.applied, total_applied.max(1)),
                median_reaction_secs: stats::median(&acc.reactions),
                iqd_reaction_secs: stats::iqd(&acc.reactions),
            });
        }
        table6.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.name.cmp(&b.name)));

        // Figure 4 series with cumulative community labeler count.
        let mut per_month: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for acc in self.accs.values() {
            let is_community = acc.is_community();
            for (month, count) in &acc.per_month {
                let slot = per_month.entry(month.clone()).or_insert((0, 0));
                if is_community {
                    slot.1 += count;
                } else {
                    slot.0 += count;
                }
            }
        }
        let mut labels_by_month: Vec<(String, u64, u64, u64)> = Vec::new();
        let mut seen_labelers: BTreeSet<String> = BTreeSet::new();
        for (month, (bluesky, community_count)) in &per_month {
            for (did, acc) in &self.accs {
                if !acc.is_community() {
                    continue;
                }
                if let Some(first) = &acc.first_month {
                    if first <= month {
                        seen_labelers.insert(did.clone());
                    }
                }
            }
            labels_by_month.push((
                month.clone(),
                *bluesky,
                *community_count,
                seen_labelers.len() as u64,
            ));
        }
        let community_share_last_month = labels_by_month
            .last()
            .map(|(_, b, c, _)| stats::share(*c, b + c))
            .unwrap_or(0.0);

        // Last-month labeled-post share: posts created in the last full month
        // of the window vs labeled objects created in that month.
        let last_month = month_of(self.collection_end.plus_days(-15));
        let posts_last_month = self.posts_per_month.get(&last_month).copied().unwrap_or(0);
        let labeled_posts_last_month = self
            .labeled_post_month
            .values()
            .filter(|month| **month == last_month)
            .count() as u64;

        // Table 3: top community labelers with likes on their accounts.
        let mut table3: Vec<(String, u64, u64)> = self
            .accs
            .iter()
            .filter(|(_, acc)| acc.is_community() && acc.applied > 0)
            .map(|(did, acc)| {
                let likes = self.likes_on_accounts.get(did).copied().unwrap_or(0);
                (acc.name(), acc.applied, likes)
            })
            .collect();
        table3.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        table3.truncate(5);

        // Table 4: label targets.
        let total_objects = self.objects.len() as u64;
        let mut table4 = Vec::new();
        for kind in [
            LabelTargetKind::Post,
            LabelTargetKind::Account,
            LabelTargetKind::BannerAvatar,
        ] {
            let count = self.object_kind.values().filter(|k| **k == kind).count() as u64;
            let mut top: Vec<(String, u64)> = self
                .per_target_kind
                .get(&kind)
                .map(|m| m.iter().map(|(v, c)| (v.clone(), *c)).collect())
                .unwrap_or_default();
            top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            top.truncate(5);
            table4.push((
                kind.display_name().to_string(),
                count,
                stats::share(count, total_objects.max(1)),
                top,
            ));
        }

        // Figure 6: per-value reaction times. A value counts as community
        // when every labeler applying it is community-operated.
        let mut value_community: BTreeMap<&String, bool> = BTreeMap::new();
        for acc in self.accs.values() {
            let is_community = acc.is_community();
            for value in acc.values.keys() {
                value_community
                    .entry(value)
                    .and_modify(|c| *c = *c && is_community)
                    .or_insert(is_community);
            }
        }
        let mut figure6: Vec<(String, u64, f64, bool)> = self
            .value_counts
            .iter()
            .map(|(value, count)| {
                let median = self
                    .value_reactions
                    .get(value)
                    .and_then(|v| stats::median(v))
                    .unwrap_or(0.0);
                (
                    value.clone(),
                    *count,
                    median,
                    value_community.get(value).copied().unwrap_or(true),
                )
            })
            .collect();
        figure6.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        // Overlap statistics.
        let multi_service = self.objects.values().filter(|s| s.len() > 1).count() as u64;
        let bluesky_objects: BTreeSet<&String> = official
            .as_ref()
            .and_then(|did| self.accs.get(did))
            .map(|acc| acc.objects.iter().collect())
            .unwrap_or_default();
        let mut community_objects: BTreeSet<&String> = BTreeSet::new();
        for (did, acc) in &self.accs {
            if Some(did) != official.as_ref() {
                community_objects.extend(acc.objects.iter());
            }
        }
        let both = bluesky_objects.intersection(&community_objects).count() as u64;

        ModerationReport {
            labeler_counts: (announced, functional, active),
            hosting,
            labels_by_month,
            community_share_last_month,
            interactions: (self.interactions, self.rescissions),
            unique_objects: total_objects,
            last_month_posts_labeled_share: stats::share(
                labeled_posts_last_month,
                posts_last_month.max(1),
            ),
            label_values: (
                self.raw_values.len() as u64,
                self.applied_values.len() as u64,
            ),
            multi_service_share: stats::share(multi_service, total_objects.max(1)),
            bluesky_community_overlap_share: stats::share(both, total_objects.max(1)),
            table3,
            table4,
            table6,
            figure6,
        }
    }
}

impl ModerationReport {
    /// Render §6, Tables 3/4/6 and Figures 4/5/6.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Section 6: content moderation\n");
        let (a, f, act) = self.labeler_counts;
        out.push_str(&format!(
            "Labelers: {a} announced, {f} functional, {act} issued ≥1 label\n"
        ));
        let (cloud, res, dead) = self.hosting;
        out.push_str(&format!(
            "Endpoints: {cloud} cloud / {res} residential / {dead} not functional\n"
        ));
        out.push_str(&format!(
            "Label interactions: {} (incl. {} rescinded), {} unique objects, {} -> {} label values\n",
            self.interactions.0, self.interactions.1, self.unique_objects,
            self.label_values.0, self.label_values.1
        ));
        out.push_str(&format!(
            "Community share of labels in final month: {:.1} %\n",
            self.community_share_last_month
        ));
        out.push_str(&format!(
            "Share of final-month posts labeled: {:.2} %   multi-service objects: {:.1} %   Bluesky∩community objects: {:.1} %\n",
            self.last_month_posts_labeled_share, self.multi_service_share,
            self.bluesky_community_overlap_share
        ));
        out.push_str("Figure 4: labels per month by source (+ cumulative community labelers)\n");
        for (month, bluesky, community, labelers) in &self.labels_by_month {
            out.push_str(&format!(
                "  {month} | bluesky {bluesky:>8} | community {community:>8} | labelers {labelers}\n"
            ));
        }
        out.push_str("Table 3: Top community labelers by labels applied\n");
        for (i, (name, count, likes)) in self.table3.iter().enumerate() {
            out.push_str(&format!(
                "  {} {name:<42} {count:>8} labels  {likes:>5} likes\n",
                i + 1
            ));
        }
        out.push_str("Table 4: Label targets with most-applied labels\n");
        for (kind, count, share, top) in &self.table4 {
            let tops: Vec<String> = top.iter().map(|(v, c)| format!("{v} ({c})")).collect();
            out.push_str(&format!(
                "  {kind:<14} {count:>8} ({share:>5.2} %)  {}\n",
                tops.join(", ")
            ));
        }
        out.push_str("Table 6 / Figure 5: per-labeler volumes and reaction times\n");
        for row in &self.table6 {
            out.push_str(&format!(
                "  {:<40} {:>8} labels ({:>5.2} %)  median {}  iqd {}  [{}]\n",
                row.name,
                row.total,
                row.share,
                row.median_reaction_secs
                    .map(|v| format!("{v:.2}s"))
                    .unwrap_or_else(|| "-".into()),
                row.iqd_reaction_secs
                    .map(|v| format!("{v:.2}s"))
                    .unwrap_or_else(|| "-".into()),
                if row.community {
                    "community"
                } else {
                    "bluesky"
                },
            ));
        }
        out.push_str("Figure 6: objects per label value vs reaction time\n");
        for (value, count, median, community) in self.figure6.iter().take(20) {
            out.push_str(&format!(
                "  {value:<28} {count:>8} objects  median {median:>10.2}s  [{}]\n",
                if *community { "community" } else { "bluesky" }
            ));
        }
        out
    }

    /// The §6 slice of the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        Json::object()
            .with("labelers_announced", self.labeler_counts.0)
            .with("labelers_functional", self.labeler_counts.1)
            .with("labelers_active", self.labeler_counts.2)
            .with(
                "community_share_last_month_pct",
                self.community_share_last_month,
            )
            .with("label_interactions", self.interactions.0)
            .with("rescinded", self.interactions.1)
            .with(
                "posts_labeled_share_pct",
                self.last_month_posts_labeled_share,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Collector;
    use crate::pipeline::StudyCtx;
    use crate::report::tests::{headline_report, small_report};
    use bsky_workload::{ScenarioConfig, World};

    #[test]
    fn moderation_runs_and_renders() {
        let moderation = &small_report().moderation;
        assert!(moderation.labeler_counts.0 >= 40);
        assert!(moderation.interactions.0 > 0);
        assert!(!moderation.table6.is_empty());
        assert!(moderation.community_share_last_month > 50.0);
        assert!(moderation.render().contains("Table 3"));

        // The most prolific labeler is an automated one with a sub-minute
        // median.
        let headline = &headline_report().moderation;
        if let Some(median) = headline.table6.first().and_then(|t| t.median_reaction_secs) {
            assert!(median < 60.0, "top labeler median {median}");
        }
    }

    #[test]
    fn moderation_reaction_times_distinguish_automation() {
        let moderation = &small_report().moderation;
        // The alt-text labeler (automated) must be faster than any manual
        // community labeler that has a measured reaction time.
        let automated: Vec<&LabelerReaction> = moderation
            .table6
            .iter()
            .filter(|r| r.name.contains("Alt Text") || r.name.contains("GIFS"))
            .collect();
        let manual: Vec<&LabelerReaction> = moderation
            .table6
            .iter()
            .filter(|r| r.median_reaction_secs.map(|m| m > 3_600.0).unwrap_or(false))
            .collect();
        if let (Some(fast), Some(slow)) = (automated.first(), manual.first()) {
            assert!(
                fast.median_reaction_secs.unwrap_or(f64::MAX)
                    < slow.median_reaction_secs.unwrap_or(0.0)
            );
        }
        // The most prolific labeler labels far more than the median one.
        if moderation.table6.len() >= 3 {
            let top = moderation.table6[0].total;
            let mid = moderation.table6[moderation.table6.len() / 2].total;
            assert!(top >= mid);
        }
    }

    #[test]
    fn moderation_post_index_is_aged_out() {
        let mut config = ScenarioConfig::test_scale(13);
        config.start = Datetime::from_ymd(2024, 1, 10).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 25).unwrap();
        config.scale = 30_000;
        let mut world = World::new(config);
        let mut analyzer = ModerationAnalyzer::default();
        /// Tracks the post index's peak size and the posts seen.
        struct Probe {
            analyzer: ModerationAnalyzer,
            total_posts: usize,
            peak_post_index: usize,
        }
        impl crate::pipeline::ObservationSink for Probe {
            fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
                if let Observation::Firehose(event) = obs {
                    if let EventBody::Commit { ops, .. } = &event.body {
                        self.total_posts += ops
                            .iter()
                            .filter(|op| op.collection() == known::POST)
                            .count();
                    }
                }
                Analyzer::observe(&mut self.analyzer, obs);
                self.peak_post_index = self.peak_post_index.max(self.analyzer.post_created.len());
            }
        }
        analyzer.observe(&Observation::WindowStart {
            firehose_collection_start: config.firehose_collection_start,
            collection_end: config.end,
        });
        let mut probe = Probe {
            analyzer,
            total_posts: 0,
            peak_post_index: 0,
        };
        Collector::new().stream(&mut world, &mut probe);
        // The aged index peaks far below the total number of posts seen.
        assert!(probe.total_posts > 0);
        assert!(
            probe.peak_post_index <= probe.total_posts * 6 / 10,
            "peak {} vs total {}",
            probe.peak_post_index,
            probe.total_posts
        );
        // And the final index holds at most the last reaction window.
        assert!(probe.analyzer.post_created.len() <= probe.peak_post_index);
    }
}
