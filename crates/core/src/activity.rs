//! §4: user activity — Figures 1–2 and the repositories' operation totals,
//! then account popularity and non-Bluesky content.

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation};
use crate::stats;
use bsky_atproto::nsid::known;
use bsky_atproto::Did;
use std::collections::{BTreeMap, BTreeSet};

/// Figure 1 / Figure 2: daily activity series (aggregated monthly for
/// rendering).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActivitySeries {
    /// Per-month `(month, active users, posts, likes, reposts)`.
    monthly: Vec<(String, u64, u64, u64, u64)>,
    /// Per-month per-language active users (Figure 2).
    monthly_by_language: Vec<(String, Vec<(String, u64)>)>,
    /// Grand totals `(posts, likes, follows, reposts, blocks)` from the
    /// repositories dataset (§4 text).
    totals: (u64, u64, u64, u64, u64),
}

/// Incremental Figures 1–2 plus §4's operation totals, folded per
/// repository snapshot.
#[derive(Debug, Default)]
pub(crate) struct ActivityAnalyzer {
    totals: (u64, u64, u64, u64, u64),
    /// Month → language → the DIDs that posted in it.
    daily_users: BTreeMap<String, BTreeMap<String, BTreeSet<Did>>>,
    monthly_ops: BTreeMap<String, (BTreeSet<Did>, u64, u64, u64)>,
}

impl Analyzer for ActivityAnalyzer {
    type Output = ActivitySeries;

    fn observe(&mut self, obs: &Observation<'_>) {
        let Observation::Repo(repo) = obs else {
            return;
        };
        // A set copies the DID only when it is new to that month, and a
        // table its month or language key only when it is new to it.
        let did = &repo.did;
        let note = |users: &mut BTreeSet<Did>| {
            if !users.contains(did) {
                users.insert(did.clone());
            }
        };
        for record in repo.records() {
            let Some(month) = record.month else {
                continue;
            };
            match record.collection.as_str() {
                known::POST => {
                    self.totals.0 += 1;
                    let entry = stats::slot(&mut self.monthly_ops, month);
                    note(&mut entry.0);
                    entry.1 += 1;
                    let langs = stats::slot(&mut self.daily_users, month);
                    note(stats::slot(langs, record.lang.unwrap_or("und")));
                }
                known::LIKE => {
                    self.totals.1 += 1;
                    let entry = stats::slot(&mut self.monthly_ops, month);
                    note(&mut entry.0);
                    entry.2 += 1;
                }
                known::FOLLOW => self.totals.2 += 1,
                known::REPOST => {
                    self.totals.3 += 1;
                    let entry = stats::slot(&mut self.monthly_ops, month);
                    note(&mut entry.0);
                    entry.3 += 1;
                }
                known::BLOCK => self.totals.4 += 1,
                _ => {}
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.totals.0 += other.totals.0;
        self.totals.1 += other.totals.1;
        self.totals.2 += other.totals.2;
        self.totals.3 += other.totals.3;
        self.totals.4 += other.totals.4;
        for (month, langs) in other.daily_users {
            let into = self.daily_users.entry(month).or_default();
            for (lang, users) in langs {
                into.entry(lang).or_default().extend(users);
            }
        }
        for (month, (users, posts, likes, reposts)) in other.monthly_ops {
            let entry = self.monthly_ops.entry(month).or_default();
            entry.0.extend(users);
            entry.1 += posts;
            entry.2 += likes;
            entry.3 += reposts;
        }
    }

    fn finish(self) -> ActivitySeries {
        let monthly = self
            .monthly_ops
            .iter()
            .map(|(month, (users, posts, likes, reposts))| {
                (month.clone(), users.len() as u64, *posts, *likes, *reposts)
            })
            .collect();
        let monthly_by_language = self
            .daily_users
            .into_iter()
            .map(|(month, langs)| {
                let langs = langs.into_iter();
                let users = langs.map(|(lang, users)| (lang, users.len() as u64));
                (month, users.collect())
            })
            .collect();
        ActivitySeries {
            monthly,
            monthly_by_language,
            totals: self.totals,
        }
    }
}

impl ActivitySeries {
    /// Render Figure 1's series, then Figure 2's per-language series.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Figure 1: Monthly active users and operations\nMonth    | Active | Posts   | Likes   | Reposts\n");
        for (month, users, posts, likes, reposts) in &self.monthly {
            out.push_str(&format!(
                "{month} | {users:>6} | {posts:>7} | {likes:>7} | {reposts:>7}\n"
            ));
        }
        let (p, l, f, r, b) = self.totals;
        out.push_str(&format!(
            "Totals: {p} posts, {l} likes, {f} follows, {r} reposts, {b} blocks\n"
        ));
        out.push_str("\nFigure 2: Monthly active posting users per language community\n");
        for (month, langs) in &self.monthly_by_language {
            let mut sorted = langs.clone();
            sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let row: Vec<String> = sorted
                .iter()
                .take(5)
                .map(|(l, c)| format!("{l}:{c}"))
                .collect();
            out.push_str(&format!("{month} | {}\n", row.join("  ")));
        }
        out
    }
}

/// §4 account popularity and non-Bluesky content.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Section4 {
    /// Most-followed accounts `(DID, followers)`.
    most_followed: Vec<(Did, u64)>,
    /// Most-blocked accounts `(DID, blocks)`.
    most_blocked: Vec<(Did, u64)>,
    /// Number of non-Bluesky (third-party lexicon) records observed on the
    /// firehose.
    non_bsky_records: u64,
    /// Total firehose events for context.
    firehose_events: u64,
}

/// Incremental §4 popularity and non-Bluesky content accumulator.
#[derive(Debug, Default)]
pub(crate) struct Section4Analyzer {
    followers: BTreeMap<Did, u64>,
    blocks: BTreeMap<Did, u64>,
    non_bsky: u64,
    firehose_events: u64,
}

impl Analyzer for Section4Analyzer {
    type Output = Section4;

    fn observe(&mut self, obs: &Observation<'_>) {
        match obs {
            Observation::Firehose(_) => self.firehose_events += 1,
            Observation::Repo(repo) => {
                for record in repo.records() {
                    match (record.collection.as_str(), record.subject) {
                        (known::FOLLOW, Some(subject)) => {
                            *stats::slot(&mut self.followers, subject) += 1
                        }
                        (known::BLOCK, Some(subject)) => {
                            *stats::slot(&mut self.blocks, subject) += 1
                        }
                        _ => {}
                    }
                    if !record.collection.is_bluesky_lexicon() {
                        self.non_bsky += 1;
                    }
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        stats::add_counts(&mut self.followers, other.followers);
        stats::add_counts(&mut self.blocks, other.blocks);
        self.non_bsky += other.non_bsky;
        self.firehose_events += other.firehose_events;
    }

    fn finish(self) -> Section4 {
        let mut most_followed: Vec<(Did, u64)> = self.followers.into_iter().collect();
        most_followed.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        most_followed.truncate(5);
        let mut most_blocked: Vec<(Did, u64)> = self.blocks.into_iter().collect();
        most_blocked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        most_blocked.truncate(5);
        Section4 {
            most_followed,
            most_blocked,
            non_bsky_records: self.non_bsky,
            firehose_events: self.firehose_events,
        }
    }
}

impl Section4 {
    /// Render the §4 summary.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Section 4: account popularity and non-Bluesky content\n");
        out.push_str("Most followed accounts:\n");
        for (did, n) in &self.most_followed {
            out.push_str(&format!("  {did} — {n} followers\n"));
        }
        out.push_str("Most blocked accounts:\n");
        for (did, n) in &self.most_blocked {
            out.push_str(&format!("  {did} — {n} blocks\n"));
        }
        out.push_str(&format!(
            "Non-Bluesky lexicon records: {} (of {} firehose events)\n",
            self.non_bsky_records, self.firehose_events
        ));
        out
    }

    /// The §4 slice of the JSON export: the repositories' operation totals
    /// (from `activity`) and the non-Bluesky record count.
    pub(crate) fn to_json(&self, activity: &ActivitySeries) -> Json {
        let (posts, likes, follows, reposts, blocks) = activity.totals;
        let totals = Json::object()
            .with("posts", posts)
            .with("likes", likes)
            .with("follows", follows)
            .with("reposts", reposts)
            .with("blocks", blocks);
        Json::object()
            .with("totals", totals)
            .with("non_bsky_records", self.non_bsky_records)
    }
}

#[cfg(test)]
mod tests {
    use crate::report::tests::small_report;

    #[test]
    fn activity_and_section4_run_and_render() {
        let report = small_report();
        let activity = &report.activity;
        assert!(!activity.monthly.is_empty());
        assert!(activity.totals.1 > activity.totals.0, "likes > posts");
        let rendered = activity.render();
        assert!(rendered.contains("Totals"));
        assert!(rendered.contains("Figure 2"));

        let s4 = &report.section4;
        assert!(!s4.most_followed.is_empty());
        assert!(s4.render().contains("Most followed"));
    }
}
