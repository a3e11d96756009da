//! The analyses of §4–§9: every table and figure of the paper, computed
//! *incrementally* from the observation stream plus the active measurements
//! (DNS, WHOIS, Tranco, endpoint classification) the study performed against
//! the network.
//!
//! Each section is an `Analyzer`: `observe` folds one observation into
//! per-entity accumulators, `merge` combines two independently folded states
//! (the primitive behind the sharded engine in [`crate::shard`]), and
//! `finish` computes the result struct with its `render()` method. All
//! analyzers obey the merge law (see [`crate::pipeline`]): splitting any
//! observation stream at any point and merging the two halves' states equals
//! folding the whole stream — the property test at the bottom of this file
//! pins that for every analyzer over a recorded live stream.

use crate::langdetect;
use crate::pipeline::{Analyzer, Observation, StudyCtx};
use crate::stats;
use bsky_atproto::firehose::{EventBody, EventKind};
use bsky_atproto::label::LabelTargetKind;
use bsky_atproto::nsid::known;
use bsky_atproto::Datetime;
use bsky_labeler::{LabelerOperator, REACTION_WINDOW_DAYS};
use bsky_simnet::net::HostingClass;
use std::collections::{BTreeMap, BTreeSet};

fn month_of(dt: Datetime) -> String {
    dt.date().year_month()
}

// ---------------------------------------------------------------------------
// §4 / Table 1 / Figures 1–2
// ---------------------------------------------------------------------------

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
        for (kind, count) in other.counts {
            *self.counts.entry(kind).or_insert(0) += count;
        }
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
}

/// Figure 1 / Figure 2: daily activity series (aggregated monthly for
/// rendering).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActivitySeries {
    /// Per-month `(month, active users, posts, likes, reposts)`.
    pub(crate) monthly: Vec<(String, u64, u64, u64, u64)>,
    /// Per-month per-language active users (Figure 2).
    pub(crate) monthly_by_language: Vec<(String, Vec<(String, u64)>)>,
    /// Grand totals `(posts, likes, follows, reposts, blocks)` from the
    /// repositories dataset (§4 text).
    pub(crate) totals: (u64, u64, u64, u64, u64),
}

/// Incremental Figures 1–2 plus §4's operation totals, folded per
/// repository snapshot.
#[derive(Debug, Default)]
pub(crate) struct ActivityAnalyzer {
    totals: (u64, u64, u64, u64, u64),
    daily_users: BTreeMap<(String, String), BTreeSet<String>>,
    monthly_ops: BTreeMap<String, (BTreeSet<String>, u64, u64, u64)>,
}

impl Analyzer for ActivityAnalyzer {
    type Output = ActivitySeries;

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        let Observation::Repo(repo) = obs else {
            return;
        };
        // Rendered once per repository; a set copies it only when the DID is
        // new to that month.
        let did = repo.did.as_string();
        let note = |users: &mut BTreeSet<String>| {
            if !users.contains(&did) {
                users.insert(did.clone());
            }
        };
        for record in repo.records() {
            let Some(created) = record.created_at else {
                continue;
            };
            let month = month_of(created);
            match record.collection.as_str() {
                known::POST => {
                    self.totals.0 += 1;
                    let entry = self.monthly_ops.entry(month.clone()).or_default();
                    note(&mut entry.0);
                    entry.1 += 1;
                    let lang = record.lang.unwrap_or("und").to_string();
                    note(self.daily_users.entry((month.clone(), lang)).or_default());
                }
                known::LIKE => {
                    self.totals.1 += 1;
                    let entry = self.monthly_ops.entry(month.clone()).or_default();
                    note(&mut entry.0);
                    entry.2 += 1;
                }
                known::FOLLOW => self.totals.2 += 1,
                known::REPOST => {
                    self.totals.3 += 1;
                    let entry = self.monthly_ops.entry(month.clone()).or_default();
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
        for (key, users) in other.daily_users {
            self.daily_users.entry(key).or_default().extend(users);
        }
        for (month, (users, posts, likes, reposts)) in other.monthly_ops {
            let entry = self.monthly_ops.entry(month).or_default();
            entry.0.extend(users);
            entry.1 += posts;
            entry.2 += likes;
            entry.3 += reposts;
        }
    }

    fn finish(self, _ctx: &StudyCtx<'_>) -> ActivitySeries {
        let monthly = self
            .monthly_ops
            .iter()
            .map(|(month, (users, posts, likes, reposts))| {
                (month.clone(), users.len() as u64, *posts, *likes, *reposts)
            })
            .collect();
        let mut by_lang: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        for ((month, lang), users) in &self.daily_users {
            by_lang
                .entry(month.clone())
                .or_default()
                .push((lang.clone(), users.len() as u64));
        }
        let monthly_by_language = by_lang.into_iter().collect();
        ActivitySeries {
            monthly,
            monthly_by_language,
            totals: self.totals,
        }
    }
}

impl ActivitySeries {
    /// Render Figure 1's series.
    pub(crate) fn render_figure1(&self) -> String {
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
        out
    }

    /// Render Figure 2's per-language series.
    pub(crate) fn render_figure2(&self) -> String {
        let mut out =
            String::from("Figure 2: Monthly active posting users per language community\n");
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
    /// Most-followed accounts `(handle-ish DID, followers)`.
    pub(crate) most_followed: Vec<(String, u64)>,
    /// Most-blocked accounts `(DID, blocks)`.
    pub(crate) most_blocked: Vec<(String, u64)>,
    /// Number of non-Bluesky (third-party lexicon) records observed on the
    /// firehose.
    pub(crate) non_bsky_records: u64,
    /// Total firehose events for context.
    pub(crate) firehose_events: u64,
}

/// Incremental §4 popularity and non-Bluesky content accumulator.
#[derive(Debug, Default)]
pub(crate) struct Section4Analyzer {
    followers: BTreeMap<String, u64>,
    blocks: BTreeMap<String, u64>,
    non_bsky: u64,
    firehose_events: u64,
}

impl Analyzer for Section4Analyzer {
    type Output = Section4;

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        match obs {
            Observation::Firehose(_) => self.firehose_events += 1,
            Observation::Repo(repo) => {
                for record in repo.records() {
                    match (record.collection.as_str(), record.subject) {
                        (known::FOLLOW, Some(subject)) => {
                            *self.followers.entry(subject.as_string()).or_insert(0) += 1
                        }
                        (known::BLOCK, Some(subject)) => {
                            *self.blocks.entry(subject.as_string()).or_insert(0) += 1
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
        for (did, count) in other.followers {
            *self.followers.entry(did).or_insert(0) += count;
        }
        for (did, count) in other.blocks {
            *self.blocks.entry(did).or_insert(0) += count;
        }
        self.non_bsky += other.non_bsky;
        self.firehose_events += other.firehose_events;
    }

    fn finish(self, _ctx: &StudyCtx<'_>) -> Section4 {
        let mut most_followed: Vec<(String, u64)> = self.followers.into_iter().collect();
        most_followed.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        most_followed.truncate(5);
        let mut most_blocked: Vec<(String, u64)> = self.blocks.into_iter().collect();
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
}

// ---------------------------------------------------------------------------
// §5 / Table 2 / Figure 3
// ---------------------------------------------------------------------------

/// §5 identity findings.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdentityReport {
    /// Total FQDN handles examined.
    pub(crate) total_handles: u64,
    /// Handles under bsky.social and their share (%).
    pub(crate) bsky_social: (u64, f64),
    /// Number of did:web identities.
    pub(crate) did_web: u64,
    /// Figure 3: non-bsky.social registered domains with most subdomain
    /// handles `(registered domain, handles)`.
    pub(crate) subdomain_providers: Vec<(String, u64)>,
    /// Registered domains extracted from custom handles.
    pub(crate) registered_domains: u64,
    /// Registered domains found in the Tranco top-1M and their share (%).
    pub(crate) tranco_overlap: (u64, f64),
    /// Ownership proofs: `(dns txt count, well-known count, txt share %)`.
    pub(crate) proofs: (u64, u64, f64),
    /// Table 2: registrars `(IANA id, name, domains, share %)`.
    pub(crate) registrars: Vec<(Option<u32>, String, u64, f64)>,
    /// Handle updates observed on the firehose: `(changes, unique DIDs,
    /// unique handles, share of final handles under bsky.social %)`.
    pub(crate) handle_updates: (u64, u64, u64, f64),
}

/// Incremental §5: identity centralization, Table 2 and Figure 3.
///
/// Performs the study's active measurements (PSL grouping, Tranco ranking,
/// DNS TXT / well-known ownership proofs, and the WHOIS query for each
/// newly seen registered domain) per DID document as it streams by. Doing
/// the WHOIS scan at observe time — against the shard that owns the domain
/// registration — is what makes the state mergeable: the per-domain result
/// map is a union, never a recount.
#[derive(Debug, Default)]
pub(crate) struct IdentityAnalyzer {
    total_handles: u64,
    bsky_count: u64,
    did_web: u64,
    provider_counts: BTreeMap<String, u64>,
    registered_domains: BTreeSet<String>,
    tranco_hits: BTreeSet<String>,
    dns_proofs: u64,
    well_known_proofs: u64,
    /// Registered domain → WHOIS registrar `(IANA id, name)`, when any.
    whois_by_domain: BTreeMap<String, Option<(Option<u32>, String)>>,
    changes: u64,
    dids: BTreeSet<String>,
    handles: BTreeSet<String>,
    /// DID → latest observed handle change `(event time, handle)`.
    final_handle: BTreeMap<String, (Datetime, String)>,
}

impl Analyzer for IdentityAnalyzer {
    type Output = IdentityReport;

    fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
        match obs {
            Observation::DidDocument { doc, via_web } => {
                self.total_handles += 1;
                if *via_web {
                    self.did_web += 1;
                }
                if doc.handle.is_bsky_social() {
                    self.bsky_count += 1;
                    return;
                }
                let world = ctx.world();
                // Figure 3: group non-custodial handles by registered domain
                // (PSL), check the Tranco ranking, and WHOIS-scan each newly
                // seen domain.
                if let Some(registered) = world.psl.registered_domain(doc.handle.as_str()) {
                    *self.provider_counts.entry(registered.clone()).or_insert(0) += 1;
                    if self.registered_domains.insert(registered.clone()) {
                        let registrar = world.whois.query(&registered).and_then(|record| {
                            record
                                .registrar
                                .as_ref()
                                .map(|r| (r.iana_id, r.name.clone()))
                        });
                        self.whois_by_domain.insert(registered.clone(), registrar);
                    }
                    if world.tranco.in_top(&registered, 1_000_000) {
                        self.tranco_hits.insert(registered);
                    }
                }
                // Ownership proofs via active measurement (DNS first, then
                // well-known).
                if world.dns.lookup_atproto_did(doc.handle.as_str()).is_some() {
                    self.dns_proofs += 1;
                } else if world.web.get(&doc.handle.well_known_url()).body().is_some() {
                    self.well_known_proofs += 1;
                }
            }
            Observation::Firehose(event) => {
                if let EventBody::HandleChange { did, handle } = &event.body {
                    self.changes += 1;
                    self.dids.insert(did.as_string());
                    self.handles.insert(handle.as_str().to_string());
                    let entry = self
                        .final_handle
                        .entry(did.as_string())
                        .or_insert((event.time, handle.as_str().to_string()));
                    if event.time >= entry.0 {
                        *entry = (event.time, handle.as_str().to_string());
                    }
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        self.total_handles += other.total_handles;
        self.bsky_count += other.bsky_count;
        self.did_web += other.did_web;
        for (domain, count) in other.provider_counts {
            *self.provider_counts.entry(domain).or_insert(0) += count;
        }
        self.registered_domains.extend(other.registered_domains);
        self.tranco_hits.extend(other.tranco_hits);
        self.dns_proofs += other.dns_proofs;
        self.well_known_proofs += other.well_known_proofs;
        // Same domain seen by two shards → same WHOIS answer; union is
        // idempotent.
        for (domain, registrar) in other.whois_by_domain {
            self.whois_by_domain.entry(domain).or_insert(registrar);
        }
        self.changes += other.changes;
        self.dids.extend(other.dids);
        self.handles.extend(other.handles);
        for (did, (time, handle)) in other.final_handle {
            let entry = self
                .final_handle
                .entry(did)
                .or_insert((time, handle.clone()));
            if time >= entry.0 {
                *entry = (time, handle);
            }
        }
    }

    fn finish(self, _ctx: &StudyCtx<'_>) -> IdentityReport {
        let mut subdomain_providers: Vec<(String, u64)> =
            self.provider_counts.into_iter().collect();
        subdomain_providers.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        subdomain_providers.truncate(10);

        let proof_total = (self.dns_proofs + self.well_known_proofs).max(1);

        // Table 2: aggregate the per-domain WHOIS scan.
        let mut registrar_counts: BTreeMap<(Option<u32>, String), u64> = BTreeMap::new();
        let mut with_iana = 0u64;
        for registrar in self.whois_by_domain.values().flatten() {
            *registrar_counts
                .entry((registrar.0, registrar.1.clone()))
                .or_insert(0) += 1;
            if registrar.0.is_some() {
                with_iana += 1;
            }
        }
        let mut registrars: Vec<(Option<u32>, String, u64, f64)> = registrar_counts
            .into_iter()
            .map(|((id, name), count)| (id, name, count, stats::share(count, with_iana.max(1))))
            .collect();
        registrars.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        registrars.truncate(7);

        let final_bsky = self
            .final_handle
            .values()
            .filter(|(_, h)| h.ends_with(".bsky.social"))
            .count() as u64;

        IdentityReport {
            total_handles: self.total_handles,
            bsky_social: (
                self.bsky_count,
                stats::share(self.bsky_count, self.total_handles),
            ),
            did_web: self.did_web,
            subdomain_providers,
            registered_domains: self.registered_domains.len() as u64,
            tranco_overlap: (
                self.tranco_hits.len() as u64,
                stats::share(
                    self.tranco_hits.len() as u64,
                    self.registered_domains.len().max(1) as u64,
                ),
            ),
            proofs: (
                self.dns_proofs,
                self.well_known_proofs,
                stats::share(self.dns_proofs, proof_total),
            ),
            registrars,
            handle_updates: (
                self.changes,
                self.dids.len() as u64,
                self.handles.len() as u64,
                stats::share(final_bsky, self.final_handle.len().max(1) as u64),
            ),
        }
    }
}

impl IdentityReport {
    /// Render §5, Table 2 and Figure 3.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Section 5: (de)centralized identity\n");
        out.push_str(&format!(
            "FQDN handles: {}   under bsky.social: {} ({:.1} %)   did:web identities: {}\n",
            self.total_handles, self.bsky_social.0, self.bsky_social.1, self.did_web
        ));
        out.push_str("Figure 3: subdomain handles per registered domain (excl. bsky.social)\n");
        for (domain, count) in &self.subdomain_providers {
            out.push_str(&format!("  {domain:<24} {count}\n"));
        }
        out.push_str(&format!(
            "Registered domains: {}   in Tranco top-1M: {} ({:.1} %)\n",
            self.registered_domains, self.tranco_overlap.0, self.tranco_overlap.1
        ));
        out.push_str(&format!(
            "Ownership proofs: DNS TXT {} / well-known {} ({:.1} % TXT)\n",
            self.proofs.0, self.proofs.1, self.proofs.2
        ));
        out.push_str("Table 2: Domain name handles per registrar\nIANA ID | Registrar                  | # Total | Share (%)\n");
        for (id, name, count, share) in &self.registrars {
            let id_str = id.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{id_str:>7} | {name:<26} | {count:>7} | {share:>6.2}\n"
            ));
        }
        let (changes, dids, handles, final_bsky) = self.handle_updates;
        out.push_str(&format!(
            "Handle updates: {changes} changes by {dids} DIDs over {handles} unique handles; {final_bsky:.1} % of final handles under bsky.social\n"
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// §6 / Tables 3, 4, 6 / Figures 4, 5, 6
// ---------------------------------------------------------------------------

/// One Table 4 row: `(target kind, objects, share %, top values)`.
pub(crate) type LabelTargetRow = (String, u64, f64, Vec<(String, u64)>);

/// Per-labeler reaction-time statistics (Table 6 / Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabelerReaction {
    /// Labeler DID.
    pub(crate) did: String,
    /// Display name.
    pub(crate) name: String,
    /// Operator class.
    pub(crate) community: bool,
    /// Top label values by application count.
    pub(crate) top_values: Vec<String>,
    /// Distinct values emitted.
    pub(crate) unique_values: u64,
    /// Total labels applied (excluding negations).
    pub(crate) total: u64,
    /// Share of all labels (%).
    pub(crate) share: f64,
    /// Median reaction time in seconds (posts only).
    pub(crate) median_reaction_secs: Option<f64>,
    /// Interquartile distance of the reaction time.
    pub(crate) iqd_reaction_secs: Option<f64>,
}

/// The §6 moderation report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModerationReport {
    /// Announced / functional / active labeler counts.
    pub(crate) labeler_counts: (u64, u64, u64),
    /// Endpoint hosting classification `(cloud, residential, dead)`.
    pub(crate) hosting: (u64, u64, u64),
    /// Figure 4: per-month labels by source `(month, bluesky, community)` and
    /// cumulative community labelers.
    pub(crate) labels_by_month: Vec<(String, u64, u64, u64)>,
    /// Community share of labels in the last full month (%).
    pub(crate) community_share_last_month: f64,
    /// Total label interactions and rescissions.
    pub(crate) interactions: (u64, u64),
    /// Unique labeled objects.
    pub(crate) unique_objects: u64,
    /// Share of last-month posts that received a label (%).
    pub(crate) last_month_posts_labeled_share: f64,
    /// Distinct label values (raw and after cleaning).
    pub(crate) label_values: (u64, u64),
    /// Share of labeled objects carrying labels from multiple services (%).
    pub(crate) multi_service_share: f64,
    /// Share of objects labeled by both Bluesky and a community labeler (%).
    pub(crate) bluesky_community_overlap_share: f64,
    /// Table 3: top community labelers `(name, labels applied, likes)`.
    pub(crate) table3: Vec<(String, u64, u64)>,
    /// Table 4: label targets `(kind, objects, share %, top values)`.
    pub(crate) table4: Vec<LabelTargetRow>,
    /// Table 6 / Figure 5: per-labeler reaction statistics.
    pub(crate) table6: Vec<LabelerReaction>,
    /// Figure 6: per-value `(value, objects, median reaction s, community)`.
    pub(crate) figure6: Vec<(String, u64, f64, bool)>,
}

/// Static metadata of one labeler (from its announcement observation).
#[derive(Debug, Clone)]
struct LabelerMeta {
    name: String,
    operator: LabelerOperator,
    hosting: HostingClass,
    functional: bool,
}

/// Per-labeler accumulator feeding Tables 3/6 and Figures 4/5.
#[derive(Debug, Default)]
struct LabelerAcc {
    meta: Option<LabelerMeta>,
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
    fn absorb(&mut self, other: LabelerAcc) {
        if self.meta.is_none() {
            self.meta = other.meta;
        }
        for (value, count) in other.values {
            *self.values.entry(value).or_insert(0) += count;
        }
        self.reactions.extend(other.reactions);
        self.applied += other.applied;
        self.stream_entries += other.stream_entries;
        for (month, count) in other.per_month {
            *self.per_month.entry(month).or_insert(0) += count;
        }
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
/// [`bsky_labeler::REACTION_WINDOW_DAYS`], that index is *aged out* at every
/// day boundary: entries older than the reaction window can never match a
/// future label, so peak index size is bounded by one window's worth of
/// posts instead of the whole collection (the former `--scale 100` memory
/// ceiling).
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

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
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
                acc.meta = Some(LabelerMeta {
                    name: entry.name.clone(),
                    operator: entry.operator,
                    hosting: entry.hosting,
                    functional: entry.functional,
                });
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
        for (month, count) in other.posts_per_month {
            *self.posts_per_month.entry(month).or_insert(0) += count;
        }
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
        for (value, count) in other.value_counts {
            *self.value_counts.entry(value).or_insert(0) += count;
        }
        for (value, reactions) in other.value_reactions {
            self.value_reactions
                .entry(value)
                .or_default()
                .extend(reactions);
        }
        for (kind, values) in other.per_target_kind {
            let entry = self.per_target_kind.entry(kind).or_default();
            for (value, count) in values {
                *entry.entry(value).or_insert(0) += count;
            }
        }
        self.raw_values.extend(other.raw_values);
        self.applied_values.extend(other.applied_values);
        self.interactions += other.interactions;
        self.rescissions += other.rescissions;
        for (did, count) in other.likes_on_accounts {
            *self.likes_on_accounts.entry(did).or_insert(0) += count;
        }
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

    fn finish(self, _ctx: &StudyCtx<'_>) -> ModerationReport {
        // Labels whose posts never appeared on the stream (pre-window
        // posts) keep their volume counts but have no reaction time — drop
        // the leftover pendings.
        let official: Option<String> = self
            .accs
            .iter()
            .filter(|(_, acc)| {
                acc.meta
                    .as_ref()
                    .map(|m| m.operator == LabelerOperator::BlueskyOfficial)
                    .unwrap_or(false)
            })
            .map(|(did, _)| did.clone())
            .next();

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

        let community = |acc: &LabelerAcc| -> bool {
            acc.meta
                .as_ref()
                .map(|m| m.operator == LabelerOperator::Community)
                .unwrap_or(true)
        };

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
                name: acc
                    .meta
                    .as_ref()
                    .map(|m| m.name.clone())
                    .unwrap_or_default(),
                community: community(acc),
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
            let is_community = community(acc);
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
                if !community(acc) {
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
            .filter(|(_, acc)| community(acc) && acc.applied > 0)
            .map(|(did, acc)| {
                let name = acc
                    .meta
                    .as_ref()
                    .map(|m| m.name.clone())
                    .unwrap_or_default();
                let likes = self.likes_on_accounts.get(did).copied().unwrap_or(0);
                (name, acc.applied, likes)
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
            let is_community = community(acc);
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
}

// ---------------------------------------------------------------------------
// §7 / Table 5 / Figures 7–12
// ---------------------------------------------------------------------------

/// The §7 recommendation report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RecommendationReport {
    /// Reachable feed generators.
    pub(crate) total_feeds: u64,
    /// Feeds that never curated a post, and their share (%).
    pub(crate) never_curated: (u64, f64),
    /// Language distribution of descriptions `(language, share %)`.
    pub(crate) description_languages: Vec<(String, f64)>,
    /// Figure 8: most common description words.
    pub(crate) top_words: Vec<(String, u64)>,
    /// Figure 9: top labels on feed-curated posts.
    pub(crate) feed_post_labels: Vec<(String, u64)>,
    /// Share of feeds with ≥10 % labeled content (%).
    pub(crate) heavily_labeled_share: f64,
    /// Figure 7: cumulative `(month, feeds, likes on feeds, follows on
    /// creators)`.
    pub(crate) cumulative_growth: Vec<(String, u64, u64, u64)>,
    /// Figure 10: `(feed name, posts, likes)` for the most extreme feeds.
    pub(crate) posts_vs_likes: Vec<(String, u64, u64)>,
    /// Figure 11: mean in/out-degree of feed creators vs other users.
    pub(crate) creator_degrees: ((f64, f64), (f64, f64)),
    /// Pearson r of (#feeds created, followers).
    pub(crate) r_feeds_followers: Option<f64>,
    /// Pearson r of (sum of likes on created feeds, followers).
    pub(crate) r_likes_followers: Option<f64>,
    /// Feeds-per-account distribution `(1 feed %, 2-10 %, >100 count, max)`.
    pub(crate) feeds_per_account: (f64, f64, u64, u64),
    /// Figure 12 / Table 5: per-platform `(name, feeds, share %, posts share
    /// %, likes share %)`.
    pub(crate) platform_shares: Vec<(String, u64, f64, f64, f64)>,
}

/// Incremental §7 recommendation analyses.
///
/// All per-feed state is keyed by feed URI (so a feed observed by several
/// shards merges by [`crate::datasets::FeedGenEntry::absorb`]); everything
/// that needs global context — the label index, the follow graph, the
/// creator set — is resolved at finish time, after all merges.
#[derive(Debug, Default)]
pub(crate) struct RecommendationAnalyzer {
    /// Feed URI → merged dataset entry.
    feeds: BTreeMap<String, crate::datasets::FeedGenEntry>,
    /// `(object uri, labeler, value)` → `(applied, negated)`.
    labels: BTreeMap<(String, String, String), (bool, bool)>,
    /// Deduplicated follow edges `(author, subject)` from the repositories.
    follow_edges: BTreeSet<(String, String)>,
    /// DIDs with a repository snapshot (the §7 user universe).
    actors: BTreeSet<String>,
    /// Likes on feed-generator records per month (Figure 7).
    feed_likes_by_month: BTreeMap<String, u64>,
    /// Follow records per subject and month (filtered to creators at
    /// finish).
    follows_by_subject_month: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Analyzer for RecommendationAnalyzer {
    type Output = RecommendationReport;

    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        match obs {
            Observation::Labels { src, labels } => {
                // Figure 9's label index: raw interactions folded into
                // (applied, negated) flags per (object, labeler, value) —
                // the order-insensitive form of `effective_labels`.
                for label in labels.iter() {
                    let key = (label.target.uri(), src.as_string(), label.value.clone());
                    let entry = self.labels.entry(key).or_insert((false, false));
                    if label.negated {
                        entry.1 = true;
                    } else {
                        entry.0 = true;
                    }
                }
            }
            Observation::FeedGenerator(feed) => {
                let key = feed.uri.as_string();
                match self.feeds.get_mut(&key) {
                    Some(existing) => existing.absorb((*feed).clone()),
                    None => {
                        self.feeds.insert(key, (*feed).clone());
                    }
                }
            }
            Observation::Repo(repo) => {
                let did = repo.did.as_string();
                for record in repo.records() {
                    let Some(created) = record.created_at else {
                        continue;
                    };
                    match (record.collection.as_str(), record.subject) {
                        // Figure 7: likes on feed-generator records,
                        // recognised structurally so no cross-category state
                        // is needed at observe time.
                        (known::LIKE, _) if record.likes_feed_generator => {
                            *self
                                .feed_likes_by_month
                                .entry(month_of(created))
                                .or_insert(0) += 1;
                        }
                        (known::FOLLOW, Some(subject)) => {
                            let subject = subject.as_string();
                            self.follow_edges.insert((did.clone(), subject.clone()));
                            *self
                                .follows_by_subject_month
                                .entry(subject)
                                .or_default()
                                .entry(month_of(created))
                                .or_insert(0) += 1;
                        }
                        _ => {}
                    }
                }
                self.actors.insert(did);
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, entry) in other.feeds {
            match self.feeds.get_mut(&key) {
                Some(existing) => existing.absorb(entry),
                None => {
                    self.feeds.insert(key, entry);
                }
            }
        }
        for (key, (applied, negated)) in other.labels {
            let entry = self.labels.entry(key).or_insert((false, false));
            entry.0 |= applied;
            entry.1 |= negated;
        }
        self.follow_edges.extend(other.follow_edges);
        self.actors.extend(other.actors);
        for (month, count) in other.feed_likes_by_month {
            *self.feed_likes_by_month.entry(month).or_insert(0) += count;
        }
        for (subject, months) in other.follows_by_subject_month {
            let entry = self.follows_by_subject_month.entry(subject).or_default();
            for (month, count) in months {
                *entry.entry(month).or_insert(0) += count;
            }
        }
    }

    fn finish(self, _ctx: &StudyCtx<'_>) -> RecommendationReport {
        let total_feeds = self.feeds.len() as u64;

        // Effective label index: applied and never negated.
        let mut label_by_uri: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for ((uri, _src, value), (applied, negated)) in &self.labels {
            if *applied && !*negated {
                label_by_uri.entry(uri).or_default().push(value);
            }
        }

        let mut never = 0u64;
        let mut langs: Vec<&'static str> = Vec::new();
        let mut words: BTreeMap<String, u64> = BTreeMap::new();
        let mut heavily_labeled = 0u64;
        let mut feed_label_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_month: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut posts_vs_likes: Vec<(String, u64, u64)> = Vec::new();
        let mut feeds_per_creator: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut total_posts = 0u64;
        let mut total_likes = 0u64;
        let mut per_platform: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();

        for feed in self.feeds.values() {
            let served = feed.served_posts();
            if served.is_empty() {
                never += 1;
            }
            langs.push(langdetect::detect(&feed.description));
            for word in feed.description.split_whitespace() {
                let cleaned: String = word
                    .chars()
                    .filter(|c| c.is_alphanumeric())
                    .collect::<String>()
                    .to_lowercase();
                if cleaned.len() >= 3 {
                    *words.entry(cleaned).or_insert(0) += 1;
                }
            }
            // Figure 9 + heavily-labeled share.
            if !served.is_empty() {
                let labeled = served
                    .iter()
                    .filter(|post| label_by_uri.contains_key(&post.uri.as_string()))
                    .count();
                if labeled as f64 / served.len() as f64 >= 0.10 {
                    heavily_labeled += 1;
                    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
                    for post in &served {
                        if let Some(values) = label_by_uri.get(&post.uri.as_string()) {
                            for value in values {
                                *counts.entry((*value).clone()).or_insert(0) += 1;
                            }
                        }
                    }
                    if let Some((top_value, _)) = counts.into_iter().max_by_key(|(_, c)| *c) {
                        *feed_label_counts.entry(top_value).or_insert(0) += 1;
                    }
                }
            }
            by_month.entry(month_of(feed.created_at)).or_default().0 += 1;
            posts_vs_likes.push((
                feed.display_name.clone(),
                served.len() as u64,
                feed.like_count,
            ));
            let creator = feeds_per_creator
                .entry(feed.creator.as_string())
                .or_insert((0, 0));
            creator.0 += 1;
            creator.1 += feed.like_count;
            total_posts += served.len() as u64;
            total_likes += feed.like_count;
            let platform = per_platform.entry(feed.platform.clone()).or_default();
            platform.0 += 1;
            platform.1 += served.len() as u64;
            platform.2 += feed.like_count;
        }

        let lang_counts = stats::top_counts(langs.iter().copied());
        let description_languages = lang_counts
            .iter()
            .map(|(l, c)| ((*l).to_string(), stats::share(*c, total_feeds.max(1))))
            .collect();

        let mut top_words: Vec<(String, u64)> = words.into_iter().collect();
        top_words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_words.truncate(15);

        let mut feed_post_labels: Vec<(String, u64)> = feed_label_counts.into_iter().collect();
        feed_post_labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        feed_post_labels.truncate(10);

        // Figure 7: likes on feeds and follows on creators join the
        // feed-creation series.
        for (month, count) in &self.feed_likes_by_month {
            by_month.entry(month.clone()).or_default().1 += count;
        }
        let creator_dids: BTreeSet<&String> = feeds_per_creator.keys().collect();
        for (subject, months) in &self.follows_by_subject_month {
            if creator_dids.contains(subject) {
                for (month, count) in months {
                    by_month.entry(month.clone()).or_default().2 += count;
                }
            }
        }
        let mut cumulative_growth = Vec::new();
        let mut acc = (0u64, 0u64, 0u64);
        for (month, (feeds, likes, follows)) in by_month {
            acc.0 += feeds;
            acc.1 += likes;
            acc.2 += follows;
            cumulative_growth.push((month, acc.0, acc.1, acc.2));
        }

        // Figure 10: posts vs likes extremes.
        posts_vs_likes.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then_with(|| a.0.cmp(&b.0)));
        posts_vs_likes.truncate(10);

        // Figure 11 + correlations: degrees from the deduplicated follow
        // graph of the repositories dataset.
        let mut follows_of: BTreeMap<&String, u64> = BTreeMap::new();
        let mut followers_of: BTreeMap<&String, u64> = BTreeMap::new();
        for (author, subject) in &self.follow_edges {
            *follows_of.entry(author).or_insert(0) += 1;
            *followers_of.entry(subject).or_insert(0) += 1;
        }
        let mut creator_in = Vec::new();
        let mut creator_out = Vec::new();
        let mut other_in = Vec::new();
        let mut other_out = Vec::new();
        let mut x_feeds = Vec::new();
        let mut x_likes = Vec::new();
        let mut y_followers = Vec::new();
        for did in &self.actors {
            let followers = followers_of.get(did).copied().unwrap_or(0) as f64;
            let follows = follows_of.get(did).copied().unwrap_or(0) as f64;
            if let Some((feeds, likes)) = feeds_per_creator.get(did) {
                creator_in.push(followers);
                creator_out.push(follows);
                x_feeds.push(*feeds as f64);
                x_likes.push(*likes as f64);
                y_followers.push(followers);
            } else {
                other_in.push(followers);
                other_out.push(follows);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let creator_degrees = (
            (mean(&creator_in), mean(&creator_out)),
            (mean(&other_in), mean(&other_out)),
        );
        let r_feeds_followers = stats::pearson(&x_feeds, &y_followers);
        let r_likes_followers = stats::pearson(&x_likes, &y_followers);

        // Feeds per account.
        let one = feeds_per_creator.values().filter(|(f, _)| *f == 1).count() as u64;
        let two_to_ten = feeds_per_creator
            .values()
            .filter(|(f, _)| (2..=10).contains(f))
            .count() as u64;
        let over_100 = feeds_per_creator.values().filter(|(f, _)| *f > 100).count() as u64;
        let max_feeds = feeds_per_creator
            .values()
            .map(|(f, _)| *f)
            .max()
            .unwrap_or(0);
        let creators = feeds_per_creator.len().max(1) as u64;

        // Figure 12 / Table 5: platform shares.
        let mut platform_shares: Vec<(String, u64, f64, f64, f64)> = per_platform
            .into_iter()
            .map(|(name, (feeds, posts, likes))| {
                (
                    name,
                    feeds,
                    stats::share(feeds, total_feeds.max(1)),
                    stats::share(posts, total_posts.max(1)),
                    stats::share(likes, total_likes.max(1)),
                )
            })
            .collect();
        platform_shares.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        RecommendationReport {
            total_feeds,
            never_curated: (never, stats::share(never, total_feeds.max(1))),
            description_languages,
            top_words,
            feed_post_labels,
            heavily_labeled_share: stats::share(heavily_labeled, total_feeds.max(1)),
            cumulative_growth,
            posts_vs_likes,
            creator_degrees,
            r_feeds_followers,
            r_likes_followers,
            feeds_per_account: (
                stats::share(one, creators),
                stats::share(two_to_ten, creators),
                over_100,
                max_feeds,
            ),
            platform_shares,
        }
    }
}

impl RecommendationReport {
    /// Render §7, Table 5 and Figures 7–12.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Section 7: content recommendation\n");
        out.push_str(&format!(
            "Feed generators: {}   never curated: {} ({:.1} %)   ≥10 % labeled content: {:.2} %\n",
            self.total_feeds,
            self.never_curated.0,
            self.never_curated.1,
            self.heavily_labeled_share
        ));
        out.push_str("Description languages: ");
        let langs: Vec<String> = self
            .description_languages
            .iter()
            .take(6)
            .map(|(l, s)| format!("{l} {s:.1}%"))
            .collect();
        out.push_str(&format!("{}\n", langs.join(", ")));
        out.push_str("Figure 7: cumulative feeds / likes on feeds / follows on creators\n");
        for (month, feeds, likes, follows) in &self.cumulative_growth {
            out.push_str(&format!(
                "  {month} | feeds {feeds:>6} | likes {likes:>8} | creator follows {follows:>8}\n"
            ));
        }
        out.push_str("Figure 8: most common description words\n  ");
        let words: Vec<String> = self
            .top_words
            .iter()
            .map(|(w, c)| format!("{w}({c})"))
            .collect();
        out.push_str(&format!("{}\n", words.join(" ")));
        out.push_str("Figure 9: top labels on heavily-labeled feeds\n");
        for (value, count) in &self.feed_post_labels {
            out.push_str(&format!("  {value:<24} {count}\n"));
        }
        out.push_str("Figure 10: most active / most liked feeds (posts, likes)\n");
        for (name, posts, likes) in &self.posts_vs_likes {
            out.push_str(&format!(
                "  {name:<28} {posts:>7} posts  {likes:>6} likes\n"
            ));
        }
        let ((ci, co), (oi, oo)) = self.creator_degrees;
        out.push_str(&format!(
            "Figure 11: mean degree — feed creators in {ci:.1} / out {co:.1}; other users in {oi:.1} / out {oo:.1}\n"
        ));
        out.push_str(&format!(
            "Correlations: #feeds vs followers r = {}   Σ likes on feeds vs followers r = {}\n",
            self.r_feeds_followers
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            self.r_likes_followers
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        ));
        let (one, two_ten, over100, max) = self.feeds_per_account;
        out.push_str(&format!(
            "Feeds per account: {one:.1} % manage one, {two_ten:.1} % manage 2–10, {over100} accounts manage >100 (max {max})\n"
        ));
        out.push_str("Figure 12 / Table 5: feeds per hosting platform\n");
        for (name, feeds, share, posts_share, likes_share) in &self.platform_shares {
            out.push_str(&format!(
                "  {name:<22} {feeds:>6} feeds ({share:>5.2} %)  posts {posts_share:>5.1} %  likes {likes_share:>5.1} %\n"
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// §9: firehose volume
// ---------------------------------------------------------------------------

/// §9 firehose volume estimate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FirehoseVolume {
    /// Mean bytes per day observed on the firehose during collection.
    pub(crate) bytes_per_day: f64,
    /// The same figure extrapolated to the full network size (multiplying by
    /// the scale factor).
    pub(crate) extrapolated_full_network: f64,
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
        for (day, bytes) in other.per_day {
            *self.per_day.entry(day).or_insert(0) += bytes;
        }
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
}

/// Table 5's static feature matrix (re-exported from the feedgen crate and
/// rendered alongside the measured platform shares).
pub(crate) fn table5_feature_matrix() -> String {
    let platforms = bsky_feedgen::faas::default_platforms();
    let mut out = String::from("Table 5: Feed-Generator-as-a-Service feature comparison\n");
    out.push_str("Platform              | features | regex | pricing\n");
    for p in &platforms {
        out.push_str(&format!(
            "{:<22} | {:>8} | {:>5} | {:?}\n",
            p.name,
            p.feature_count(),
            if p.filters.regex_text { "yes" } else { "no" },
            p.pricing
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Collector;
    use crate::pipeline::OwnedObservation;
    use crate::report::StudyReport;
    use crate::spec::RunSpec;
    use bsky_simnet::SimRng;
    use bsky_workload::{ScenarioConfig, World};

    fn small_config() -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(11);
        config.start = Datetime::from_ymd(2024, 2, 15).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 25).unwrap();
        config.scale = 30_000;
        config
    }

    fn run_small() -> StudyReport {
        StudyReport::run_serial(&RunSpec::new(small_config())).0
    }

    #[test]
    fn all_analyses_run_and_render() {
        let report = run_small();

        let t1 = &report.table1;
        assert!(t1.total > 0);
        let commit_share = t1.rows.iter().find(|r| r.0 == "Repo Commit").unwrap().2;
        assert!(commit_share > 90.0, "commit share {commit_share}");
        assert!(t1.render().contains("Repo Commit"));

        let activity = &report.activity;
        assert!(!activity.monthly.is_empty());
        assert!(activity.totals.1 > activity.totals.0, "likes > posts");
        assert!(activity.render_figure1().contains("Totals"));
        assert!(!activity.render_figure2().is_empty());

        let s4 = &report.section4;
        assert!(!s4.most_followed.is_empty());
        assert!(s4.render().contains("Most followed"));

        let identity = &report.identity;
        assert!(identity.total_handles > 0);
        assert!(identity.bsky_social.1 > 90.0);
        assert!(identity.proofs.2 > 80.0);
        assert!(identity.render().contains("Table 2"));

        let moderation = &report.moderation;
        assert!(moderation.labeler_counts.0 >= 40);
        assert!(moderation.interactions.0 > 0);
        assert!(!moderation.table6.is_empty());
        assert!(moderation.community_share_last_month > 50.0);
        assert!(moderation.render().contains("Table 3"));

        let recommendation = &report.recommendation;
        assert!(recommendation.total_feeds > 10);
        assert!(recommendation.never_curated.1 > 0.0);
        assert!(!recommendation.platform_shares.is_empty());
        assert_eq!(recommendation.platform_shares[0].0, "Skyfeed");
        assert!(recommendation.render().contains("Figure 12"));

        let volume = &report.firehose_volume;
        assert!(volume.bytes_per_day > 0.0);
        assert!(volume.extrapolated_full_network > volume.bytes_per_day);
        assert!(volume.render().contains("firehose volume"));

        assert!(table5_feature_matrix().contains("Skyfeed"));
    }

    #[test]
    fn moderation_reaction_times_distinguish_automation() {
        let moderation = run_small().moderation;
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
            fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
                if let Observation::Firehose(event) = obs {
                    if let EventBody::Commit { ops, .. } = &event.body {
                        self.total_posts += ops
                            .iter()
                            .filter(|op| op.collection() == known::POST)
                            .count();
                    }
                }
                Analyzer::observe(&mut self.analyzer, obs, ctx);
                self.peak_post_index = self.peak_post_index.max(self.analyzer.post_created.len());
            }
        }
        analyzer.observe(
            &Observation::WindowStart {
                firehose_collection_start: config.firehose_collection_start,
                collection_end: config.end,
            },
            &StudyCtx::detached(),
        );
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
        let mut world = World::new(small_config());
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
        assert_split_merge_equals_fold(
            crate::observatory::ObservatoryAnalyzer::default,
            &world,
            &tape,
        );
    }
}
