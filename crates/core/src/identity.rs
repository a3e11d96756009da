//! §5: (de)centralized identity — handle custody, Figure 3's subdomain
//! providers, Table 2's registrars, ownership proofs and handle updates.

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation, StudyCtx};
use crate::stats;
use bsky_atproto::firehose::EventBody;
use bsky_atproto::Datetime;
use std::collections::{BTreeMap, BTreeSet};

/// §5 identity findings.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdentityReport {
    /// Total FQDN handles examined.
    total_handles: u64,
    /// Handles under bsky.social and their share (%).
    bsky_social: (u64, f64),
    /// Number of did:web identities.
    did_web: u64,
    /// Figure 3: non-bsky.social registered domains with most subdomain
    /// handles `(registered domain, handles)`.
    subdomain_providers: Vec<(String, u64)>,
    /// Registered domains extracted from custom handles.
    registered_domains: u64,
    /// Registered domains found in the Tranco top-1M and their share (%).
    tranco_overlap: (u64, f64),
    /// Ownership proofs: `(dns txt count, well-known count, txt share %)`.
    proofs: (u64, u64, f64),
    /// Table 2: registrars `(IANA id, name, domains, share %)`.
    registrars: Vec<(Option<u32>, String, u64, f64)>,
    /// Handle updates observed on the firehose: `(changes, unique DIDs,
    /// unique handles, share of final handles under bsky.social %)`.
    handle_updates: (u64, u64, u64, f64),
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
        stats::add_counts(&mut self.provider_counts, other.provider_counts);
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

    /// The §5 slice of the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        Json::object()
            .with("handles", self.total_handles)
            .with("bsky_social_share_pct", self.bsky_social.1)
            .with("did_web", self.did_web)
            .with("dns_txt_share_pct", self.proofs.2)
            .with("tranco_share_pct", self.tranco_overlap.1)
    }
}

#[cfg(test)]
mod tests {
    use crate::report::tests::small_report;

    #[test]
    fn identity_runs_and_renders() {
        let identity = &small_report().identity;
        assert!(identity.total_handles > 0);
        assert!(identity.bsky_social.1 > 90.0);
        assert!(identity.proofs.2 > 80.0);
        assert!(identity.render().contains("Table 2"));
    }
}
