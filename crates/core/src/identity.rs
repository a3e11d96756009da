//! §5: (de)centralized identity — handle custody, Figure 3's subdomain
//! providers, Table 2's registrars, ownership proofs and handle updates.

use crate::json::Json;
use crate::pipeline::{Analyzer, Observation};
use crate::stats;
use bsky_atproto::firehose::EventBody;
use bsky_atproto::{Datetime, Did};
use bsky_workload::registrar::Registrar;
use bsky_workload::resolver::Proof;
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
/// Folds the active measurements the collector took of each DID document's
/// handle (PSL grouping, Tranco ranking, DNS TXT / well-known ownership
/// proofs, the WHOIS registrar).
#[derive(Debug, Default)]
pub(crate) struct IdentityAnalyzer {
    total_handles: u64,
    bsky_count: u64,
    did_web: u64,
    /// Registered domain → (custom handles under it, its WHOIS registrar,
    /// whether it ranks in the Tranco top 1M). The registrar and the rank
    /// belong to the domain, so they are kept from its first probe and a
    /// merge only adds handle counts.
    domains: BTreeMap<String, (u64, Option<Registrar>, bool)>,
    dns_proofs: u64,
    well_known_proofs: u64,
    changes: u64,
    handles: BTreeSet<String>,
    /// DID → latest observed handle change `(event time, handle)`: its keys
    /// are the DIDs that changed handle.
    final_handle: BTreeMap<Did, (Datetime, String)>,
}

impl Analyzer for IdentityAnalyzer {
    type Output = IdentityReport;

    fn observe(&mut self, obs: &Observation<'_>) {
        match obs {
            Observation::DidDocument {
                doc,
                via_web,
                probe,
            } => {
                self.total_handles += 1;
                if *via_web {
                    self.did_web += 1;
                }
                if doc.handle.is_bsky_social() {
                    self.bsky_count += 1;
                    return;
                }
                let probe = probe.expect("the collector probes every handle outside bsky.social");
                // Figure 3: group non-custodial handles by registered domain
                // (PSL).
                if let Some(domain) = &probe.registered_domain {
                    let entry = self
                        .domains
                        .entry(domain.clone())
                        .or_insert_with(|| (0, probe.registrar.clone(), probe.in_tranco_top));
                    entry.0 += 1;
                }
                match probe.proof {
                    Some(Proof::DnsTxt) => self.dns_proofs += 1,
                    Some(Proof::WellKnown) => self.well_known_proofs += 1,
                    None => {}
                }
            }
            Observation::Firehose(event) => {
                if let EventBody::HandleChange { did, handle } = &event.body {
                    self.changes += 1;
                    self.handles.insert(handle.as_str().to_string());
                    let latest = (event.time, handle.as_str().to_string());
                    match self.final_handle.get_mut(did) {
                        Some(entry) if event.time >= entry.0 => *entry = latest,
                        Some(_) => {}
                        None => {
                            self.final_handle.insert(did.clone(), latest);
                        }
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
        for (domain, (handles, registrar, ranked)) in other.domains {
            self.domains
                .entry(domain)
                .or_insert((0, registrar, ranked))
                .0 += handles;
        }
        self.dns_proofs += other.dns_proofs;
        self.well_known_proofs += other.well_known_proofs;
        self.changes += other.changes;
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

    fn finish(self) -> IdentityReport {
        let mut subdomain_providers: Vec<(String, u64)> = self
            .domains
            .iter()
            .map(|(domain, (handles, ..))| (domain.clone(), *handles))
            .collect();
        subdomain_providers.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        subdomain_providers.truncate(10);

        let proof_total = (self.dns_proofs + self.well_known_proofs).max(1);

        // Table 2: aggregate the per-domain WHOIS scan.
        let mut registrar_counts: BTreeMap<(Option<u32>, String), u64> = BTreeMap::new();
        let mut with_iana = 0u64;
        for (_, registrar, _) in self.domains.values() {
            let Some(registrar) = registrar else { continue };
            *registrar_counts
                .entry((registrar.iana_id, registrar.name.clone()))
                .or_insert(0) += 1;
            if registrar.iana_id.is_some() {
                with_iana += 1;
            }
        }
        let mut registrars: Vec<(Option<u32>, String, u64, f64)> = registrar_counts
            .into_iter()
            .map(|((id, name), count)| (id, name, count, stats::share(count, with_iana.max(1))))
            .collect();
        registrars.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        registrars.truncate(7);

        let registered_domains = self.domains.len() as u64;
        let tranco_hits = self.domains.values().filter(|(.., ranked)| *ranked).count() as u64;
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
            registered_domains,
            tranco_overlap: (
                tranco_hits,
                stats::share(tranco_hits, registered_domains.max(1)),
            ),
            proofs: (
                self.dns_proofs,
                self.well_known_proofs,
                stats::share(self.dns_proofs, proof_total),
            ),
            registrars,
            handle_updates: (
                self.changes,
                self.final_handle.len() as u64,
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
