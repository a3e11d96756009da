//! Simulated DNS.
//!
//! The study's identity analyses (§5) hinge on DNS: `_atproto.<handle>` TXT
//! records prove handle ownership, and WHOIS data maps registered domains to
//! registrars. This module provides the authoritative zone store the
//! simulated resolvers query. Lookups can be made to fail for a configurable
//! fraction of zones to model broken delegations.

use std::collections::BTreeMap;

/// Outcome of a DNS TXT lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TxtLookup {
    /// The name exists and has TXT records.
    Found(Vec<String>),
    /// The name does not exist (NXDOMAIN).
    NxDomain,
    /// The query timed out / the delegation is broken.
    ServFail,
}

impl TxtLookup {
    /// The records, if the lookup succeeded.
    pub(crate) fn records(&self) -> Option<&[String]> {
        match self {
            TxtLookup::Found(r) => Some(r),
            _ => None,
        }
    }
}

/// Outcome of an `_atproto.` handle-ownership resolution, with every
/// failure mode kept distinct so callers can count them separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtprotoResolution {
    /// A valid `did=` proof was found.
    Did(String),
    /// The name exists but carries no `did=` proof.
    NoProof,
    /// The name does not exist.
    NxDomain,
    /// The name is marked failed (broken delegation / timeout).
    ServFail,
}

/// An authoritative store of TXT records plus per-name failure marks.
#[derive(Debug, Clone, Default)]
pub struct DnsZoneStore {
    txt: BTreeMap<String, Vec<String>>,
    broken: BTreeMap<String, ()>,
}

impl DnsZoneStore {
    /// Create an empty store.
    pub fn new() -> DnsZoneStore {
        DnsZoneStore::default()
    }

    /// Replace all TXT records at a name.
    pub fn set_txt(&mut self, name: &str, values: Vec<String>) {
        self.txt.insert(name.to_ascii_lowercase(), values);
    }

    /// Perform a TXT lookup.
    pub(crate) fn lookup_txt(&self, name: &str) -> TxtLookup {
        let name = name.to_ascii_lowercase();
        if self.broken.contains_key(&name) {
            return TxtLookup::ServFail;
        }
        match self.txt.get(&name) {
            Some(records) => TxtLookup::Found(records.clone()),
            None => TxtLookup::NxDomain,
        }
    }

    /// Convenience: the `did=` payload of an `_atproto.` TXT proof, if any.
    pub fn lookup_atproto_did(&self, handle: &str) -> Option<String> {
        let name = format!("_atproto.{}", handle.to_ascii_lowercase());
        self.lookup_txt(&name)
            .records()?
            .iter()
            .find_map(|r| r.strip_prefix("did=").map(str::to_string))
    }

    /// Outcome-preserving `_atproto.` resolution: like
    /// [`lookup_atproto_did`](DnsZoneStore::lookup_atproto_did) but a name
    /// marked failed surfaces as a distinct [`AtprotoResolution::ServFail`]
    /// instead of folding into generic lookup failure, so identity-path
    /// callers can count it separately.
    pub fn resolve_atproto(&self, handle: &str) -> AtprotoResolution {
        let name = format!("_atproto.{}", handle.to_ascii_lowercase());
        match self.lookup_txt(&name) {
            TxtLookup::ServFail => AtprotoResolution::ServFail,
            TxtLookup::NxDomain => AtprotoResolution::NxDomain,
            TxtLookup::Found(records) => records
                .iter()
                .find_map(|r| r.strip_prefix("did=").map(str::to_string))
                .map(AtprotoResolution::Did)
                .unwrap_or(AtprotoResolution::NoProof),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txt_publish_and_lookup() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt(
            "_atproto.example.com",
            vec!["did=did:plc:abc".into(), "unrelated".into()],
        );
        match dns.lookup_txt("_atproto.EXAMPLE.com") {
            TxtLookup::Found(records) => assert_eq!(records.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            dns.lookup_atproto_did("example.com"),
            Some("did:plc:abc".to_string())
        );
        assert_eq!(dns.lookup_txt("missing.example"), TxtLookup::NxDomain);
        assert_eq!(dns.txt.len(), 1);
    }

    #[test]
    fn broken_names_servfail() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt("_atproto.broken.example", vec!["did=did:plc:abc".into()]);
        dns.broken.insert("_atproto.broken.example".into(), ());
        assert_eq!(
            dns.lookup_txt("_atproto.broken.example"),
            TxtLookup::ServFail
        );
        assert_eq!(dns.lookup_atproto_did("broken.example"), None);
        // The outcome-preserving resolver keeps the failure mode distinct.
        assert_eq!(
            dns.resolve_atproto("broken.example"),
            AtprotoResolution::ServFail
        );
        assert_eq!(
            dns.resolve_atproto("missing.example"),
            AtprotoResolution::NxDomain
        );
    }

    #[test]
    fn set_replaces_records() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt("name.example", vec!["one".into()]);
        dns.set_txt("name.example", vec!["two".into()]);
        assert_eq!(
            dns.lookup_txt("name.example").records().unwrap(),
            &["two".to_string()]
        );
        assert_eq!(dns.txt.len(), 1);
    }

    #[test]
    fn missing_did_prefix_is_ignored() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt("_atproto.nodid.example", vec!["verification=xyz".into()]);
        assert_eq!(dns.lookup_atproto_did("nodid.example"), None);
        assert_eq!(
            dns.resolve_atproto("nodid.example"),
            AtprotoResolution::NoProof
        );
        dns.set_txt("_atproto.good.example", vec!["did=did:plc:ok".into()]);
        assert_eq!(
            dns.resolve_atproto("good.example"),
            AtprotoResolution::Did("did:plc:ok".into())
        );
    }
}
