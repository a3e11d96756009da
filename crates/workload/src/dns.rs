//! Simulated DNS.
//!
//! The study's identity analyses (§5) hinge on DNS: `_atproto.<handle>` TXT
//! records prove handle ownership, and WHOIS data maps registered domains to
//! registrars. This module provides the authoritative zone store the
//! simulated resolvers query. The store itself always answers; lookup
//! failures (SERVFAIL) are injected on the resolving side by the fault plan
//! ([`crate::faults::FaultPlan::dns_failures`], the `dns-flap` scenario).

use std::collections::BTreeMap;

/// An authoritative store of TXT records.
#[derive(Debug, Clone, Default)]
pub struct DnsZoneStore {
    txt: BTreeMap<String, Vec<String>>,
}

impl DnsZoneStore {
    /// Create an empty store.
    pub(crate) fn new() -> DnsZoneStore {
        DnsZoneStore::default()
    }

    /// Replace all TXT records at a name.
    pub(crate) fn set_txt(&mut self, name: &str, values: Vec<String>) {
        self.txt.insert(name.to_ascii_lowercase(), values);
    }

    /// The TXT records at a name; `None` when the name does not exist
    /// (NXDOMAIN).
    pub(crate) fn lookup_txt(&self, name: &str) -> Option<&[String]> {
        self.txt.get(&name.to_ascii_lowercase()).map(Vec::as_slice)
    }

    /// The `did=` payload of an `_atproto.` TXT proof, if any.
    pub fn lookup_atproto_did(&self, handle: &str) -> Option<String> {
        let name = format!("_atproto.{}", handle.to_ascii_lowercase());
        self.lookup_txt(&name)?
            .iter()
            .find_map(|r| r.strip_prefix("did=").map(str::to_string))
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
        assert_eq!(
            dns.lookup_txt("_atproto.EXAMPLE.com").map(<[String]>::len),
            Some(2)
        );
        assert_eq!(
            dns.lookup_atproto_did("example.com"),
            Some("did:plc:abc".to_string())
        );
        assert_eq!(dns.lookup_txt("missing.example"), None);
        assert_eq!(dns.txt.len(), 1);
    }

    #[test]
    fn set_replaces_records() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt("name.example", vec!["one".into()]);
        dns.set_txt("name.example", vec!["two".into()]);
        assert_eq!(
            dns.lookup_txt("name.example").unwrap(),
            &["two".to_string()]
        );
        assert_eq!(dns.txt.len(), 1);
    }

    #[test]
    fn missing_did_prefix_is_ignored() {
        let mut dns = DnsZoneStore::new();
        dns.set_txt("_atproto.nodid.example", vec!["verification=xyz".into()]);
        assert_eq!(dns.lookup_atproto_did("nodid.example"), None);
        dns.set_txt("_atproto.good.example", vec!["did=did:plc:ok".into()]);
        assert_eq!(
            dns.lookup_atproto_did("good.example"),
            Some("did:plc:ok".into())
        );
    }
}
