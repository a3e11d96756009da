//! Handle-ownership proofs and `did:web` documents.
//!
//! Resolution is bidirectional (§2, §5): a handle resolves to a DID through
//! one of two ownership proofs (a DNS TXT record at `_atproto.<handle>` or an
//! HTTPS document at `/.well-known/atproto-did`), and the DID's document must
//! list that handle back for the pairing to be considered verified. DID
//! documents themselves come from the PLC directory (`did:plc`) or from
//! `/.well-known/did.json` on the handle's domain (`did:web`).
//!
//! [`publish`] is what a PDS does when an account is created or a handle
//! changes. [`HandleProbe`] is the resolving half: what the study's
//! collector reads back through [`crate::World::probe_handle`].

use crate::diddoc::DidDocument;
use crate::dns::DnsZoneStore;
use crate::http::WebSpace;
use crate::registrar::Registrar;
use bsky_atproto::{Did, Handle};

/// The handle-ownership proof an active measurement found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// A `did=` TXT record at `_atproto.<handle>`.
    DnsTxt,
    /// A document at `https://<handle>/.well-known/atproto-did`.
    WellKnown,
}

/// What the study's active measurements find for one handle (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleProbe {
    /// The handle's registered domain under the public suffix list; `None`
    /// when the handle is itself a public suffix.
    pub registered_domain: Option<String>,
    /// The WHOIS registrar of the registered domain, when WHOIS has one.
    pub registrar: Option<Registrar>,
    /// Whether the registered domain ranks in the Tranco top 1M.
    pub in_tranco_top: bool,
    /// The ownership proof found: DNS TXT first, then well-known.
    pub proof: Option<Proof>,
}

/// Helpers for publishing ownership proofs (used by PDSes when accounts are
/// created or when handles change).
pub mod publish {
    use super::*;

    /// Publish a DNS TXT ownership proof for a handle.
    pub(crate) fn dns_proof(dns: &mut DnsZoneStore, handle: &Handle, did: &Did) {
        dns.set_txt(&handle.atproto_txt_name(), vec![format!("did={did}")]);
    }

    /// Publish a well-known HTTPS ownership proof for a handle.
    pub(crate) fn well_known_proof(web: &mut WebSpace, handle: &Handle, did: &Did) {
        web.publish(&handle.well_known_url(), did.to_string());
    }

    /// Publish a `did:web` DID document on its domain.
    pub(crate) fn did_web_document(web: &mut WebSpace, document: &DidDocument) {
        if let Some(domain) = document.did.web_domain() {
            web.publish(
                &format!("https://{domain}/.well-known/did.json"),
                document.to_wire(),
            );
        }
    }
}

/// What `publish` writes, read back the way the study resolves it: through
/// [`HandleProbe`] for a handle's proofs, registered domain, registrar and
/// ranking, and `WebSpace::get` for a `did:web` document.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::registrar::WhoisDatabase;
    use crate::tranco::TrancoList;
    use crate::{ScenarioConfig, World};

    /// A world whose DNS, web, WHOIS and Tranco hold only what a test
    /// puts there.
    fn empty_world() -> World {
        let mut world = World::new(ScenarioConfig::test_scale(1));
        world.dns = DnsZoneStore::new();
        world.web = WebSpace::new();
        world.whois = WhoisDatabase::new();
        world.tranco = TrancoList::new();
        world
    }

    fn identity(name: &str, handle: &str) -> (Did, Handle) {
        (
            Did::plc_from_seed(name.as_bytes()),
            Handle::parse(handle).unwrap(),
        )
    }

    #[test]
    fn dns_txt_proof_preferred() {
        // Both proofs published: the TXT record, tried first, is the one
        // found.
        let mut world = empty_world();
        let (did, handle) = identity("alice", "alice.example.com");
        publish::dns_proof(&mut world.dns, &handle, &did);
        publish::well_known_proof(&mut world.web, &handle, &did);
        assert_eq!(world.probe_handle(&handle).proof, Some(Proof::DnsTxt));
    }

    #[test]
    fn well_known_fallback() {
        let mut world = empty_world();
        let (did, handle) = identity("bob", "bob.example.org");
        publish::well_known_proof(&mut world.web, &handle, &did);
        assert_eq!(world.probe_handle(&handle).proof, Some(Proof::WellKnown));
    }

    #[test]
    fn missing_proof_fails() {
        let world = empty_world();
        let (_, handle) = identity("carol", "carol.example.net");
        assert_eq!(
            world.probe_handle(&handle),
            HandleProbe {
                registered_domain: Some("example.net".into()),
                registrar: None,
                in_tranco_top: false,
                proof: None,
            }
        );
    }

    #[test]
    fn registered_domain_carries_its_ranking_and_registrar() {
        let mut world = empty_world();
        let registrar = Registrar {
            iana_id: Some(1068),
            name: "NameCheap, Inc.".into(),
        };
        world.tranco = TrancoList::from_ranked(&["nytimes.com".into()]);
        world.whois.register("nytimes.com", None);
        world
            .whois
            .register("example.co.uk", Some(registrar.clone()));
        // Listed in Tranco, WHOIS record without a registrar.
        let (_, staff) = identity("staff", "staff.nytimes.com");
        let probe = world.probe_handle(&staff);
        assert_eq!(probe.registered_domain.as_deref(), Some("nytimes.com"));
        assert!(probe.in_tranco_top);
        assert_eq!(probe.registrar, None);
        // Under a second-level public suffix, with a registrar, unranked.
        let (_, dave) = identity("dave", "dave.example.co.uk");
        let probe = world.probe_handle(&dave);
        assert_eq!(probe.registered_domain.as_deref(), Some("example.co.uk"));
        assert!(!probe.in_tranco_top);
        assert_eq!(probe.registrar, Some(registrar));
        // A handle that is itself a registrable name under a private
        // suffix has no domain to rank or look up.
        let (_, pages) = identity("pages", "github.io");
        let probe = world.probe_handle(&pages);
        assert_eq!(probe.registered_domain, None);
        assert!(!probe.in_tranco_top);
    }

    #[test]
    fn did_web_resolution() {
        let mut web = WebSpace::new();
        let doc = DidDocument::new(
            Did::web("blog.example.org").unwrap(),
            Handle::parse("blog.example.org").unwrap(),
            "key-web".into(),
            "https://self-hosted.example".into(),
        );
        publish::did_web_document(&mut web, &doc);
        let served = web.get("https://blog.example.org/.well-known/did.json");
        assert_eq!(DidDocument::from_wire(served.body().unwrap()).unwrap(), doc);
        // A `did:plc` document has no domain to be published on.
        let (did, handle) = identity("dave", "dave.example.com");
        let before = web.clone();
        publish::did_web_document(
            &mut web,
            &DidDocument::new(did, handle, "key".into(), "https://pds.example".into()),
        );
        assert_eq!(format!("{web:?}"), format!("{before:?}"));
    }
}
