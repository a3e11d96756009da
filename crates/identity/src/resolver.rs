//! Publishing handle-ownership proofs and `did:web` documents.
//!
//! Resolution is bidirectional (§2, §5): a handle resolves to a DID through
//! one of two ownership proofs (a DNS TXT record at `_atproto.<handle>` or an
//! HTTPS document at `/.well-known/atproto-did`), and the DID's document must
//! list that handle back for the pairing to be considered verified. DID
//! documents themselves come from the PLC directory (`did:plc`) or from
//! `/.well-known/did.json` on the handle's domain (`did:web`). This module is
//! the publishing half — what a PDS does when an account is created or a
//! handle changes; the study's collector does the resolving, against the
//! same DNS and web stores, in `bsky-study`'s `collect` and `identity`.

use crate::diddoc::DidDocument;
use bsky_atproto::{Did, Handle};
use bsky_simnet::dns::DnsZoneStore;
use bsky_simnet::http::WebSpace;

/// Helpers for publishing ownership proofs (used by PDSes when accounts are
/// created or when handles change).
pub mod publish {
    use super::*;

    /// Publish a DNS TXT ownership proof for a handle.
    pub fn dns_proof(dns: &mut DnsZoneStore, handle: &Handle, did: &Did) {
        dns.set_txt(&handle.atproto_txt_name(), vec![format!("did={did}")]);
    }

    /// Publish a well-known HTTPS ownership proof for a handle.
    pub fn well_known_proof(web: &mut WebSpace, handle: &Handle, did: &Did) {
        web.publish(&handle.well_known_url(), did.to_string());
    }

    /// Publish a `did:web` DID document on its domain.
    pub fn did_web_document(web: &mut WebSpace, document: &DidDocument) {
        if let Some(domain) = document.did.web_domain() {
            web.publish(
                &format!("https://{domain}/.well-known/did.json"),
                document.to_wire(),
            );
        }
    }
}

/// What `publish` writes, read back the way the study resolves it:
/// `DnsZoneStore::lookup_atproto_did` for the TXT proof and `WebSpace::get`
/// for the two well-known documents.
#[cfg(test)]
mod tests {
    use super::*;
    use bsky_simnet::http::HttpResponse;

    fn identity(name: &str, handle: &str) -> (Did, Handle) {
        (
            Did::plc_from_seed(name.as_bytes()),
            Handle::parse(handle).unwrap(),
        )
    }

    #[test]
    fn dns_txt_proof_preferred() {
        // Both proofs published: the TXT lookup — the one the identity
        // analysis tries first — already answers with the DID.
        let (mut dns, mut web) = (DnsZoneStore::new(), WebSpace::new());
        let (did, handle) = identity("alice", "alice.example.com");
        publish::dns_proof(&mut dns, &handle, &did);
        publish::well_known_proof(&mut web, &handle, &did);
        assert_eq!(
            dns.lookup_atproto_did(handle.as_str()),
            Some(did.to_string())
        );
    }

    #[test]
    fn well_known_fallback() {
        let (dns, mut web) = (DnsZoneStore::new(), WebSpace::new());
        let (did, handle) = identity("bob", "bob.example.org");
        publish::well_known_proof(&mut web, &handle, &did);
        assert_eq!(dns.lookup_atproto_did(handle.as_str()), None);
        assert_eq!(
            web.get(&handle.well_known_url()),
            HttpResponse::Ok(did.to_string())
        );
    }

    #[test]
    fn missing_proof_fails() {
        let (dns, web) = (DnsZoneStore::new(), WebSpace::new());
        let (_, handle) = identity("carol", "carol.example.net");
        assert_eq!(dns.lookup_atproto_did(handle.as_str()), None);
        assert_eq!(web.get(&handle.well_known_url()), HttpResponse::NotFound);
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
