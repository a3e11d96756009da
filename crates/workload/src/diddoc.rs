//! DID documents.
//!
//! A DID document stores the service information of an account: its handle,
//! the PDS endpoint hosting its repository, the signing key used to verify
//! repo commits, and — for Labelers — the labeler service endpoint (§2).
//! Documents are served either by the PLC directory (`did:plc`) or from the
//! owner's domain at `/.well-known/did.json` (`did:web`).

use bsky_atproto::cbor::{self, Value};
use bsky_atproto::crypto::{from_hex, to_hex};
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::{Did, Handle};

/// A service endpoint advertised in a DID document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ServiceEntry {
    /// Service id, e.g. `atproto_pds` or `atproto_labeler`.
    pub(crate) id: String,
    /// Service type, e.g. `AtprotoPersonalDataServer`.
    pub(crate) service_type: String,
    /// Endpoint URL.
    pub(crate) endpoint: String,
}

/// The parsed DID document of an account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DidDocument {
    /// The account's DID.
    pub(crate) did: Did,
    /// The account's current handle (`alsoKnownAs`).
    pub handle: Handle,
    /// Multibase rendering of the account's signing key.
    pub(crate) signing_key: String,
    /// Advertised services.
    pub(crate) services: Vec<ServiceEntry>,
}

/// Standard service id of the PDS entry.
pub(crate) const SERVICE_PDS: &str = "atproto_pds";
impl DidDocument {
    /// Create a document with a PDS endpoint.
    pub(crate) fn new(
        did: Did,
        handle: Handle,
        signing_key: String,
        pds_endpoint: String,
    ) -> DidDocument {
        DidDocument {
            did,
            handle,
            signing_key,
            services: vec![ServiceEntry {
                id: SERVICE_PDS.to_string(),
                service_type: "AtprotoPersonalDataServer".to_string(),
                endpoint: pds_endpoint,
            }],
        }
    }

    /// Add or replace a service entry.
    pub(crate) fn set_service(&mut self, id: &str, service_type: &str, endpoint: &str) {
        if let Some(entry) = self.services.iter_mut().find(|s| s.id == id) {
            entry.service_type = service_type.to_string();
            entry.endpoint = endpoint.to_string();
        } else {
            self.services.push(ServiceEntry {
                id: id.to_string(),
                service_type: service_type.to_string(),
                endpoint: endpoint.to_string(),
            });
        }
    }

    /// Encode to the CBOR data model.
    pub(crate) fn to_value(&self) -> Value {
        Value::map([
            ("id", Value::text(self.did.to_string())),
            (
                "alsoKnownAs",
                Value::Array(vec![Value::text(format!("at://{}", self.handle))]),
            ),
            ("signingKey", Value::text(&self.signing_key)),
            (
                "service",
                Value::Array(
                    self.services
                        .iter()
                        .map(|s| {
                            Value::map([
                                ("id", Value::text(format!("#{}", s.id))),
                                ("type", Value::text(&s.service_type)),
                                ("serviceEndpoint", Value::text(&s.endpoint)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode from the CBOR data model.
    pub(crate) fn from_value(value: &Value) -> Result<DidDocument> {
        let did = Did::parse(
            value
                .get("id")
                .and_then(Value::as_text)
                .ok_or_else(|| AtError::InvalidRecord("did doc missing id".into()))?,
        )?;
        let aka = value
            .get("alsoKnownAs")
            .and_then(Value::as_array)
            .and_then(|a| a.first())
            .and_then(Value::as_text)
            .ok_or_else(|| AtError::InvalidRecord("did doc missing alsoKnownAs".into()))?;
        let handle = Handle::parse(aka.strip_prefix("at://").unwrap_or(aka))?;
        let signing_key = value
            .get("signingKey")
            .and_then(Value::as_text)
            .unwrap_or_default()
            .to_string();
        let services = value
            .get("service")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| {
                Some(ServiceEntry {
                    id: s
                        .get("id")
                        .and_then(Value::as_text)?
                        .trim_start_matches('#')
                        .to_string(),
                    service_type: s.get("type").and_then(Value::as_text)?.to_string(),
                    endpoint: s
                        .get("serviceEndpoint")
                        .and_then(Value::as_text)?
                        .to_string(),
                })
            })
            .collect();
        Ok(DidDocument {
            did,
            handle,
            signing_key,
            services,
        })
    }

    /// Serialise to the wire form stored at `/.well-known/did.json` and in
    /// the PLC directory (hex-encoded DAG-CBOR in this simulation).
    pub(crate) fn to_wire(&self) -> String {
        to_hex(&cbor::encode(&self.to_value()))
    }

    /// Parse the wire form.
    pub fn from_wire(s: &str) -> Result<DidDocument> {
        let bytes = from_hex(s.trim())?;
        DidDocument::from_value(&cbor::decode(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> DidDocument {
        DidDocument::new(
            Did::plc_from_seed(b"alice"),
            Handle::parse("alice.bsky.social").unwrap(),
            "zQ3simalice-key".into(),
            "https://pds001.bsky.network".into(),
        )
    }

    #[test]
    fn roundtrip_wire_form() {
        let d = doc();
        let wire = d.to_wire();
        let back = DidDocument::from_wire(&wire).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.services.len(), 1);
        assert_eq!(back.services[0].endpoint, "https://pds001.bsky.network");
    }

    #[test]
    fn labeler_endpoint_roundtrip() {
        let mut d = doc();
        let labeler = |d: &DidDocument| {
            let entry = d.services.iter().find(|s| s.id == "atproto_labeler");
            entry.map(|s| s.endpoint.clone())
        };
        d.set_service(
            "atproto_labeler",
            "AtprotoLabeler",
            "https://labeler.example/xrpc",
        );
        let back = DidDocument::from_wire(&d.to_wire()).unwrap();
        assert_eq!(
            labeler(&back).as_deref(),
            Some("https://labeler.example/xrpc")
        );
        assert_eq!(back.services.len(), 2);
        // Setting again replaces rather than duplicating.
        d.set_service(
            "atproto_labeler",
            "AtprotoLabeler",
            "https://labeler2.example/xrpc",
        );
        assert_eq!(d.services.len(), 2);
        assert_eq!(
            labeler(&d).as_deref(),
            Some("https://labeler2.example/xrpc")
        );
    }

    #[test]
    fn pds_migration_updates_endpoint() {
        let mut d = doc();
        d.set_service(
            SERVICE_PDS,
            "AtprotoPersonalDataServer",
            "https://self-hosted.example",
        );
        assert_eq!(d.services[0].endpoint, "https://self-hosted.example");
        assert_eq!(d.services.len(), 1);
    }

    #[test]
    fn from_wire_rejects_garbage() {
        assert!(DidDocument::from_wire("zz").is_err());
        assert!(DidDocument::from_wire("").is_err());
        assert!(DidDocument::from_wire("00ff00").is_err());
    }
}
