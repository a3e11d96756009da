//! Simulated HTTPS document space.
//!
//! Several ATProto mechanisms are "fetch a small document over HTTPS":
//! `/.well-known/atproto-did` handle proofs, `/.well-known/did.json` for
//! `did:web`, feed-generator `describeFeedGenerator` metadata, and labeler
//! endpoints. This module stores such documents keyed by URL; a URL that
//! names no `http(s)://` host is unreachable.

use std::collections::BTreeMap;

/// Outcome of an HTTPS GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpResponse {
    /// 200 with a body.
    Ok(String),
    /// 404 — the document does not exist.
    NotFound,
    /// No host to connect to (a malformed URL).
    Unreachable,
}

impl HttpResponse {
    /// The body, if the request succeeded.
    pub fn body(&self) -> Option<&str> {
        match self {
            HttpResponse::Ok(b) => Some(b),
            _ => None,
        }
    }
}

/// A miniature web: URL → document.
#[derive(Debug, Clone, Default)]
pub struct WebSpace {
    documents: BTreeMap<String, String>,
}

fn host_of(url: &str) -> Option<&str> {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))?;
    Some(rest.split('/').next().unwrap_or(rest))
}

impl WebSpace {
    /// Create an empty web.
    pub fn new() -> WebSpace {
        WebSpace::default()
    }

    /// Publish a document at a URL.
    pub fn publish(&mut self, url: &str, body: impl Into<String>) {
        self.documents.insert(url.to_string(), body.into());
    }

    /// Perform a GET.
    pub fn get(&self, url: &str) -> HttpResponse {
        if host_of(url).is_none() {
            return HttpResponse::Unreachable;
        }
        match self.documents.get(url) {
            Some(body) => HttpResponse::Ok(body.clone()),
            None => HttpResponse::NotFound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_get_unpublish() {
        let mut web = WebSpace::new();
        web.publish("https://example.com/.well-known/atproto-did", "did:plc:abc");
        assert_eq!(
            web.get("https://example.com/.well-known/atproto-did"),
            HttpResponse::Ok("did:plc:abc".into())
        );
        assert_eq!(web.get("https://example.com/other"), HttpResponse::NotFound);
        assert_eq!(web.documents.len(), 1);
    }

    #[test]
    fn malformed_urls_are_unreachable() {
        let web = WebSpace::new();
        assert_eq!(web.get("not a url"), HttpResponse::Unreachable);
        assert_eq!(HttpResponse::NotFound.body(), None);
        assert_eq!(HttpResponse::Ok("x".into()).body(), Some("x"));
    }

    #[test]
    fn host_extraction() {
        assert_eq!(
            host_of("https://a.example.com/path/x"),
            Some("a.example.com")
        );
        assert_eq!(host_of("http://b.example"), Some("b.example"));
        assert_eq!(host_of("ftp://c.example"), None);
    }
}
