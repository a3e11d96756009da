//! User handles.
//!
//! Handles are mutable, human-friendly identifiers; each handle is a
//! fully-qualified domain name whose ownership is proven either through a DNS
//! TXT record at `_atproto.<handle>` or through an
//! `https://<handle>/.well-known/atproto-did` document (§2, §5 of the paper).
//! By default Bluesky issues custodial handles under `bsky.social`.

use crate::error::{AtError, Result};
use std::fmt;

/// The default custodial handle suffix operated by Bluesky PBC.
pub(crate) const BSKY_SOCIAL: &str = "bsky.social";

/// A validated FQDN handle such as `alice.bsky.social` or `example.com`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(String);

impl Handle {
    /// Maximum total length of a handle in bytes (DNS limit).
    pub(crate) const MAX_LEN: usize = 253;
    /// Maximum length of a single label.
    pub(crate) const MAX_LABEL_LEN: usize = 63;

    /// Parse and validate a handle.
    pub fn parse(s: &str) -> Result<Handle> {
        let lower = s.to_ascii_lowercase();
        let lower = lower.strip_prefix('@').unwrap_or(&lower).to_string();
        if lower.is_empty() || lower.len() > Self::MAX_LEN {
            return Err(AtError::InvalidHandle(s.to_string()));
        }
        let labels: Vec<&str> = lower.split('.').collect();
        if labels.len() < 2 {
            return Err(AtError::InvalidHandle(s.to_string()));
        }
        for label in &labels {
            if label.is_empty()
                || label.len() > Self::MAX_LABEL_LEN
                || label.starts_with('-')
                || label.ends_with('-')
                || !label
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            {
                return Err(AtError::InvalidHandle(s.to_string()));
            }
        }
        // TLD must not be all-numeric.
        if labels.last().unwrap().bytes().all(|b| b.is_ascii_digit()) {
            return Err(AtError::InvalidHandle(s.to_string()));
        }
        Ok(Handle(lower))
    }

    /// The handle as a string slice (never includes the leading `@`).
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The DNS labels of the handle, most-specific first.
    pub fn labels(&self) -> Vec<&str> {
        self.0.split('.').collect()
    }

    /// Whether this handle is a custodial subdomain of `bsky.social`.
    pub fn is_bsky_social(&self) -> bool {
        self.0 == BSKY_SOCIAL || self.0.ends_with(".bsky.social")
    }

    /// The DNS name at which the TXT ownership proof must live.
    pub fn atproto_txt_name(&self) -> String {
        format!("_atproto.{}", self.0)
    }

    /// The URL path of the well-known ownership proof.
    pub fn well_known_url(&self) -> String {
        format!("https://{}/.well-known/atproto-did", self.0)
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Handle(@{})", self.0)
    }
}

impl std::str::FromStr for Handle {
    type Err = AtError;
    fn from_str(s: &str) -> Result<Handle> {
        Handle::parse(s)
    }
}

impl AsRef<str> for Handle {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_handles() {
        let h = Handle::parse("alice.bsky.social").unwrap();
        assert!(h.is_bsky_social());
        assert_eq!(h.as_str(), "alice.bsky.social");
        assert_eq!(h.labels(), vec!["alice", "bsky", "social"]);
        let h = Handle::parse("@Example.COM").unwrap();
        assert_eq!(h.as_str(), "example.com");
        assert!(!h.is_bsky_social());
    }

    #[test]
    fn handles_from_paper() {
        for s in [
            "baatl.bsky.social",
            "aendra.com",
            "ff14labeler.bsky.social",
            "usounds.work",
            "someone.swifties.social",
            "someone.tired.io",
            "someone.vibes.cool",
            "user.github.io",
            "nytimes.com",
            "stanford.edu",
        ] {
            assert!(Handle::parse(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn rejects_invalid() {
        for s in [
            "",
            "nodots",
            ".leading.dot",
            "trailing.dot.",
            "double..dot",
            "-dash.start.com",
            "dash.end-.com",
            "under_score.com",
            "spaces here.com",
            "numeric.tld.123",
            &("a".repeat(64) + ".com"),
            &(format!("{}.com", "a.".repeat(130))),
        ] {
            assert!(Handle::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn bsky_social_constructor() {
        let h = Handle::parse("carol.bsky.social").unwrap();
        assert!(h.is_bsky_social());
        assert!(!Handle::parse("carol.other.social")
            .unwrap()
            .is_bsky_social());
    }

    #[test]
    fn subdomain_matching_requires_label_boundary() {
        let h = Handle::parse("notbsky.social").unwrap();
        assert!(!h.is_bsky_social());
    }

    #[test]
    fn ownership_proof_locations() {
        let h = Handle::parse("example.com").unwrap();
        assert_eq!(h.atproto_txt_name(), "_atproto.example.com");
        assert_eq!(
            h.well_known_url(),
            "https://example.com/.well-known/atproto-did"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn parser_never_panics() {
        let mut rng = TestRng::new(0x4a4d);
        for _ in 0..500 {
            let s = rng.junk_string(80);
            let _ = Handle::parse(&s);
        }
    }

    #[test]
    fn valid_labels_always_parse() {
        let mut rng = TestRng::new(0x4a4e);
        for _ in 0..200 {
            let a = rng.lowercase(1, 11);
            let b = rng.lowercase(1, 11);
            let c = rng.lowercase(2, 7);
            let s = format!("{a}.{b}.{c}");
            let h = Handle::parse(&s).unwrap();
            assert_eq!(h.as_str(), s.as_str());
            assert_eq!(h.labels().len(), 3);
        }
    }
}
