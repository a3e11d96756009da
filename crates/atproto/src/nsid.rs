//! Namespaced identifiers (NSIDs) for lexicon types.
//!
//! Lexicons organise record types into DNS-like reverse-domain namespaces,
//! e.g. `app.bsky.feed.post` (§2). The measurement study distinguishes
//! Bluesky lexicons (`app.bsky.*`, `com.atproto.*`) from third-party
//! lexicons such as WhiteWind's `com.whtwnd.blog.entry` ("Non-Bluesky
//! content", §4).

use crate::error::{AtError, Result};
use std::borrow::Cow;
use std::fmt;

/// A validated NSID such as `app.bsky.feed.post`. The well-known NSIDs are
/// constants ([`Nsid::POST`], …) that borrow their string: cloning one, or
/// parsing its string, allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Nsid(Cow<'static, str>);

/// Well-known NSIDs used throughout the workspace.
pub mod known {
    /// A microblog post.
    pub const POST: &str = "app.bsky.feed.post";
    /// A like on a post or feed generator.
    pub const LIKE: &str = "app.bsky.feed.like";
    /// A repost.
    pub const REPOST: &str = "app.bsky.feed.repost";
    /// A follow edge.
    pub const FOLLOW: &str = "app.bsky.graph.follow";
    /// A block edge.
    pub const BLOCK: &str = "app.bsky.graph.block";
    /// An actor profile record.
    pub(crate) const PROFILE: &str = "app.bsky.actor.profile";
    /// A feed generator declaration record.
    pub const FEED_GENERATOR: &str = "app.bsky.feed.generator";
    /// A labeler service declaration record.
    pub(crate) const LABELER_SERVICE: &str = "app.bsky.labeler.service";
    /// WhiteWind long-form blog entry (third-party lexicon).
    pub const WHTWND_ENTRY: &str = "com.whtwnd.blog.entry";
}

impl Nsid {
    /// `app.bsky.feed.post`, pre-validated.
    pub const POST: Nsid = Nsid(Cow::Borrowed(known::POST));
    /// `app.bsky.feed.like`, pre-validated.
    pub const LIKE: Nsid = Nsid(Cow::Borrowed(known::LIKE));
    /// `app.bsky.feed.repost`, pre-validated.
    pub const REPOST: Nsid = Nsid(Cow::Borrowed(known::REPOST));
    /// `app.bsky.graph.follow`, pre-validated.
    pub const FOLLOW: Nsid = Nsid(Cow::Borrowed(known::FOLLOW));
    /// `app.bsky.graph.block`, pre-validated.
    pub const BLOCK: Nsid = Nsid(Cow::Borrowed(known::BLOCK));
    /// `app.bsky.actor.profile`, pre-validated.
    pub const PROFILE: Nsid = Nsid(Cow::Borrowed(known::PROFILE));
    /// `app.bsky.feed.generator`, pre-validated.
    pub const FEED_GENERATOR: Nsid = Nsid(Cow::Borrowed(known::FEED_GENERATOR));
    /// `app.bsky.labeler.service`, pre-validated.
    pub(crate) const LABELER_SERVICE: Nsid = Nsid(Cow::Borrowed(known::LABELER_SERVICE));
    /// `com.whtwnd.blog.entry`, pre-validated.
    pub const WHTWND_ENTRY: Nsid = Nsid(Cow::Borrowed(known::WHTWND_ENTRY));

    /// The record-collection constants above (every test that a constant
    /// really is valid, and the parser's shortcut, go through this list).
    const KNOWN: [Nsid; 9] = [
        Nsid::POST,
        Nsid::LIKE,
        Nsid::REPOST,
        Nsid::FOLLOW,
        Nsid::BLOCK,
        Nsid::PROFILE,
        Nsid::FEED_GENERATOR,
        Nsid::LABELER_SERVICE,
        Nsid::WHTWND_ENTRY,
    ];

    /// Parse and validate an NSID.
    pub fn parse(s: &str) -> Result<Nsid> {
        if let Some(known) = Nsid::KNOWN.iter().find(|known| known.0 == s) {
            return Ok(known.clone());
        }
        Nsid::validate(s)?;
        Ok(Nsid(Cow::Owned(s.to_string())))
    }

    /// The syntax check behind [`Nsid::parse`].
    fn validate(s: &str) -> Result<()> {
        let err = || AtError::InvalidNsid(s.to_string());
        // Allow an optional `#fragment` (used for defs references).
        let (main, fragment) = match s.split_once('#') {
            Some((m, f)) => (m, Some(f)),
            None => (s, None),
        };
        let mut segments = 0;
        let mut name = "";
        for seg in main.split('.') {
            if seg.is_empty()
                || seg.len() > 63
                || !seg.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
                || seg.starts_with('-')
                || seg.ends_with('-')
            {
                return Err(err());
            }
            segments += 1;
            name = seg;
        }
        // At least authority (two segments) plus a name (last), which must
        // start with a letter.
        if segments < 3 || !name.starts_with(|c: char| c.is_ascii_alphabetic()) {
            return Err(err());
        }
        if let Some(f) = fragment {
            if f.is_empty() || !f.bytes().all(|b| b.is_ascii_alphanumeric()) {
                return Err(err());
            }
        }
        Ok(())
    }

    /// The NSID string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Length in bytes of the string form.
    pub(crate) fn string_len(&self) -> usize {
        self.0.len()
    }

    /// Append the string form to `out` ([`Self::string_len`] bytes).
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0.as_bytes());
    }

    /// Whether this NSID belongs to the Bluesky application or core ATProto
    /// lexicons (as opposed to third-party applications like WhiteWind).
    pub fn is_bluesky_lexicon(&self) -> bool {
        self.0.starts_with("app.bsky.") || self.0.starts_with("com.atproto.")
    }
}

impl fmt::Display for Nsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Nsid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nsid({})", self.0)
    }
}

impl std::str::FromStr for Nsid {
    type Err = AtError;
    fn from_str(s: &str) -> Result<Nsid> {
        Nsid::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_nsids_are_valid() {
        // The constants skip validation, so validate them here; and parsing
        // a known string hands out the constant.
        for known in Nsid::KNOWN {
            Nsid::validate(known.as_str()).unwrap();
            let parsed = Nsid::parse(known.as_str()).unwrap();
            assert_eq!(parsed, known);
            assert!(matches!(parsed.0, Cow::Borrowed(_)));
        }
        assert!(matches!(
            Nsid::parse("com.example.thing").unwrap().0,
            Cow::Owned(_)
        ));
        for s in [
            known::POST,
            known::LIKE,
            known::REPOST,
            known::FOLLOW,
            known::BLOCK,
            known::PROFILE,
            known::FEED_GENERATOR,
            known::LABELER_SERVICE,
            "com.atproto.label.defs#label",
            known::WHTWND_ENTRY,
        ] {
            assert!(Nsid::parse(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn authority_and_name() {
        let n = Nsid::parse("app.bsky.feed.post").unwrap();
        assert!(n.is_bluesky_lexicon());
        let n = Nsid::parse("com.whtwnd.blog.entry").unwrap();
        assert!(!n.is_bluesky_lexicon());
    }

    #[test]
    fn fragment_handling() {
        let n = Nsid::parse("com.atproto.label.defs#label").unwrap();
        assert_eq!(n.as_str(), "com.atproto.label.defs#label");
        assert!(Nsid::parse("com.atproto.label.defs#").is_err());
        assert!(Nsid::parse("com.atproto.label.defs#two#three").is_err());
    }

    #[test]
    fn rejects_invalid() {
        for s in [
            "",
            "single",
            "two.segments",
            "has..empty",
            "app.bsky.1numeric",
            "app.bsky.-dash",
            "app.bsky.dash-",
            "app.bsky.sp ace",
            "app.bsky.под",
        ] {
            assert!(Nsid::parse(s).is_err(), "should reject {s:?}");
        }
    }
}
