//! Moderation labels.
//!
//! Labels are short strings attached by Labelers to network objects — posts,
//! whole accounts, or profile media (§2, §6). Reserved values prefixed with
//! `!` have hardcoded behaviour and are only honoured when issued by the
//! official Bluesky Labeler. A label can be rescinded by re-publishing it
//! with the negation flag set.

use crate::aturi::AtUri;
use crate::datetime::Datetime;
use crate::did::Did;
use crate::error::{AtError, Result};

/// What a label is attached to (Table 4 of the paper groups by this).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelTarget {
    /// A record, identified by its `at://` URI (virtually always a post).
    Record(AtUri),
    /// A whole account, identified by DID.
    Account(Did),
    /// An account's profile picture or banner.
    ProfileMedia(Did),
}

/// The coarse target type used by Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelTargetKind {
    /// A post (or other record).
    Post,
    /// A whole account.
    Account,
    /// A banner or avatar image.
    BannerAvatar,
}

impl LabelTargetKind {
    /// Display name matching Table 4.
    pub fn display_name(&self) -> &'static str {
        match self {
            LabelTargetKind::Post => "Post",
            LabelTargetKind::Account => "Account",
            LabelTargetKind::BannerAvatar => "Banner/Avatar",
        }
    }
}

impl LabelTarget {
    /// The coarse kind of this target.
    pub fn kind(&self) -> LabelTargetKind {
        match self {
            LabelTarget::Record(_) => LabelTargetKind::Post,
            LabelTarget::Account(_) => LabelTargetKind::Account,
            LabelTarget::ProfileMedia(_) => LabelTargetKind::BannerAvatar,
        }
    }

    /// Canonical string form (`at://` URI or DID).
    pub fn uri(&self) -> String {
        match self {
            LabelTarget::Record(uri) => uri.to_string(),
            LabelTarget::Account(did) => did.to_string(),
            LabelTarget::ProfileMedia(did) => format!("{did}#media"),
        }
    }
}

/// Validate a label value: lowercase kebab-case, optionally `!`-prefixed.
pub(crate) fn validate_value(value: &str) -> Result<()> {
    let body = value.strip_prefix('!').unwrap_or(value);
    if body.is_empty()
        || body.len() > 128
        || !body
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
        || body.starts_with('-')
        || body.ends_with('-')
    {
        return Err(AtError::InvalidLabel(value.to_string()));
    }
    Ok(())
}

/// A single label interaction as published on a Labeler's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The Labeler that issued the label.
    pub src: Did,
    /// What the label is attached to.
    pub target: LabelTarget,
    /// The label value, e.g. `porn` or `no-alt-text`.
    pub value: String,
    /// True when this interaction rescinds a previously issued label.
    pub negated: bool,
    /// When the Labeler issued it.
    pub created_at: Datetime,
}

impl Label {
    /// Create a (validated) label.
    pub fn new(
        src: Did,
        target: LabelTarget,
        value: impl Into<String>,
        created_at: Datetime,
    ) -> Result<Label> {
        let value = value.into();
        validate_value(&value)?;
        Ok(Label {
            src,
            target,
            value,
            negated: false,
            created_at,
        })
    }

    /// Create the negation of this label (same source, target and value).
    pub fn negation(&self, at: Datetime) -> Label {
        Label {
            negated: true,
            created_at: at,
            ..self.clone()
        }
    }
}

// The effective label set of a stream: a reference for the tests, which
// the AppView's own label application (applying and rescinding per
// target) is held to indirectly.
#[cfg(test)]
impl Label {
    /// The deduplication key `(src, target, value)` used when applying
    /// negations.
    pub(crate) fn key(&self) -> (String, String, String) {
        (self.src.to_string(), self.target.uri(), self.value.clone())
    }
}

#[cfg(test)]
/// Apply a stream of label interactions in order, honouring negations, and
/// return the set of currently effective labels.
pub(crate) fn effective_labels(stream: &[Label]) -> Vec<Label> {
    use std::collections::BTreeMap;
    let mut state: BTreeMap<(String, String, String), Label> = BTreeMap::new();
    for label in stream {
        if label.negated {
            state.remove(&label.key());
        } else {
            state.insert(label.key(), label.clone());
        }
    }
    state.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsid::known;
    use crate::Nsid;

    fn labeler() -> Did {
        Did::plc_from_seed(b"labeler")
    }

    fn alice() -> Did {
        Did::plc_from_seed(b"alice")
    }

    fn post_target() -> LabelTarget {
        LabelTarget::Record(AtUri::record(
            alice(),
            Nsid::parse(known::POST).unwrap(),
            "3kabcdefgh234",
        ))
    }

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 1, 10, 0, 0).unwrap()
    }

    #[test]
    fn value_validation() {
        for ok in [
            "porn",
            "no-alt-text",
            "tenor-gif",
            "!takedown",
            "spam",
            "ai-imagery",
        ] {
            assert!(validate_value(ok).is_ok(), "{ok}");
        }
        for bad in ["", "!", "UPPER", "has space", "-lead", "trail-", "ünicode"] {
            assert!(validate_value(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn target_kind_display_names_match_table4() {
        assert_eq!(LabelTargetKind::Post.display_name(), "Post");
        assert_eq!(LabelTargetKind::Account.display_name(), "Account");
        assert_eq!(
            LabelTargetKind::BannerAvatar.display_name(),
            "Banner/Avatar"
        );
    }

    #[test]
    fn negation_removes_effective_label() {
        let label = Label::new(labeler(), post_target(), "porn", now()).unwrap();
        let other = Label::new(labeler(), post_target(), "sexual", now()).unwrap();
        let stream = vec![
            label.clone(),
            other.clone(),
            label.negation(now().plus_seconds(60)),
        ];
        let effective = effective_labels(&stream);
        assert_eq!(effective, vec![other]);
        // Re-applying after negation restores it.
        let stream2 = vec![
            label.clone(),
            label.negation(now().plus_seconds(60)),
            label.clone(),
        ];
        assert_eq!(effective_labels(&stream2).len(), 1);
    }

    #[test]
    fn negation_only_affects_matching_source() {
        let official = Label::new(labeler(), post_target(), "spam", now()).unwrap();
        let community = Label::new(
            Did::plc_from_seed(b"community"),
            post_target(),
            "spam",
            now(),
        )
        .unwrap();
        let stream = vec![
            official.clone(),
            community.clone(),
            official.negation(now().plus_seconds(1)),
        ];
        let effective = effective_labels(&stream);
        assert_eq!(effective, vec![community]);
    }

    #[test]
    fn invalid_values_rejected_at_construction_and_decode() {
        assert!(Label::new(labeler(), post_target(), "Bad Value", now()).is_err());
        assert!(Label::new(labeler(), post_target(), "ok-value", now()).is_ok());
    }
}
