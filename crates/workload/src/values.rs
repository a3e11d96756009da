//! Label value catalogues.
//!
//! There is no official list of label values beyond a handful of reserved and
//! hardcoded ones (§6.2); Labelers declare their own. These catalogues mirror
//! the values the paper observes: the official Bluesky Labeler's NSFW /
//! community-standards values, and the niche values of the most active
//! community Labelers (Tables 3, 4 and 6).

/// Representative community labeler profiles observed in Table 3 / Table 6:
/// `(display name, primary values)`.
pub(crate) const COMMUNITY_LABELER_PROFILES: &[(&str, &[&str])] = &[
    (
        "Bad Accessibility / Alt Text Labeler",
        &["no-alt-text", "non-alt-text", "mis-alt-text"],
    ),
    (
        "XBlock Screenshot Labeler",
        &[
            "twitter-screenshot",
            "bluesky-screenshot",
            "uncategorised-screenshot",
        ],
    ),
    ("No GIFS Please", &["tenor-gif", "tenor-gif-no-text"]),
    ("AI Imagery Labeler", &["ai-imagery"]),
    (
        "FF14 Spoiler Labeler",
        &["shadowbringers", "endwalker", "dawntrail"],
    ),
    (
        "Community Topic Labeler",
        &["ai-related-content", "spoiler", "test-label"],
    ),
    (
        "Moderation Collective",
        &["trolling", "transphobia", "racial-intolerance"],
    ),
    ("Furry Content Tagger", &["pup", "fatfur", "diaper"]),
    ("Beans", &["beans"]),
    ("Cringe Curator", &["simping", "bad-selfies", "cringe"]),
    (
        "Quality Filter",
        &["lowquality", "shorturl", "unknown-source"],
    ),
    ("Meme Historian", &["alf", "sensual-alf", "the-format"]),
    (
        "Severity Tester",
        &[
            "severity-alert-blurs-content",
            "severity-alert-blurs-media",
            "severity-alert-blurs-none",
        ],
    ),
    ("JA Spam Watch", &["spam-aff-ja", "spam", "porn"]),
    ("Vibes Labeler", &["so-true", "epic", "based"]),
    ("Trigger Warnings", &["!warn", "threat", "triggerwarning"]),
    ("Phobia Tagger", &["coulro", "arachno", "lepidoptero"]),
    (
        "Discourse Meter",
        &["neutral-pro-discourse", "anti-discourse"],
    ),
    (
        "Spoiler Shield",
        &["spoilers", "!no-promote", "!no-unauthenticated"],
    ),
    ("Nipps", &["nipps", "no-church", "non-handshake"]),
    ("General Purpose", &["!warn", "porn", "spam"]),
    ("Disinfo Watch", &["amplifying-disinfo"]),
    ("Bean Sceptics", &["beanhate", "feature-scold"]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::label::{Label, LabelTarget};
    use bsky_atproto::{Datetime, Did};

    #[test]
    fn all_catalogue_values_are_valid_labels() {
        let labeler = Did::plc_from_seed(b"labeler");
        let target = LabelTarget::Account(Did::plc_from_seed(b"subject"));
        let at = Datetime::from_ymd(2024, 4, 1).unwrap();
        for value in COMMUNITY_LABELER_PROFILES
            .iter()
            .flat_map(|(_, values)| *values)
        {
            let label = Label::new(labeler.clone(), target.clone(), *value, at);
            assert!(label.is_ok(), "{value}");
        }
    }

    #[test]
    fn profile_count_matches_paper_scale() {
        // The paper observes 36 labelers that issued at least one label; our
        // profile list covers the 24 with distinguishable behaviour
        // (Table 6) minus the official one.
        assert!(COMMUNITY_LABELER_PROFILES.len() >= 23);
    }
}
