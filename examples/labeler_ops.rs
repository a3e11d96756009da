//! Run a community Labeler end to end: observe posts, publish labels after a
//! reaction delay, rescind a false positive, and apply user moderation
//! preferences to decide what a client shows (§6 of the paper).
//!
//! ```sh
//! cargo run --example labeler_ops
//! ```

use bluesky_repro::bsky_appview::{decide_post_visibility, PostInfo, Visibility};
use bluesky_repro::bsky_atproto::label::LabelTarget;
use bluesky_repro::bsky_atproto::nsid::known;
use bluesky_repro::bsky_atproto::record::{Embed, ImageEmbed, MediaKind, PostRecord};
use bluesky_repro::bsky_atproto::{AtUri, Datetime, Did, Nsid};
use bluesky_repro::bsky_labeler::{
    IssuancePolicy, LabelerOperator, LabelerService, ReactionModel, Trigger,
};
use bluesky_repro::bsky_pds::ModerationPreferences;
use bluesky_repro::bsky_simnet::net::HostingClass;
use bluesky_repro::bsky_simnet::SimRng;

fn main() {
    let now = Datetime::from_ymd(2024, 4, 1).unwrap();
    let author = Did::plc_from_seed(b"author");

    // An automated alt-text labeler, as in Table 3's most active entry.
    let mut labeler = LabelerService::new(
        Did::plc_from_seed(b"alt-text-labeler"),
        "Bad Accessibility / Alt Text Labeler",
        LabelerOperator::Community,
        HostingClass::Cloud,
        IssuancePolicy::new(
            vec![Trigger::MissingAltText {
                value: "no-alt-text".into(),
            }],
            ReactionModel::Automated {
                median_secs: 0.6,
                sigma: 0.2,
            },
        )
        .with_rescind_probability(0.1),
        SimRng::new(7),
    );

    // Two posts: one with alt text, one without.
    let described = PostRecord {
        text: "my cat".into(),
        created_at: now,
        langs: vec!["en".into()],
        reply_parent: None,
        embed: Some(Embed::Images(vec![ImageEmbed {
            alt: Some("a tabby cat on a sofa".into()),
            kind: MediaKind::Photo,
        }])),
        tags: vec![],
    };
    let undescribed = PostRecord {
        embed: Some(Embed::Images(vec![ImageEmbed {
            alt: None,
            kind: MediaKind::Photo,
        }])),
        ..described.clone()
    };
    let uri_ok = AtUri::record(
        author.clone(),
        Nsid::parse(known::POST).unwrap(),
        "withalt00001",
    );
    let uri_missing = AtUri::record(
        author.clone(),
        Nsid::parse(known::POST).unwrap(),
        "noalt0000001",
    );
    labeler.observe_post(&uri_ok, &described, now);
    labeler.observe_post(&uri_missing, &undescribed, now);

    // Let the reaction delay elapse and read the public stream.
    labeler.poll(now.plus_seconds(3600));
    let labels: Vec<_> = labeler.subscribe_labels(0).0.to_vec();
    println!("labeler published {} interaction(s):", labels.len());
    for label in &labels {
        println!(
            "  {} -> {} (negated: {})",
            label.value,
            label.target.uri(),
            label.negated
        );
    }

    // Account-level moderation from the official labeler.
    let official = Did::plc_from_seed(b"bluesky-official");
    labeler
        .apply_label(
            LabelTarget::Account(Did::plc_from_seed(b"spammer")),
            "spam",
            now,
        )
        .unwrap();

    // Client-side decision: a viewer subscribed to the community labeler.
    let mut prefs = ModerationPreferences::default();
    prefs.subscribe(labeler.did().clone());
    let post_info = PostInfo {
        uri: uri_missing.clone(),
        author,
        record: undescribed,
        indexed_at: now,
        like_count: 0,
        repost_count: 0,
        labels: labels
            .iter()
            .filter(|l| !l.negated && l.target.uri() == uri_missing.to_string())
            .map(|l| (l.src.clone(), l.value.clone()))
            .collect(),
    };
    let decision = decide_post_visibility(&post_info, &prefs, &official);
    println!(
        "viewer subscribed to the labeler sees the un-described post as: {:?}",
        decision
    );
    assert_ne!(
        decision,
        Visibility::Hide,
        "warnings, not removal, by default"
    );
}
