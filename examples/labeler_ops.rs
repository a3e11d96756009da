//! Run a community Labeler end to end: observe posts, then publish labels
//! after a reaction delay, rescinding some as false positives (§6 of the
//! paper).
//!
//! ```sh
//! cargo run --example labeler_ops
//! ```

use bluesky_repro::bsky_atproto::nsid::known;
use bluesky_repro::bsky_atproto::record::{Embed, ImageEmbed, MediaKind, PostRecord};
use bluesky_repro::bsky_atproto::{AtUri, Datetime, Did, Nsid};
use bluesky_repro::bsky_workload::net::HostingClass;
use bluesky_repro::bsky_workload::policy::{IssuancePolicy, ReactionModel, Trigger};
use bluesky_repro::bsky_workload::rng::SimRng;
use bluesky_repro::bsky_workload::service::{LabelerOperator, LabelerService};

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
    let uri_missing = AtUri::record(author, Nsid::parse(known::POST).unwrap(), "noalt0000001");
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
}
