//! Client-side moderation decisions.
//!
//! Labels only become moderation when a client combines them with the
//! viewer's preferences (§2, §6): for each Labeler the user subscribes to and
//! for each label value, the preference says whether to ignore, warn or hide.
//! Reserved `!` labels from the official Bluesky Labeler are enforced
//! regardless of preferences, and adult-content labels are hidden for users
//! who have not enabled adult content.

use crate::index::PostInfo;
use bsky_atproto::label::{is_reserved_value, ADULT_CONTENT_LABELS};
use bsky_atproto::Did;
use bsky_pds::{LabelAction, ModerationPreferences};

/// The visibility decision for a piece of content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Visibility {
    /// Show normally.
    Show,
    /// Show behind a warning.
    Warn,
    /// Hide from the viewer.
    Hide,
}

/// Decide the visibility of a post for a viewer.
///
/// `official_labeler` is the mandatory Bluesky labeler every user is
/// subscribed to (§6.2: "unsubscribing is not an option").
pub fn decide_post_visibility(
    post: &PostInfo,
    preferences: &ModerationPreferences,
    official_labeler: &Did,
) -> Visibility {
    let mut decision = Visibility::Show;
    for (src, value) in &post.labels {
        let from_official = src == official_labeler;
        let subscribed = from_official || preferences.subscribed_labelers.contains(src);
        if !subscribed {
            continue;
        }
        // Reserved values are only honoured from the official labeler and
        // always hide.
        if is_reserved_value(value) {
            if from_official {
                return Visibility::Hide;
            }
            continue;
        }
        // Age-gated values hide unless adult content is enabled; they have
        // hardcoded behaviour from any labeler (§6.2).
        if ADULT_CONTENT_LABELS.contains(&value.as_str()) && !preferences.adult_content_enabled {
            decision = decision.max(Visibility::Hide);
            continue;
        }
        let action = preferences.action_for(value);
        let vis = match action {
            LabelAction::Ignore => Visibility::Show,
            LabelAction::Warn => Visibility::Warn,
            LabelAction::Hide => Visibility::Hide,
        };
        decision = decision.max(vis);
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::PostRecord;
    use bsky_atproto::{AtUri, Datetime, Nsid};

    fn official() -> Did {
        Did::plc_from_seed(b"bluesky-official-labeler")
    }

    fn community() -> Did {
        Did::plc_from_seed(b"community-labeler")
    }

    fn post_with_labels(labels: Vec<(Did, &str)>) -> PostInfo {
        let author = Did::plc_from_seed(b"author");
        PostInfo {
            uri: AtUri::record(
                author.clone(),
                Nsid::parse(known::POST).unwrap(),
                "rkey000000001",
            ),
            author,
            record: PostRecord::simple("content", "en", Datetime::from_ymd(2024, 4, 1).unwrap()),
            indexed_at: Datetime::from_ymd(2024, 4, 1).unwrap(),
            like_count: 0,
            repost_count: 0,
            labels: labels
                .into_iter()
                .map(|(d, v)| (d, v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn unlabeled_posts_show() {
        let prefs = ModerationPreferences::default();
        let post = post_with_labels(vec![]);
        assert_eq!(
            decide_post_visibility(&post, &prefs, &official()),
            Visibility::Show
        );
    }

    #[test]
    fn takedown_from_official_always_hides() {
        let prefs = ModerationPreferences {
            adult_content_enabled: true,
            ..Default::default()
        };
        let post = post_with_labels(vec![(official(), "!takedown")]);
        assert_eq!(
            decide_post_visibility(&post, &prefs, &official()),
            Visibility::Hide
        );
        // The same value from a community labeler the user subscribes to is
        // ignored (reserved values are only valid from the official labeler).
        let mut prefs2 = ModerationPreferences::default();
        prefs2.subscribe(community());
        let post2 = post_with_labels(vec![(community(), "!takedown")]);
        assert_eq!(
            decide_post_visibility(&post2, &prefs2, &official()),
            Visibility::Show
        );
    }

    #[test]
    fn adult_content_is_age_gated() {
        let prefs = ModerationPreferences::default();
        let post = post_with_labels(vec![(official(), "porn")]);
        assert_eq!(
            decide_post_visibility(&post, &prefs, &official()),
            Visibility::Hide
        );
        let mut adult_ok = ModerationPreferences {
            adult_content_enabled: true,
            ..Default::default()
        };
        adult_ok
            .label_actions
            .insert("porn".into(), LabelAction::Ignore);
        assert_eq!(
            decide_post_visibility(&post, &adult_ok, &official()),
            Visibility::Show
        );
    }

    #[test]
    fn unsubscribed_community_labels_are_ignored() {
        let prefs = ModerationPreferences::default();
        let post = post_with_labels(vec![(community(), "no-alt-text")]);
        assert_eq!(
            decide_post_visibility(&post, &prefs, &official()),
            Visibility::Show
        );
        let mut subscribed = ModerationPreferences::default();
        subscribed.subscribe(community());
        assert_eq!(
            decide_post_visibility(&post, &subscribed, &official()),
            Visibility::Warn
        );
        subscribed
            .label_actions
            .insert("no-alt-text".into(), LabelAction::Hide);
        assert_eq!(
            decide_post_visibility(&post, &subscribed, &official()),
            Visibility::Hide
        );
    }

    #[test]
    fn strictest_decision_wins() {
        let mut prefs = ModerationPreferences::default();
        prefs.subscribe(community());
        prefs.label_actions.insert("spam".into(), LabelAction::Warn);
        prefs
            .label_actions
            .insert("trolling".into(), LabelAction::Hide);
        let post = post_with_labels(vec![(community(), "spam"), (community(), "trolling")]);
        assert_eq!(
            decide_post_visibility(&post, &prefs, &official()),
            Visibility::Hide
        );
    }

    /// Ingestion-to-decision coverage: how labels reach the index drives
    /// what the moderation layer can decide, so the ingestion edge cases
    /// are pinned here against the visibility outcome, at 1 and 4 entity
    /// shards.
    mod ingestion {
        use super::*;
        use crate::api::AppView;
        use bsky_atproto::blockstore::StoreConfig;
        use bsky_atproto::label::{Label, LabelTarget};
        use bsky_atproto::nsid::known;
        use bsky_atproto::record::Record;
        use bsky_atproto::{AtUri, Nsid};

        fn now() -> Datetime {
            Datetime::from_ymd_hms(2024, 4, 10, 10, 0, 0).unwrap()
        }

        fn seeded(shards: usize) -> (AppView, AtUri) {
            let mut appview = AppView::with_shards(shards, &StoreConfig::mem(), true);
            let author = Did::plc_from_seed(b"author");
            appview.index_mut().index_record(
                &author,
                &Nsid::parse(known::POST).unwrap(),
                "rkey000000001",
                &Record::Post(PostRecord::simple("content", "en", now())),
                now(),
            );
            let uri = AtUri::record(author, Nsid::parse(known::POST).unwrap(), "rkey000000001");
            (appview, uri)
        }

        fn spam(uri: &AtUri) -> Label {
            Label::new(official(), LabelTarget::Record(uri.clone()), "spam", now()).unwrap()
        }

        #[test]
        fn duplicate_label_delivery_is_idempotent() {
            for shards in [1, 4] {
                let (mut appview, uri) = seeded(shards);
                // The same stream entry delivered three times (a labeler
                // replaying its stream) applies exactly once.
                for _ in 0..3 {
                    appview.index_mut().ingest_label(&spam(&uri));
                }
                let post = appview.index().post(&uri).unwrap();
                assert_eq!(post.labels.len(), 1, "{shards} shard(s)");
                assert_eq!(appview.index().labels_ingested(), 3);
                assert_eq!(appview.index().labels_preindex(), 0);
                // The decision reflects one warning-grade label, not three.
                let mut prefs = ModerationPreferences::default();
                prefs.label_actions.insert("spam".into(), LabelAction::Warn);
                assert_eq!(
                    decide_post_visibility(&post, &prefs, &official()),
                    Visibility::Warn
                );
            }
        }

        #[test]
        fn rescinded_label_clears_the_earlier_application() {
            for shards in [1, 4] {
                let (mut appview, uri) = seeded(shards);
                appview.index_mut().ingest_label(&spam(&uri));
                appview
                    .index_mut()
                    .ingest_label(&spam(&uri).negation(now().plus_seconds(60)));
                let post = appview.index().post(&uri).unwrap();
                assert!(post.labels.is_empty(), "{shards} shard(s)");
                let mut prefs = ModerationPreferences::default();
                prefs.label_actions.insert("spam".into(), LabelAction::Hide);
                assert_eq!(
                    decide_post_visibility(&post, &prefs, &official()),
                    Visibility::Show,
                    "a rescinded label must not hide the post"
                );
            }
        }

        #[test]
        fn labels_racing_their_post_are_counted_not_silently_dropped() {
            for shards in [1, 4] {
                let mut appview = AppView::with_shards(shards, &StoreConfig::mem(), true);
                let author = Did::plc_from_seed(b"author");
                let uri = AtUri::record(
                    author.clone(),
                    Nsid::parse(known::POST).unwrap(),
                    "rkey000000001",
                );
                // The label stream races ahead of the firehose: the label
                // arrives before the post is indexed. It cannot apply —
                // but the gap is counted, like `repo_snapshot_skips`.
                appview.index_mut().ingest_label(&spam(&uri));
                assert_eq!(appview.index().labels_ingested(), 1);
                assert_eq!(
                    appview.index().labels_preindex(),
                    1,
                    "{shards} shard(s): early label must be counted"
                );
                // Account-level labels for unknown actors count the same way.
                let account_label = Label::new(
                    official(),
                    LabelTarget::Account(Did::plc_from_seed(b"nobody-yet")),
                    "spam",
                    now(),
                )
                .unwrap();
                appview.index_mut().ingest_label(&account_label);
                assert_eq!(appview.index().labels_preindex(), 2);
                // Once the post lands, later deliveries apply normally.
                appview.index_mut().index_record(
                    &author,
                    &Nsid::parse(known::POST).unwrap(),
                    "rkey000000001",
                    &Record::Post(PostRecord::simple("content", "en", now())),
                    now(),
                );
                appview.index_mut().ingest_label(&spam(&uri));
                assert_eq!(appview.index().post(&uri).unwrap().labels.len(), 1);
                assert_eq!(appview.index().labels_preindex(), 2, "no new gap");
            }
        }
    }

    #[test]
    fn feed_summary_counts() {
        let prefs = ModerationPreferences::default();
        let clean = post_with_labels(vec![]);
        let warned = post_with_labels(vec![(official(), "spam")]);
        let hidden = post_with_labels(vec![(official(), "porn")]);
        let decisions = [&clean, &warned, &hidden]
            .map(|post| decide_post_visibility(post, &prefs, &official()));
        assert_eq!(
            decisions,
            [Visibility::Show, Visibility::Warn, Visibility::Hide]
        );
    }
}
