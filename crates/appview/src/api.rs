//! The AppView's public API.
//!
//! The AppView collates the data produced across the network and exposes it
//! to clients (§2): profile views, feed-generator metadata
//! (`getFeedGenerator`), and hydrated feeds (`getFeed`) that join a
//! generator's skeleton with the post index. There is one Bluesky AppView,
//! operated by Bluesky PBC; the study crawls exactly these endpoints (§3).

use crate::index::PostInfo;
use crate::shards::AppViewShards;
use bsky_atproto::blockstore::{StoreConfig, StoreStats};
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::{AtUri, Did, Handle};
use bsky_feedgen::FeedGenerator;

/// Metadata returned by `app.bsky.feed.getFeedGenerator`.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedGeneratorView {
    /// The generator's `at://` URI.
    pub(crate) uri: AtUri,
    /// The creator account.
    pub creator: Did,
    /// Display name.
    pub display_name: String,
    /// Description.
    pub(crate) description: String,
    /// Like count.
    pub(crate) like_count: u64,
    /// Whether the AppView believes the generator's endpoint is online.
    pub is_online: bool,
    /// Whether the declaration record is valid.
    pub is_valid: bool,
}

/// A profile view (`app.bsky.actor.getProfile`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileView {
    /// The account DID.
    pub(crate) did: Did,
    /// Current handle.
    pub handle: Handle,
    /// Display name from the profile record, if any.
    pub(crate) display_name: Option<String>,
    /// Description from the profile record, if any.
    pub(crate) description: Option<String>,
    /// Followers count.
    pub followers: u64,
    /// Follows count.
    pub follows: u64,
    /// Posts count.
    pub posts: u64,
}

/// The AppView service: the (entity-sharded) index plus API methods.
#[derive(Debug, Default)]
pub struct AppView {
    index: AppViewShards,
}

impl AppView {
    /// Create an empty AppView (one in-memory entity shard).
    pub fn new() -> AppView {
        AppView::default()
    }

    /// Create an AppView with `shards` entity shards, each over its own
    /// block store built from `store` — the NUMA-scale configuration (repro
    /// `--appview-shards N --store paged`) — with or without the write-back
    /// cache (`write_back`). Queries and ingestion behave identically for
    /// every shard count and cache setting; only residency and backend op
    /// counts change.
    pub fn with_shards(shards: usize, store: &StoreConfig, write_back: bool) -> AppView {
        AppView {
            index: AppViewShards::with_shards(shards, store, write_back),
        }
    }

    /// Flush dirty counter state and write-back buffers on every shard
    /// (called at day boundaries).
    pub fn flush(&mut self) {
        self.index.flush();
    }

    /// The underlying sharded index (ingestion surface).
    pub fn index(&self) -> &AppViewShards {
        &self.index
    }

    /// Mutable access to the underlying sharded index (ingestion surface).
    pub fn index_mut(&mut self) -> &mut AppViewShards {
        &mut self.index
    }

    /// Aggregate block-store statistics over every entity shard.
    pub fn store_stats(&self) -> StoreStats {
        self.index.store_stats()
    }

    /// `app.bsky.actor.getProfile`.
    pub fn get_profile(&mut self, did: &Did) -> Result<ProfileView> {
        let actor = self
            .index
            .actor(did)
            .ok_or_else(|| AtError::RepoError(format!("unknown actor {did}")))?;
        if actor.deleted {
            return Err(AtError::RepoError(format!("actor {did} deleted")));
        }
        Ok(ProfileView {
            did: actor.did,
            handle: actor.handle,
            display_name: actor.profile.as_ref().map(|p| p.display_name.clone()),
            description: actor.profile.as_ref().map(|p| p.description.clone()),
            followers: actor.followers,
            follows: actor.follows,
            posts: actor.posts,
        })
    }

    /// `app.bsky.feed.getFeedGenerator`.
    pub fn get_feed_generator(&mut self, generator: &FeedGenerator) -> FeedGeneratorView {
        FeedGeneratorView {
            uri: generator.uri().clone(),
            creator: generator.creator().clone(),
            display_name: generator.record().display_name.clone(),
            description: generator.record().description.clone(),
            like_count: generator.like_count(),
            is_online: true,
            is_valid: true,
        }
    }

    /// `app.bsky.feed.getFeed`: ask the generator for its skeleton and
    /// hydrate each URI from the post index. URIs the AppView cannot resolve
    /// are silently dropped, as on the live network.
    pub fn get_feed(
        &mut self,
        generator: &mut FeedGenerator,
        limit: usize,
        viewer: Option<&Did>,
    ) -> Vec<PostInfo> {
        generator
            .get_feed(limit, viewer)
            .into_iter()
            .filter_map(|entry| self.index.post(&entry.uri))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{FeedGeneratorRecord, PostRecord, ProfileRecord, Record};
    use bsky_atproto::{Datetime, Nsid};
    use bsky_feedgen::{CurationMode, FeedPipeline, RetentionPolicy};

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 20, 12, 0, 0).unwrap()
    }

    fn did(name: &str) -> Did {
        Did::plc_from_seed(name.as_bytes())
    }

    fn seeded_appview() -> (AppView, Did) {
        let mut appview = AppView::new();
        let alice = did("alice");
        appview
            .index_mut()
            .upsert_actor(&alice, &Handle::parse("alice.bsky.social").unwrap());
        appview.index_mut().index_record(
            &alice,
            &Nsid::parse(known::PROFILE).unwrap(),
            "self",
            &Record::Profile(ProfileRecord {
                display_name: "Alice".into(),
                description: "artist".into(),
                has_avatar: true,
                has_banner: true,
                created_at: now(),
            }),
            now(),
        );
        for i in 0..5 {
            appview.index_mut().index_record(
                &alice,
                &Nsid::parse(known::POST).unwrap(),
                &format!("post{i:08}"),
                &Record::Post(PostRecord::simple(
                    format!("post number {i}"),
                    "en",
                    now().plus_seconds(i as i64),
                )),
                now(),
            );
        }
        (appview, alice)
    }

    #[test]
    fn profile_view_reflects_index() {
        let (mut appview, alice) = seeded_appview();
        let profile = appview.get_profile(&alice).unwrap();
        assert_eq!(profile.display_name.as_deref(), Some("Alice"));
        assert_eq!(profile.posts, 5);
        assert_eq!(profile.followers, 0);
        assert!(appview.get_profile(&did("nobody")).is_err());
    }

    #[test]
    fn get_feed_hydrates_skeleton() {
        let (mut appview, alice) = seeded_appview();
        let mut generator = FeedGenerator::new(
            alice.clone(),
            "everything",
            FeedGeneratorRecord {
                service_did: Did::web("skyfeed.example").unwrap(),
                display_name: "everything".into(),
                description: "all posts".into(),
                created_at: now(),
            },
            CurationMode::Pipeline(FeedPipeline::everything()),
            RetentionPolicy::All,
        );
        // Feed observes the same posts the AppView indexed, plus one the
        // AppView does not know about (dropped on hydration).
        for i in 0..5 {
            let uri = AtUri::record(
                alice.clone(),
                Nsid::parse(known::POST).unwrap(),
                format!("post{i:08}"),
            );
            generator.observe_post(
                &uri,
                &alice,
                &PostRecord::simple(
                    format!("post number {i}"),
                    "en",
                    now().plus_seconds(i as i64),
                ),
                now(),
            );
        }
        generator.curate_manually(
            AtUri::record(
                alice.clone(),
                Nsid::parse(known::POST).unwrap(),
                "missing0001",
            ),
            now().plus_seconds(100),
            now(),
        );

        let hydrated = appview.get_feed(&mut generator, 10, None);
        assert_eq!(hydrated.len(), 5, "unresolvable URIs are dropped");
        assert!(hydrated
            .windows(2)
            .all(|w| w[0].record.created_at >= w[1].record.created_at));

        let view = appview.get_feed_generator(&generator);
        assert_eq!(view.display_name, "everything");
        assert!(view.is_online && view.is_valid);
        assert_eq!(view.creator, alice);
    }

    /// Build the same timeline fixture at several entity-shard counts: bob
    /// follows alice, alice has three posts — two sharing one `created_at`
    /// (the tie the canonical order must break on URI) and one newer.
    fn timeline_fixture(shards: usize) -> (AppView, Did, Did, Vec<AtUri>) {
        let mut appview =
            AppView::with_shards(shards, &bsky_atproto::blockstore::StoreConfig::mem(), true);
        let alice = did("alice");
        let bob = did("bob");
        for (d, h) in [(&alice, "alice.bsky.social"), (&bob, "bob.bsky.social")] {
            appview
                .index_mut()
                .upsert_actor(d, &Handle::parse(h).unwrap());
        }
        // rkeys chosen so URI order differs from insertion order.
        let tied = now();
        let newer = now().plus_seconds(60);
        let posts = [
            ("zzz00000001", tied),
            ("aaa00000001", tied),
            ("mmm00000001", newer),
        ];
        let mut uris = Vec::new();
        for (rkey, at) in posts {
            appview.index_mut().index_record(
                &alice,
                &Nsid::parse(known::POST).unwrap(),
                rkey,
                &Record::Post(PostRecord::simple(rkey, "en", at)),
                at,
            );
            uris.push(AtUri::record(
                alice.clone(),
                Nsid::parse(known::POST).unwrap(),
                rkey,
            ));
        }
        appview.index_mut().index_record(
            &bob,
            &Nsid::parse(known::FOLLOW).unwrap(),
            "f1",
            &Record::Follow(bsky_atproto::record::FollowRecord {
                subject: alice.clone(),
                created_at: now(),
            }),
            now(),
        );
        (appview, alice, bob, uris)
    }

    #[test]
    fn following_timeline_with_zero_limit_is_empty() {
        for shards in [1, 4] {
            let (appview, _alice, bob, _uris) = timeline_fixture(shards);
            assert!(
                appview.index().following_timeline(&bob, 0).is_empty(),
                "{shards} shard(s): limit 0 must serve nothing"
            );
        }
    }

    #[test]
    fn viewer_with_no_follow_edges_gets_an_empty_timeline() {
        for shards in [1, 4] {
            let (appview, alice, _bob, _uris) = timeline_fixture(shards);
            // Alice follows nobody; an entirely unknown viewer follows
            // nobody either — both see empty timelines, no panic.
            assert!(appview.index().following_timeline(&alice, 10).is_empty());
            assert!(appview
                .index()
                .following_timeline(&did("stranger"), 10)
                .is_empty());
        }
    }

    #[test]
    fn timeline_ties_on_created_at_break_on_uri() {
        for shards in [1, 4] {
            let (appview, _alice, bob, uris) = timeline_fixture(shards);
            let timeline = appview.index().following_timeline(&bob, 10);
            // Newest first; the two tied posts then order by URI ascending
            // (aaa… before zzz…), regardless of insertion order or shard
            // placement.
            let got: Vec<String> = timeline.iter().map(|p| p.uri.to_string()).collect();
            let want = vec![
                uris[2].to_string(),
                uris[1].to_string(),
                uris[0].to_string(),
            ];
            assert_eq!(got, want, "{shards} shard(s)");
            // The limit truncates *after* the canonical sort, so a limit of
            // 2 keeps the newest post plus the URI-smaller tied post.
            let top2: Vec<String> = appview
                .index()
                .following_timeline(&bob, 2)
                .iter()
                .map(|p| p.uri.to_string())
                .collect();
            assert_eq!(top2, want[..2].to_vec(), "{shards} shard(s)");
        }
    }

    #[test]
    fn deleted_actors_have_no_profile() {
        let (mut appview, alice) = seeded_appview();
        appview
            .index_mut()
            .process_event(&bsky_atproto::firehose::Event {
                seq: 1,
                time: now(),
                body: bsky_atproto::firehose::EventBody::Tombstone { did: alice.clone() },
            });
        assert!(appview.get_profile(&alice).is_err());
    }
}
