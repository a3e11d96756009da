//! Feed Generators.
//!
//! A Feed Generator is declared by an `app.bsky.feed.generator` record in its
//! creator's repository pointing at a hosting service; the service consumes
//! the firehose and answers `getFeedSkeleton` with the URIs of curated posts
//! (§2, §7). Generators differ in how they curate (filter pipelines vs
//! personalised algorithms), how much history they retain, and where they are
//! hosted (Feed-Generator-as-a-Service platforms vs self-hosting).
//!
//! A generator does not read the firehose, and holds no posts of its own: a
//! feed is a view of its route. [`crate::route::FeedRoutes`] evaluates each
//! distinct filter pipeline once per post and keeps one curated list per
//! pipeline; a pipeline feed remembers only which route it reads and when it
//! joined it, and retains the suffix of that list its activation and
//! retention policy allow.

use crate::filter::FeedFilter;
use bsky_atproto::record::FeedGeneratorRecord;
use bsky_atproto::{AtUri, Datetime, Did, Nsid};

/// How a generator selects posts.
#[derive(Debug, Clone)]
pub(crate) enum CurationMode {
    /// A filter pipeline over the whole network (what FaaS platforms
    /// build): a post is curated when every filter passes.
    Pipeline(Vec<FeedFilter>),
    /// A personalised feed (e.g. "the-algorithm", "whats-hot"): output depends
    /// on the requesting viewer and is empty for unknown/empty accounts —
    /// which is why the paper's crawler sees no posts from them (§7.1).
    Personalized,
    /// Manually curated by the creator. Nothing in the simulation adds
    /// posts to such a feed, so it never curates anything.
    Manual,
}

/// How much history the generator retains (§3: "different policies regarding
/// their retention of historical posts").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetentionPolicy {
    /// Keep everything.
    All,
    /// Keep only posts newer than this many days.
    Days(u32),
    /// Keep only the most recent N posts.
    Count(usize),
}

/// A Feed Generator instance.
#[derive(Debug, Clone)]
pub struct FeedGenerator {
    uri: AtUri,
    creator: Did,
    record: FeedGeneratorRecord,
    /// Hosting platform name (`"self-hosted"` when not on a FaaS platform).
    platform: String,
    mode: CurationMode,
    retention: RetentionPolicy,
    /// The route the feed reads and the instant it joined it, set by
    /// [`crate::route::FeedRoutes::add`]; `None` for a feed on no route.
    pub(crate) route: Option<(usize, Datetime)>,
    like_count: u64,
}

impl FeedGenerator {
    /// Create a generator.
    pub(crate) fn new(
        creator: Did,
        rkey: impl Into<String>,
        record: FeedGeneratorRecord,
        platform: impl Into<String>,
        mode: CurationMode,
        retention: RetentionPolicy,
    ) -> FeedGenerator {
        let uri = AtUri::record(
            creator.clone(),
            Nsid::parse(bsky_atproto::nsid::known::FEED_GENERATOR).expect("valid NSID"),
            rkey,
        );
        FeedGenerator {
            uri,
            creator,
            record,
            platform: platform.into(),
            mode,
            retention,
            route: None,
            like_count: 0,
        }
    }

    /// The generator's `at://` URI (its identity in likes and subscriptions).
    pub fn uri(&self) -> &AtUri {
        &self.uri
    }

    /// The creator account.
    pub fn creator(&self) -> &Did {
        &self.creator
    }

    /// The declaration record (display name, description, service DID).
    pub fn record(&self) -> &FeedGeneratorRecord {
        &self.record
    }

    /// The hosting platform's name.
    pub fn platform(&self) -> &str {
        &self.platform
    }

    /// The retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Whether this generator produces viewer-dependent output.
    pub fn is_personalized(&self) -> bool {
        matches!(self.mode, CurationMode::Personalized)
    }

    /// How the generator selects posts.
    pub(crate) fn mode(&self) -> &CurationMode {
        &self.mode
    }

    /// Record a like on the generator.
    pub(crate) fn add_like(&mut self) {
        self.like_count += 1;
    }

    /// Number of likes received (the paper's popularity proxy, §7.1).
    pub fn like_count(&self) -> u64 {
        self.like_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::FeedRoutes;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{PostRecord, Record};
    use std::sync::Arc;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 20)
            .unwrap()
            .plus_seconds(10 * 3600)
    }

    fn creator() -> Did {
        Did::plc_from_seed(b"feed-creator")
    }

    fn record(name: &str) -> FeedGeneratorRecord {
        FeedGeneratorRecord {
            service_did: Did::web("skyfeed.example").unwrap(),
            display_name: name.into(),
            description: format!("{name} feed"),
            created_at: Datetime::from_ymd(2023, 6, 1).unwrap(),
        }
    }

    fn post_uri(n: u32) -> AtUri {
        AtUri::record(
            Did::plc_from_seed(b"author"),
            Nsid::parse(known::POST).unwrap(),
            format!("rkey{n:09}"),
        )
    }

    /// `feed`, activated at [`now`] on routes of its own.
    fn activated(mut feed: FeedGenerator) -> (FeedRoutes, FeedGenerator) {
        let mut routes = FeedRoutes::default();
        routes.add(&mut feed, now());
        (routes, feed)
    }

    /// A new post reaching the feeds the way production delivers it:
    /// through their routes.
    fn observe(routes: &mut FeedRoutes, n: u32, post: &PostRecord, now: Datetime) {
        routes.route(&Arc::new(post_uri(n)), post, now);
    }

    fn hebrew_feed() -> FeedGenerator {
        FeedGenerator::new(
            creator(),
            "hebrew-feed",
            record("hebrew-feed"),
            "Skyfeed",
            CurationMode::Pipeline(vec![FeedFilter::Language(vec!["he".into()])]),
            RetentionPolicy::All,
        )
    }

    /// A pipeline feed with no filters: it curates every post it observes.
    fn everything_feed(retention: RetentionPolicy) -> FeedGenerator {
        FeedGenerator::new(
            creator(),
            "everything",
            record("everything"),
            "Skyfeed",
            CurationMode::Pipeline(Vec::new()),
            retention,
        )
    }

    #[test]
    fn pipeline_generator_curates_matching_posts() {
        let (mut routes, feed) = activated(hebrew_feed());
        let hebrew = PostRecord::simple("שלום", "he", now());
        observe(&mut routes, 1, &hebrew, now());
        observe(
            &mut routes,
            2,
            &PostRecord::simple("hello", "en", now()),
            now(),
        );
        assert_eq!(routes.entries(&feed).len(), 1);
        assert_eq!(*routes.entries(&feed)[0].uri, post_uri(1));
        assert_eq!(
            feed.uri().collection().unwrap().as_str(),
            known::FEED_GENERATOR
        );
        // The declaration record roundtrips through the repo layer.
        let rec = Record::FeedGenerator(feed.record().clone());
        assert_eq!(Record::from_cbor(&rec.to_cbor()).unwrap(), rec);
    }

    #[test]
    fn personalized_feeds_return_nothing_to_anonymous_crawlers() {
        // A personalised feed is on no route: it curates nothing from the
        // firehose, and the collector serves its anonymous crawler nothing
        // for it either.
        let (mut routes, feed) = activated(FeedGenerator::new(
            creator(),
            "the-algorithm",
            record("the-algorithm"),
            "Skyfeed",
            CurationMode::Personalized,
            RetentionPolicy::All,
        ));
        assert!(feed.is_personalized());
        observe(
            &mut routes,
            1,
            &PostRecord::simple("hi", "en", now()),
            now(),
        );
        assert!(
            routes.entries(&feed).is_empty(),
            "anonymous viewer sees nothing"
        );
        assert!(!hebrew_feed().is_personalized());
    }

    #[test]
    fn count_retention_keeps_most_recent() {
        let (mut routes, feed) = activated(everything_feed(RetentionPolicy::Count(100)));
        // Curated out of order: the newest 100 by curation time are kept,
        // whatever order they arrived in.
        for i in (0..250).rev() {
            let post = PostRecord::simple("post", "en", now());
            observe(&mut routes, i, &post, now().plus_seconds(i as i64));
        }
        let feeds = std::slice::from_ref(&feed);
        routes.enforce_retention(now().plus_days(1), feeds);
        assert_eq!(routes.entries(&feed).len(), 100);
        assert_eq!(*routes.entries(&feed)[0].uri, post_uri(150));
        assert_eq!(*routes.entries(&feed)[99].uri, post_uri(249));
        // The route keeps only what its one feed retains, and under the
        // cap a pass drops nothing.
        assert_eq!(routes.lists().map(|list| list.len()).sum::<usize>(), 100);
        routes.enforce_retention(now().plus_days(2), feeds);
        assert_eq!(routes.entries(&feed).len(), 100);
    }

    #[test]
    fn day_retention_drops_old_entries() {
        let (mut routes, feed) = activated(everything_feed(RetentionPolicy::Days(7)));
        for day in 0..20 {
            let at = now().plus_days(day as i64);
            observe(&mut routes, day, &PostRecord::simple("post", "en", at), at);
        }
        let end = now().plus_days(20);
        routes.enforce_retention(end, std::slice::from_ref(&feed));
        // Curated on days 13..20: exactly the last seven days' entries.
        let entries = routes.entries(&feed);
        assert_eq!(entries.len(), 7);
        assert!(entries
            .iter()
            .all(|e| end.timestamp() - e.curated_at.timestamp() <= 7 * 86_400));
    }

    #[test]
    fn likes_accumulate() {
        let mut feed = hebrew_feed();
        for _ in 0..5 {
            feed.add_like();
        }
        assert_eq!(feed.like_count(), 5);
    }

    #[test]
    fn posts_with_prelaunch_timestamps_are_preserved() {
        // §7.1: 2,202 feed posts carry timestamps predating Bluesky's launch
        // (1185, 1776, ...). The generator must not reject them — they are an
        // upstream data quirk the analysis detects.
        let (mut routes, feed) = activated(everything_feed(RetentionPolicy::All));
        let medieval = Datetime::from_ymd(1185, 6, 1).unwrap();
        let post = PostRecord::simple("old news", "en", medieval);
        observe(&mut routes, 1, &post, now());
        assert_eq!(routes.entries(&feed)[0].post_created_at, medieval);
    }
}
