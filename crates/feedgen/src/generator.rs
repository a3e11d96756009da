//! Feed Generators.
//!
//! A Feed Generator is declared by an `app.bsky.feed.generator` record in its
//! creator's repository pointing at a hosting service; the service consumes
//! the firehose and answers `getFeedSkeleton` with the URIs of curated posts
//! (§2, §7). Generators differ in how they curate (filter pipelines vs
//! personalised algorithms), how much history they retain, and where they are
//! hosted (Feed-Generator-as-a-Service platforms vs self-hosting).
//!
//! A generator does not read the firehose itself: [`crate::route::FeedRoutes`]
//! evaluates each distinct filter pipeline once per post and hands the post
//! to every feed on a passing route, all of them sharing one URI allocation.

use crate::filter::FeedFilter;
use bsky_atproto::record::FeedGeneratorRecord;
use bsky_atproto::{AtUri, Datetime, Did, Nsid};
use std::sync::Arc;

/// How a generator selects posts.
#[derive(Debug, Clone)]
pub enum CurationMode {
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

/// A curated entry in a feed.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEntry {
    /// The curated post: one allocation per post, shared by every feed that
    /// curated it and by the datasets built from them.
    pub uri: Arc<AtUri>,
    /// The post's self-reported creation time.
    pub post_created_at: Datetime,
    /// When the generator curated it.
    pub curated_at: Datetime,
}

/// A Feed Generator instance.
#[derive(Debug, Clone)]
pub struct FeedGenerator {
    uri: AtUri,
    creator: Did,
    record: FeedGeneratorRecord,
    mode: CurationMode,
    retention: RetentionPolicy,
    entries: Vec<FeedEntry>,
    like_count: u64,
}

impl FeedGenerator {
    /// Create a generator.
    pub fn new(
        creator: Did,
        rkey: impl Into<String>,
        record: FeedGeneratorRecord,
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
            mode,
            retention,
            entries: Vec::new(),
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

    /// Curate one post (the route decided that it passes this generator's
    /// filters). Retention is applied later, by
    /// [`FeedGenerator::enforce_retention`].
    pub(crate) fn push_entry(&mut self, entry: FeedEntry) {
        // Entries are kept sorted by the canonical curation order
        // `(curated_at, uri)` — structural `AtUri` ordering, allocation-free
        // and used identically by the study pipeline's feed merge. This is
        // a *total* order, so "keep the most recent N" means the same thing
        // no matter how the underlying post stream was partitioned: a
        // generator that saw only a subset of the network retains exactly
        // its subset of what a generator that saw everything would retain,
        // which is what makes sharded curation merge back into the
        // single-instance feed exactly.
        let idx = self
            .entries
            .partition_point(|e| (e.curated_at, &e.uri) <= (entry.curated_at, &entry.uri));
        self.entries.insert(idx, entry);
    }

    /// Apply the retention policy as of `now`. Entries are sorted by
    /// `curated_at`, so what either policy drops is a prefix: entries
    /// curated more than `Days` before `now`, or all but the last `Count`.
    /// Trimming `Count` here rather than on every curated post keeps the
    /// same entries, because it drops the oldest either way.
    pub fn enforce_retention(&mut self, now: Datetime) {
        let expired = match self.retention {
            RetentionPolicy::All => 0,
            RetentionPolicy::Days(days) => {
                let cutoff = now.timestamp() - days as i64 * 86_400;
                self.entries
                    .partition_point(|e| e.curated_at.timestamp() < cutoff)
            }
            RetentionPolicy::Count(max) => self.entries.len().saturating_sub(max),
        };
        self.entries.drain(..expired);
    }

    /// All retained entries in curation order (oldest first), regardless of
    /// viewer.
    pub fn entries(&self) -> &[FeedEntry] {
        &self.entries
    }

    /// Record a like on the generator.
    pub fn add_like(&mut self) {
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

    /// A new post reaching `feed` the way production delivers it: through
    /// the feed's route.
    fn observe(feed: &mut FeedGenerator, n: u32, post: &PostRecord, now: Datetime) {
        let mut routes = FeedRoutes::default();
        routes.add(0, feed);
        routes.route(
            &Arc::new(post_uri(n)),
            post,
            now,
            std::slice::from_mut(feed),
        );
    }

    fn hebrew_feed() -> FeedGenerator {
        FeedGenerator::new(
            creator(),
            "hebrew-feed",
            record("hebrew-feed"),
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
            CurationMode::Pipeline(Vec::new()),
            retention,
        )
    }

    #[test]
    fn pipeline_generator_curates_matching_posts() {
        let mut feed = hebrew_feed();
        observe(
            &mut feed,
            1,
            &PostRecord::simple("שלום", "he", now()),
            now(),
        );
        observe(
            &mut feed,
            2,
            &PostRecord::simple("hello", "en", now()),
            now(),
        );
        assert_eq!(feed.entries().len(), 1);
        assert_eq!(*feed.entries()[0].uri, post_uri(1));
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
        // A personalised feed curates nothing from the firehose; the
        // collector serves its anonymous crawler nothing for it either.
        let mut feed = FeedGenerator::new(
            creator(),
            "the-algorithm",
            record("the-algorithm"),
            CurationMode::Personalized,
            RetentionPolicy::All,
        );
        assert!(feed.is_personalized());
        observe(&mut feed, 1, &PostRecord::simple("hi", "en", now()), now());
        assert!(feed.entries().is_empty(), "anonymous viewer sees nothing");
        assert!(!hebrew_feed().is_personalized());
    }

    #[test]
    fn count_retention_keeps_most_recent() {
        let mut feed = everything_feed(RetentionPolicy::Count(100));
        // Curated out of order: the newest 100 by curation time are kept,
        // whatever order they arrived in.
        for i in (0..250).rev() {
            let post = PostRecord::simple("post", "en", now());
            observe(&mut feed, i, &post, now().plus_seconds(i as i64));
        }
        feed.enforce_retention(now().plus_days(1));
        assert_eq!(feed.entries().len(), 100);
        assert_eq!(*feed.entries()[0].uri, post_uri(150));
        assert_eq!(*feed.entries()[99].uri, post_uri(249));
        // Under the cap, a pass drops nothing.
        feed.enforce_retention(now().plus_days(2));
        assert_eq!(feed.entries().len(), 100);
    }

    #[test]
    fn day_retention_drops_old_entries() {
        let mut feed = everything_feed(RetentionPolicy::Days(7));
        for day in 0..20 {
            let at = now().plus_days(day as i64);
            observe(&mut feed, day, &PostRecord::simple("post", "en", at), at);
        }
        let end = now().plus_days(20);
        feed.enforce_retention(end);
        // Curated on days 13..20: exactly the last seven days' entries.
        assert_eq!(feed.entries().len(), 7);
        assert!(feed
            .entries()
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
        let mut feed = everything_feed(RetentionPolicy::All);
        let medieval = Datetime::from_ymd(1185, 6, 1).unwrap();
        let post = PostRecord::simple("old news", "en", medieval);
        observe(&mut feed, 1, &post, now());
        assert_eq!(feed.entries()[0].post_created_at, medieval);
    }
}
