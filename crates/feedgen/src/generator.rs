//! Feed Generators.
//!
//! A Feed Generator is declared by an `app.bsky.feed.generator` record in its
//! creator's repository pointing at a hosting service; the service consumes
//! the firehose and answers `getFeedSkeleton` with the URIs of curated posts
//! (§2, §7). Generators differ in how they curate (filter pipelines vs
//! personalised algorithms), how much history they retain, and where they are
//! hosted (Feed-Generator-as-a-Service platforms vs self-hosting).

use crate::filter::FeedPipeline;
use bsky_atproto::record::{FeedGeneratorRecord, PostRecord};
use bsky_atproto::{AtUri, Datetime, Did, Nsid};

/// How a generator selects posts.
#[derive(Debug, Clone)]
pub enum CurationMode {
    /// A declarative filter pipeline (what FaaS platforms build).
    Pipeline(FeedPipeline),
    /// A personalised feed (e.g. "the-algorithm", "whats-hot"): output depends
    /// on the requesting viewer and is empty for unknown/empty accounts —
    /// which is why the paper's crawler sees no posts from them (§7.1).
    Personalized,
    /// Manually curated by the creator (posts are added explicitly).
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
    /// The curated post.
    pub uri: AtUri,
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

    /// Observe a post from the firehose; pipeline generators curate it if it
    /// matches.
    pub fn observe_post(&mut self, uri: &AtUri, author: &Did, post: &PostRecord, now: Datetime) {
        let curate = match &self.mode {
            CurationMode::Pipeline(pipeline) => pipeline.curates(author, post),
            CurationMode::Personalized | CurationMode::Manual => false,
        };
        if curate {
            self.push_entry(FeedEntry {
                uri: uri.clone(),
                post_created_at: post.created_at,
                curated_at: now,
            });
        }
    }

    /// Manually add a post (manual curation, or personalised feeds serving a
    /// concrete viewer).
    pub fn curate_manually(&mut self, uri: AtUri, post_created_at: Datetime, now: Datetime) {
        self.push_entry(FeedEntry {
            uri,
            post_created_at,
            curated_at: now,
        });
    }

    fn push_entry(&mut self, entry: FeedEntry) {
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
        if let RetentionPolicy::Count(max) = self.retention {
            if self.entries.len() > max {
                let excess = self.entries.len() - max;
                self.entries.drain(0..excess);
            }
        }
    }

    /// Apply time-based retention relative to `now`.
    pub fn enforce_retention(&mut self, now: Datetime) {
        if let RetentionPolicy::Days(days) = self.retention {
            let cutoff = now.timestamp() - days as i64 * 86_400;
            self.entries.retain(|e| e.curated_at.timestamp() >= cutoff);
        }
    }

    /// `getFeedSkeleton`: the most recent `limit` entries, newest first
    /// (ties broken by URI so the order is total and observer-independent).
    /// Personalised feeds return nothing for an anonymous / empty viewer.
    pub fn get_feed(&mut self, limit: usize, viewer: Option<&Did>) -> Vec<FeedEntry> {
        if self.is_personalized() && viewer.is_none() {
            return Vec::new();
        }
        let mut out: Vec<FeedEntry> = self.entries.clone();
        out.sort_by(|a, b| {
            b.post_created_at
                .cmp(&a.post_created_at)
                .then_with(|| a.uri.cmp(&b.uri))
        });
        out.truncate(limit);
        out
    }

    /// All curated entries (oldest first), regardless of viewer.
    pub fn entries(&self) -> &[FeedEntry] {
        &self.entries
    }

    /// Whether the generator has ever curated anything.
    pub fn has_curated(&self) -> bool {
        !self.entries.is_empty()
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
    use crate::filter::{FeedFilter, FeedInput};
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::Record;

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 20, 10, 0, 0).unwrap()
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

    fn hebrew_feed() -> FeedGenerator {
        FeedGenerator::new(
            creator(),
            "hebrew-feed",
            record("hebrew-feed"),
            CurationMode::Pipeline(FeedPipeline {
                inputs: vec![FeedInput::WholeNetwork],
                filters: vec![FeedFilter::Language(vec!["he".into()])],
            }),
            RetentionPolicy::All,
        )
    }

    #[test]
    fn pipeline_generator_curates_matching_posts() {
        let mut feed = hebrew_feed();
        let author = Did::plc_from_seed(b"author");
        feed.observe_post(
            &post_uri(1),
            &author,
            &PostRecord::simple("שלום", "he", now()),
            now(),
        );
        feed.observe_post(
            &post_uri(2),
            &author,
            &PostRecord::simple("hello", "en", now()),
            now(),
        );
        assert_eq!(feed.entries().len(), 1);
        assert!(feed.has_curated());
        let skeleton = feed.get_feed(10, None);
        assert_eq!(skeleton.len(), 1);
        assert_eq!(skeleton[0].uri, post_uri(1));
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
        let mut feed = FeedGenerator::new(
            creator(),
            "the-algorithm",
            record("the-algorithm"),
            CurationMode::Personalized,
            RetentionPolicy::All,
        );
        assert!(feed.is_personalized());
        feed.curate_manually(post_uri(1), now(), now());
        assert!(
            feed.get_feed(10, None).is_empty(),
            "anonymous viewer sees nothing"
        );
        let viewer = Did::plc_from_seed(b"real-user");
        assert_eq!(feed.get_feed(10, Some(&viewer)).len(), 1);
    }

    #[test]
    fn count_retention_keeps_most_recent() {
        let mut feed = FeedGenerator::new(
            creator(),
            "last-100",
            record("last-100"),
            CurationMode::Manual,
            RetentionPolicy::Count(100),
        );
        for i in 0..250 {
            feed.curate_manually(post_uri(i), now().plus_seconds(i as i64), now());
        }
        assert_eq!(feed.entries().len(), 100);
        assert_eq!(feed.entries()[0].uri, post_uri(150));
    }

    #[test]
    fn day_retention_drops_old_entries() {
        let mut feed = FeedGenerator::new(
            creator(),
            "last-week",
            record("last-week"),
            CurationMode::Manual,
            RetentionPolicy::Days(7),
        );
        for day in 0..20 {
            feed.curate_manually(
                post_uri(day),
                now().plus_days(day as i64),
                now().plus_days(day as i64),
            );
        }
        let end = now().plus_days(20);
        feed.enforce_retention(end);
        assert!(
            feed.entries().len() <= 8,
            "only ~a week retained, got {}",
            feed.entries().len()
        );
        assert!(feed
            .entries()
            .iter()
            .all(|e| end.timestamp() - e.curated_at.timestamp() <= 7 * 86_400));
    }

    #[test]
    fn skeleton_is_newest_first_and_limited() {
        let mut feed = hebrew_feed();
        let author = Did::plc_from_seed(b"author");
        for i in 0..30 {
            feed.observe_post(
                &post_uri(i),
                &author,
                &PostRecord::simple("שלום", "he", now().plus_seconds(i as i64 * 60)),
                now().plus_seconds(i as i64 * 60),
            );
        }
        let skeleton = feed.get_feed(10, None);
        assert_eq!(skeleton.len(), 10);
        assert!(skeleton
            .windows(2)
            .all(|w| w[0].post_created_at >= w[1].post_created_at));
        assert_eq!(skeleton[0].uri, post_uri(29));
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
        let mut feed = FeedGenerator::new(
            creator(),
            "old-posts",
            record("old-posts"),
            CurationMode::Manual,
            RetentionPolicy::All,
        );
        let medieval = Datetime::from_ymd(1185, 6, 1).unwrap();
        feed.curate_manually(post_uri(1), medieval, now());
        assert_eq!(feed.get_feed(10, None)[0].post_created_at, medieval);
    }
}
