//! §7: content recommendation — the feed generators, what they serve, who
//! builds them and where they are hosted (Table 5, Figures 7–12).

use crate::json::Json;
use crate::langdetect;
use crate::pipeline::{Analyzer, Observation};
use crate::stats::{self, month_of};
use bsky_atproto::nsid::known;
use bsky_atproto::{AtUri, Datetime, Did};
use bsky_workload::generator::RetentionPolicy;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One curated post of a feed-generator dataset entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeedPost {
    /// The post URI: the allocation the world made when the post was
    /// written, shared with every feed that curated it.
    pub(crate) uri: Arc<AtUri>,
    /// The post's self-reported creation time.
    pub(crate) created_at: Datetime,
    /// When the generator curated it.
    pub(crate) curated_at: Datetime,
}

/// Feed-generator dataset entry.
#[derive(Debug, Clone)]
pub struct FeedGenEntry {
    /// The generator's URI.
    pub(crate) uri: AtUri,
    /// Creator account.
    pub(crate) creator: Did,
    /// Display name.
    pub(crate) display_name: String,
    /// Description.
    pub(crate) description: String,
    /// Hosting platform name (from the service DID / world metadata).
    pub(crate) platform: String,
    /// When the feed was created (declaration record timestamp).
    pub(crate) created_at: Datetime,
    /// The generator's retention policy (needed to merge shard-local
    /// retained entry lists into the global retained set).
    pub(crate) retention: RetentionPolicy,
    /// Likes observed on the generator record.
    pub(crate) like_count: u64,
    /// The hydrated curated entries on the page `getFeed` serves (a
    /// shard's page, until [`Feed::absorb`] merges them), in canonical
    /// `(curated_at, uri)` order.
    pub(crate) posts: Vec<FeedPost>,
}

/// `getFeed` page cap applied when serving a feed's posts.
pub(crate) const GET_FEED_LIMIT: usize = 1_000;

/// What §7 keeps of a feed: the entry fields `finish` reads, and its served
/// page with one ranking time per post.
///
/// In a sharded run every shard emits one entry per feed, carrying only the
/// curation and likes its own population produced; [`Feed::absorb`]
/// combines their records into exactly the record of the serial crawl's
/// entry.
#[derive(Debug)]
struct Feed {
    creator: Did,
    display_name: String,
    description: String,
    platform: String,
    created_at: Datetime,
    retention: RetentionPolicy,
    like_count: u64,
    /// The posts `getFeed` serves, each with the time that ranks it: a
    /// `Count(n)` feed keeps its n most recently curated posts and serves
    /// them all (the world draws n below [`GET_FEED_LIMIT`]), any other
    /// feed serves its [`GET_FEED_LIMIT`] newest by creation time (ties
    /// broken by URI). Only the set is read, so either time alone decides
    /// what a merge keeps.
    page: Vec<(Datetime, Arc<AtUri>)>,
}

impl Feed {
    fn new(entry: &FeedGenEntry) -> Feed {
        let by_curation = matches!(entry.retention, RetentionPolicy::Count(_));
        let page = entry.posts.iter().map(|post| {
            let rank = if by_curation {
                post.curated_at
            } else {
                post.created_at
            };
            (rank, Arc::clone(&post.uri))
        });
        let mut feed = Feed {
            creator: entry.creator.clone(),
            display_name: entry.display_name.clone(),
            description: entry.description.clone(),
            platform: entry.platform.clone(),
            created_at: entry.created_at,
            retention: entry.retention,
            like_count: entry.like_count,
            page: page.collect(),
        };
        feed.cut();
        feed
    }

    /// Fold another shard's record of the same feed into this one: likes
    /// add and the pages merge, cut again to what a single generator
    /// observing both shards' posts would serve.
    fn absorb(&mut self, other: Feed) {
        self.like_count += other.like_count;
        self.page.extend(other.page);
        self.cut();
    }

    /// Rank the page and keep what the feed serves.
    fn cut(&mut self) {
        match self.retention {
            // Canonical curation order — the structural (curated_at, uri)
            // order a route's list is kept in — so keeping the last `max`
            // selects exactly the entries a single generator would have
            // kept.
            RetentionPolicy::Count(max) => {
                self.page.sort_unstable();
                self.page.dedup_by(|a, b| a.1 == b.1);
                let excess = self.page.len().saturating_sub(max);
                self.page.drain(..excess);
            }
            RetentionPolicy::All | RetentionPolicy::Days(_) => {
                self.page
                    .sort_unstable_by(|a, b| (Reverse(a.0), &a.1).cmp(&(Reverse(b.0), &b.1)));
                self.page.dedup_by(|a, b| a.1 == b.1);
                self.page.truncate(GET_FEED_LIMIT);
            }
        }
    }
}

/// The order `getFeed` serves posts in: newest first by post creation time,
/// ties broken by URI.
fn served_key(post: &FeedPost) -> (Reverse<Datetime>, &AtUri) {
    (Reverse(post.created_at), &post.uri)
}

/// The posts among `posts` that `getFeed` serves — the first
/// [`GET_FEED_LIMIT`] in [`served_key`] order — kept in `posts`' order.
///
/// Cutting each shard's list to its page is exact for every feed: the top
/// page of a union is the top page of the shards' pages. A `Count(n)` feed
/// retains n < [`GET_FEED_LIMIT`] entries (the world draws n below 500),
/// so the cut leaves its list whole and `Feed::absorb` still applies the count
/// to every entry the shards retained.
pub(crate) fn served_page(mut posts: Vec<FeedPost>) -> Vec<FeedPost> {
    if posts.len() > GET_FEED_LIMIT {
        let mut served: Vec<&FeedPost> = posts.iter().collect();
        let (_, last, _) = served
            .select_nth_unstable_by(GET_FEED_LIMIT - 1, |a, b| served_key(a).cmp(&served_key(b)));
        let last = (Reverse(last.created_at), Arc::clone(&last.uri));
        posts.retain(|post| served_key(post) <= (last.0, &*last.1));
    }
    posts
}

/// The §7 recommendation report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RecommendationReport {
    /// Reachable feed generators.
    total_feeds: u64,
    /// Feeds that never curated a post, and their share (%).
    never_curated: (u64, f64),
    /// Language distribution of descriptions `(language, share %)`.
    description_languages: Vec<(String, f64)>,
    /// Figure 8: most common description words.
    top_words: Vec<(String, u64)>,
    /// Figure 9: top labels on feed-curated posts.
    feed_post_labels: Vec<(String, u64)>,
    /// Share of feeds with ≥10 % labeled content (%).
    heavily_labeled_share: f64,
    /// Figure 7: cumulative `(month, feeds, likes on feeds, follows on
    /// creators)`.
    cumulative_growth: Vec<(String, u64, u64, u64)>,
    /// Figure 10: `(feed name, posts, likes)` for the most extreme feeds.
    posts_vs_likes: Vec<(String, u64, u64)>,
    /// Figure 11: mean in/out-degree of feed creators vs other users.
    creator_degrees: ((f64, f64), (f64, f64)),
    /// Pearson r of (#feeds created, followers).
    r_feeds_followers: Option<f64>,
    /// Pearson r of (sum of likes on created feeds, followers).
    r_likes_followers: Option<f64>,
    /// Feeds-per-account distribution `(1 feed %, 2-10 %, >100 count, max)`.
    feeds_per_account: (f64, f64, u64, u64),
    /// Figure 12 / Table 5: per-platform `(name, feeds, share %, posts share
    /// %, likes share %)`.
    platform_shares: Vec<(String, u64, f64, f64, f64)>,
}

/// One object's folded label stream, the order-insensitive form of
/// `effective_labels`: `((labeler, value), (applied, negated))` per pair
/// seen. A list, not a map, as most objects carry a label or two and a map's
/// first node holds eleven.
type LabelFlags = Vec<((Did, String), (bool, bool))>;
/// The flags of a value left on its object: applied and never negated.
const EFFECTIVE: (bool, bool) = (true, false);

/// Fold one sighting `(applied, negated)` of `(labeler, value)` into `flags`.
fn fold_flags(flags: &mut LabelFlags, labeler: &Did, value: &str, seen: (bool, bool)) {
    let found = flags
        .iter_mut()
        .find(|((l, v), _)| l == labeler && v == value);
    match found {
        Some((_, was)) => *was = (was.0 | seen.0, was.1 | seen.1),
        None => {
            flags.reserve_exact(1);
            flags.push(((labeler.clone(), value.to_string()), seen));
        }
    }
}

/// Incremental §7 recommendation analyses.
///
/// All per-feed state is keyed by feed URI (so a feed observed by several
/// shards merges by [`Feed::absorb`]), and the label fold by object
/// URI; everything that needs global context — a post's effective labels,
/// the follow graph, the creator set — is resolved at finish time, after
/// all merges.
#[derive(Debug, Default)]
pub(crate) struct RecommendationAnalyzer {
    /// Feed URI → merged record.
    feeds: BTreeMap<String, Feed>,
    /// Object URI → its folded label stream.
    labels: BTreeMap<String, LabelFlags>,
    /// Every DID with a repository snapshot (the §7 user universe) → the
    /// subjects of its follow records, deduplicated.
    follows: BTreeMap<Did, BTreeSet<Did>>,
    /// Likes on feed-generator records per month (Figure 7).
    feed_likes_by_month: BTreeMap<String, u64>,
    /// Follow records per subject and month (filtered to creators at
    /// finish).
    follows_by_subject_month: BTreeMap<Did, BTreeMap<String, u64>>,
}

impl Analyzer for RecommendationAnalyzer {
    type Output = RecommendationReport;

    fn observe(&mut self, obs: &Observation<'_>) {
        match obs {
            Observation::Labels { src, labels } => {
                // Figure 9's label index: raw interactions folded into
                // (applied, negated) flags per object and (labeler, value).
                for label in labels.iter() {
                    let flags = self.labels.entry(label.target.uri()).or_default();
                    fold_flags(flags, src, &label.value, (!label.negated, label.negated));
                }
            }
            Observation::FeedGenerator(entry) => {
                let key = entry.uri.as_string();
                let feed = Feed::new(entry);
                match self.feeds.get_mut(&key) {
                    Some(existing) => existing.absorb(feed),
                    None => {
                        self.feeds.insert(key, feed);
                    }
                }
            }
            Observation::Repo(repo) => {
                // A DID is copied only when it or the edge is new.
                let follows = stats::slot(&mut self.follows, &repo.did);
                for record in repo.records() {
                    let Some(month) = record.month else {
                        continue;
                    };
                    match (record.collection.as_str(), record.subject) {
                        // Figure 7: likes on feed-generator records,
                        // recognised structurally so no cross-category state
                        // is needed at observe time.
                        (known::LIKE, _) if record.likes_feed_generator => {
                            *stats::slot(&mut self.feed_likes_by_month, month) += 1;
                        }
                        (known::FOLLOW, Some(subject)) => {
                            if !follows.contains(subject) {
                                follows.insert(subject.clone());
                            }
                            let months = stats::slot(&mut self.follows_by_subject_month, subject);
                            *stats::slot(months, month) += 1;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, feed) in other.feeds {
            match self.feeds.get_mut(&key) {
                Some(existing) => existing.absorb(feed),
                None => {
                    self.feeds.insert(key, feed);
                }
            }
        }
        for (uri, flags) in other.labels {
            let into = self.labels.entry(uri).or_default();
            for ((labeler, value), seen) in flags {
                fold_flags(into, &labeler, &value, seen);
            }
        }
        for (did, follows) in other.follows {
            self.follows.entry(did).or_default().extend(follows);
        }
        stats::add_counts(&mut self.feed_likes_by_month, other.feed_likes_by_month);
        for (subject, months) in other.follows_by_subject_month {
            stats::add_counts(
                self.follows_by_subject_month.entry(subject).or_default(),
                months,
            );
        }
    }

    fn finish(self) -> RecommendationReport {
        let total_feeds = self.feeds.len() as u64;

        let mut never = 0u64;
        let mut langs: Vec<&'static str> = Vec::new();
        let mut words: BTreeMap<String, u64> = BTreeMap::new();
        let mut heavily_labeled = 0u64;
        let mut feed_label_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut by_month: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut posts_vs_likes: Vec<(String, u64, u64)> = Vec::new();
        let mut feeds_per_creator: BTreeMap<&Did, (u64, u64)> = BTreeMap::new();
        let mut total_posts = 0u64;
        let mut total_likes = 0u64;
        let mut per_platform: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        let mut uri_buf: Vec<u8> = Vec::new();

        for feed in self.feeds.values() {
            let served = &feed.page;
            if served.is_empty() {
                never += 1;
            }
            langs.push(langdetect::detect(&feed.description));
            for word in feed.description.split_whitespace() {
                let cleaned: String = word
                    .chars()
                    .filter(|c| c.is_alphanumeric())
                    .collect::<String>()
                    .to_lowercase();
                if cleaned.len() >= 3 {
                    *words.entry(cleaned).or_insert(0) += 1;
                }
            }
            // Figure 9 + heavily-labeled share; each labeler applying a
            // value counts once.
            if !served.is_empty() {
                let labels = &self.labels;
                let labeled: Vec<&LabelFlags> = served
                    .iter()
                    .filter_map(|(_, uri)| {
                        // Rendered into one buffer for every lookup: a
                        // served post is looked up, never kept.
                        uri_buf.clear();
                        uri.write_to(&mut uri_buf);
                        labels.get(std::str::from_utf8(&uri_buf).expect("AT-URIs are UTF-8"))
                    })
                    .filter(|flags| flags.iter().any(|(_, f)| *f == EFFECTIVE))
                    .collect();
                if labeled.len() as f64 / served.len() as f64 >= 0.10 {
                    heavily_labeled += 1;
                    let mut counts: BTreeMap<&String, u64> = BTreeMap::new();
                    for flags in labeled {
                        for ((_, value), _) in flags.iter().filter(|(_, f)| *f == EFFECTIVE) {
                            *counts.entry(value).or_insert(0) += 1;
                        }
                    }
                    if let Some((top_value, _)) = counts.into_iter().max_by_key(|(_, c)| *c) {
                        *feed_label_counts.entry(top_value.clone()).or_insert(0) += 1;
                    }
                }
            }
            by_month.entry(month_of(feed.created_at)).or_default().0 += 1;
            posts_vs_likes.push((
                feed.display_name.clone(),
                served.len() as u64,
                feed.like_count,
            ));
            let creator = feeds_per_creator.entry(&feed.creator).or_insert((0, 0));
            creator.0 += 1;
            creator.1 += feed.like_count;
            total_posts += served.len() as u64;
            total_likes += feed.like_count;
            let platform = per_platform.entry(feed.platform.clone()).or_default();
            platform.0 += 1;
            platform.1 += served.len() as u64;
            platform.2 += feed.like_count;
        }

        let lang_counts = stats::top_counts(langs.iter().copied());
        let description_languages = lang_counts
            .iter()
            .map(|(l, c)| ((*l).to_string(), stats::share(*c, total_feeds.max(1))))
            .collect();

        let mut top_words: Vec<(String, u64)> = words.into_iter().collect();
        top_words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_words.truncate(15);

        let mut feed_post_labels: Vec<(String, u64)> = feed_label_counts.into_iter().collect();
        feed_post_labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        feed_post_labels.truncate(10);

        // Figure 7: likes on feeds and follows on creators join the
        // feed-creation series.
        for (month, count) in &self.feed_likes_by_month {
            by_month.entry(month.clone()).or_default().1 += count;
        }
        for (subject, months) in &self.follows_by_subject_month {
            if feeds_per_creator.contains_key(subject) {
                for (month, count) in months {
                    by_month.entry(month.clone()).or_default().2 += count;
                }
            }
        }
        let mut cumulative_growth = Vec::new();
        let mut acc = (0u64, 0u64, 0u64);
        for (month, (feeds, likes, follows)) in by_month {
            acc.0 += feeds;
            acc.1 += likes;
            acc.2 += follows;
            cumulative_growth.push((month, acc.0, acc.1, acc.2));
        }

        // Figure 10: posts vs likes extremes.
        posts_vs_likes.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then_with(|| a.0.cmp(&b.0)));
        posts_vs_likes.truncate(10);

        // Figure 11 + correlations: degrees from the deduplicated follow
        // graph of the repositories dataset.
        let mut followers_of: BTreeMap<&Did, u64> = BTreeMap::new();
        for subject in self.follows.values().flatten() {
            *followers_of.entry(subject).or_insert(0) += 1;
        }
        let mut creator_in = Vec::new();
        let mut creator_out = Vec::new();
        let mut other_in = Vec::new();
        let mut other_out = Vec::new();
        let mut x_feeds = Vec::new();
        let mut x_likes = Vec::new();
        let mut y_followers = Vec::new();
        for (did, follows) in &self.follows {
            let followers = followers_of.get(did).copied().unwrap_or(0) as f64;
            let follows = follows.len() as f64;
            if let Some((feeds, likes)) = feeds_per_creator.get(did) {
                creator_in.push(followers);
                creator_out.push(follows);
                x_feeds.push(*feeds as f64);
                x_likes.push(*likes as f64);
                y_followers.push(followers);
            } else {
                other_in.push(followers);
                other_out.push(follows);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let creator_degrees = (
            (mean(&creator_in), mean(&creator_out)),
            (mean(&other_in), mean(&other_out)),
        );
        let r_feeds_followers = stats::pearson(&x_feeds, &y_followers);
        let r_likes_followers = stats::pearson(&x_likes, &y_followers);

        // Feeds per account.
        let one = feeds_per_creator.values().filter(|(f, _)| *f == 1).count() as u64;
        let two_to_ten = feeds_per_creator
            .values()
            .filter(|(f, _)| (2..=10).contains(f))
            .count() as u64;
        let over_100 = feeds_per_creator.values().filter(|(f, _)| *f > 100).count() as u64;
        let max_feeds = feeds_per_creator
            .values()
            .map(|(f, _)| *f)
            .max()
            .unwrap_or(0);
        let creators = feeds_per_creator.len().max(1) as u64;

        // Figure 12 / Table 5: platform shares.
        let mut platform_shares: Vec<(String, u64, f64, f64, f64)> = per_platform
            .into_iter()
            .map(|(name, (feeds, posts, likes))| {
                (
                    name,
                    feeds,
                    stats::share(feeds, total_feeds.max(1)),
                    stats::share(posts, total_posts.max(1)),
                    stats::share(likes, total_likes.max(1)),
                )
            })
            .collect();
        platform_shares.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        RecommendationReport {
            total_feeds,
            never_curated: (never, stats::share(never, total_feeds.max(1))),
            description_languages,
            top_words,
            feed_post_labels,
            heavily_labeled_share: stats::share(heavily_labeled, total_feeds.max(1)),
            cumulative_growth,
            posts_vs_likes,
            creator_degrees,
            r_feeds_followers,
            r_likes_followers,
            feeds_per_account: (
                stats::share(one, creators),
                stats::share(two_to_ten, creators),
                over_100,
                max_feeds,
            ),
            platform_shares,
        }
    }
}

impl RecommendationReport {
    /// Render §7, Figures 7–12, and Table 5 beside its measured platform
    /// shares.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("Section 7: content recommendation\n");
        out.push_str(&format!(
            "Feed generators: {}   never curated: {} ({:.1} %)   ≥10 % labeled content: {:.2} %\n",
            self.total_feeds,
            self.never_curated.0,
            self.never_curated.1,
            self.heavily_labeled_share
        ));
        out.push_str("Description languages: ");
        let langs: Vec<String> = self
            .description_languages
            .iter()
            .take(6)
            .map(|(l, s)| format!("{l} {s:.1}%"))
            .collect();
        out.push_str(&format!("{}\n", langs.join(", ")));
        out.push_str("Figure 7: cumulative feeds / likes on feeds / follows on creators\n");
        for (month, feeds, likes, follows) in &self.cumulative_growth {
            out.push_str(&format!(
                "  {month} | feeds {feeds:>6} | likes {likes:>8} | creator follows {follows:>8}\n"
            ));
        }
        out.push_str("Figure 8: most common description words\n  ");
        let words: Vec<String> = self
            .top_words
            .iter()
            .map(|(w, c)| format!("{w}({c})"))
            .collect();
        out.push_str(&format!("{}\n", words.join(" ")));
        out.push_str("Figure 9: top labels on heavily-labeled feeds\n");
        for (value, count) in &self.feed_post_labels {
            out.push_str(&format!("  {value:<24} {count}\n"));
        }
        out.push_str("Figure 10: most active / most liked feeds (posts, likes)\n");
        for (name, posts, likes) in &self.posts_vs_likes {
            out.push_str(&format!(
                "  {name:<28} {posts:>7} posts  {likes:>6} likes\n"
            ));
        }
        let ((ci, co), (oi, oo)) = self.creator_degrees;
        out.push_str(&format!(
            "Figure 11: mean degree — feed creators in {ci:.1} / out {co:.1}; other users in {oi:.1} / out {oo:.1}\n"
        ));
        out.push_str(&format!(
            "Correlations: #feeds vs followers r = {}   Σ likes on feeds vs followers r = {}\n",
            self.r_feeds_followers
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            self.r_likes_followers
                .map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        ));
        let (one, two_ten, over100, max) = self.feeds_per_account;
        out.push_str(&format!(
            "Feeds per account: {one:.1} % manage one, {two_ten:.1} % manage 2–10, {over100} accounts manage >100 (max {max})\n"
        ));
        out.push_str("Figure 12 / Table 5: feeds per hosting platform\n");
        for (name, feeds, share, posts_share, likes_share) in &self.platform_shares {
            out.push_str(&format!(
                "  {name:<22} {feeds:>6} feeds ({share:>5.2} %)  posts {posts_share:>5.1} %  likes {likes_share:>5.1} %\n"
            ));
        }
        out.push('\n');
        out.push_str(&table5_feature_matrix());
        out
    }

    /// The §7 slice of the JSON export.
    pub(crate) fn to_json(&self) -> Json {
        Json::object()
            .with("feeds", self.total_feeds)
            .with("never_curated_pct", self.never_curated.1)
            .with("r_feeds_followers", self.r_feeds_followers)
            .with("r_likes_followers", self.r_likes_followers)
            .with(
                "skyfeed_share_pct",
                self.platform_shares.first().map(|p| p.2),
            )
    }
}

/// Table 5's static feature matrix (read from `bsky_workload::faas` and
/// rendered alongside the measured platform shares).
fn table5_feature_matrix() -> String {
    let platforms = bsky_workload::faas::default_platforms();
    let mut out = String::from("Table 5: Feed-Generator-as-a-Service feature comparison\n");
    out.push_str("Platform              | features | regex | pricing\n");
    for p in &platforms {
        out.push_str(&format!(
            "{:<22} | {:>8} | {:>5} | {:?}\n",
            p.name,
            p.feature_count(),
            if p.filters.regex_text { "yes" } else { "no" },
            p.pricing
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::tests::small_config;
    use crate::collect::Collector;
    use crate::pipeline::OwnedObservation;
    use crate::report::tests::{headline_report, small_report};
    use bsky_atproto::Nsid;
    use bsky_workload::faults::FaultPlan;
    use bsky_workload::route::FeedEntry;
    use bsky_workload::{World, WorldSpec};

    #[test]
    fn recommendation_runs_and_renders() {
        let recommendation = &small_report().recommendation;
        assert!(recommendation.total_feeds > 10);
        assert!(recommendation.never_curated.1 > 0.0);
        assert!(!recommendation.platform_shares.is_empty());
        assert_eq!(recommendation.platform_shares[0].0, "Skyfeed");
        let rendered = recommendation.render();
        assert!(rendered.contains("Figure 12"));
        assert!(rendered.contains("Table 5"));
        assert!(table5_feature_matrix().contains("Skyfeed"));

        // The platform whose share the headline test reads is Skyfeed.
        let headline = &headline_report().recommendation;
        assert_eq!(headline.platform_shares[0].0, "Skyfeed");
    }

    #[test]
    fn feed_snapshots_drop_the_posts_of_crawled_tombstones() {
        // A storm deletes a fifth of the accounts three quarters into the
        // window: each feed snapshot serves the top page of its curated
        // posts whose author the relay still lists, so the storm's authors
        // lose theirs.
        let config = small_config(5);
        let spec = bsky_workload::faults::FaultSpec {
            tombstone_day: Some(0.75),
            tombstone_prob: 0.2,
            ..Default::default()
        };
        let days = config.end.days_since(config.start) as usize;
        let plan = Arc::new(FaultPlan::build(config.seed, days, spec));
        let mut world = World::from_spec(WorldSpec::new(config).faults(Arc::clone(&plan)));
        let mut tape = Vec::new();
        Collector::new().faults(plan).stream(&mut world, &mut tape);
        assert!(world.fault_counters().storm_tombstones > 0);
        let mut dropped = 0;
        for obs in &tape {
            let OwnedObservation::FeedGenerator(feed) = obs else {
                continue;
            };
            let generator = world.feedgens.iter().find(|g| *g.uri() == feed.uri);
            let generator = generator.expect("a snapshot names a live generator");
            if generator.is_personalized() {
                continue;
            }
            let curated = world.feed_routes().entries(generator);
            let listed = |entry: &&FeedEntry| world.relay.lists_repo(entry.uri.did());
            let kept: Vec<FeedPost> = curated
                .iter()
                .filter(listed)
                .map(|entry| FeedPost {
                    uri: Arc::clone(&entry.uri),
                    created_at: entry.post_created_at,
                    curated_at: entry.curated_at,
                })
                .collect();
            dropped += curated.len() - kept.len();
            assert_eq!(feed.posts, served_page(kept), "{}", feed.uri);
            assert!(feed.posts.len() <= GET_FEED_LIMIT);
        }
        assert!(dropped > 0, "the storm's authors had no curated post");
    }

    #[test]
    fn absorbing_the_shards_pages_serves_the_page_of_their_union() {
        // One feed's hydrated posts, five times a page, with creation
        // times that tie, split over one and four shards: absorbing the
        // record of each shard's emitted page serves exactly what `getFeed`
        // serves of all the posts.
        let mut rng = bsky_workload::rng::SimRng::new(38);
        let start = Datetime::from_ymd(2024, 3, 1).unwrap();
        let mut posts: Vec<FeedPost> = (0..5 * GET_FEED_LIMIT)
            .map(|n| FeedPost {
                uri: Arc::new(AtUri::record(
                    Did::plc_from_seed(format!("author{}", n % 97).as_bytes()),
                    Nsid::POST,
                    format!("post{n:05}"),
                )),
                created_at: start.plus_seconds(rng.range(0..2_000i64) * 60),
                curated_at: start.plus_seconds(rng.range(0..86_400 * 30i64)),
            })
            .collect();
        let curation =
            |a: &FeedPost, b: &FeedPost| (a.curated_at, &a.uri).cmp(&(b.curated_at, &b.uri));
        posts.sort_by(curation);
        let served = |lists: Vec<Vec<FeedPost>>, retention| {
            let mut records = lists.into_iter().map(|posts| {
                Feed::new(&FeedGenEntry {
                    uri: AtUri::record(Did::plc_from_seed(b"creator"), Nsid::FEED_GENERATOR, "f"),
                    creator: Did::plc_from_seed(b"creator"),
                    display_name: String::new(),
                    description: String::new(),
                    platform: String::new(),
                    created_at: start,
                    retention,
                    like_count: 0,
                    posts,
                })
            });
            let mut feed = records.next().unwrap();
            records.for_each(|shard| feed.absorb(shard));
            let mut uris: Vec<Arc<AtUri>> = feed.page.into_iter().map(|(_, uri)| uri).collect();
            uris.sort();
            uris
        };
        // What `getFeed` serves of all the posts: the newest page by
        // creation time, and of a `Count` feed its latest curated.
        let mut newest: Vec<&FeedPost> = posts.iter().collect();
        newest.sort_by(|a, b| served_key(a).cmp(&served_key(b)));
        let count = 300;
        for (retention, expected) in [
            (RetentionPolicy::All, newest[..GET_FEED_LIMIT].to_vec()),
            (RetentionPolicy::Days(3), newest[..GET_FEED_LIMIT].to_vec()),
            (
                RetentionPolicy::Count(count),
                posts.iter().skip(posts.len() - count).collect(),
            ),
        ] {
            let mut expected: Vec<Arc<AtUri>> =
                expected.iter().map(|post| Arc::clone(&post.uri)).collect();
            expected.sort();
            for shards in [1, 4] {
                let mut lists = vec![Vec::new(); shards];
                for (n, post) in posts.iter().enumerate() {
                    lists[n % shards].push(post.clone());
                }
                // What each shard emits: its served page, which of a
                // `Count` feed is the suffix its route view retains.
                let pages: Vec<Vec<FeedPost>> = lists
                    .iter()
                    .cloned()
                    .map(|list| match retention {
                        RetentionPolicy::Count(n) => list[list.len() - n..].to_vec(),
                        _ => served_page(list),
                    })
                    .collect();
                assert_eq!(
                    served(lists, retention),
                    expected,
                    "{shards} shard(s), {retention:?}"
                );
                assert_eq!(
                    served(pages, retention),
                    expected,
                    "{shards} shard(s), {retention:?}"
                );
            }
        }
    }
}
