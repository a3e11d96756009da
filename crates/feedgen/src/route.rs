//! Feed routes: a feed is a view of its route.
//!
//! Many pipeline feeds share a pipeline (every language aggregator for one
//! language has the same single filter), so the filters are evaluated once
//! per *distinct* pipeline, not once per feed. Each route holds one such
//! pipeline and the one list of posts it curated, in curation order
//! `(curated_at, uri)`; a post that passes the pipeline enters that list
//! once, however many feeds run it. Personalised and manual feeds never
//! curate from the firehose and are on no route.
//!
//! A feed keeps only its route and the instant it joined it. What it
//! retains is a suffix of the route's list: the posts curated since it was
//! activated, cut further by its retention policy (the `Days` cutoff of the
//! last retention pass, or the last `n` for `Count(n)`). That is exact
//! because a feed is activated before the day's posts are routed, so
//! "curated at or after activation" is exactly "routed to the route after
//! the feed joined it". [`FeedRoutes::enforce_retention`] trims each
//! route's list to the longest suffix any of its feeds still retains.

use crate::filter::{curates, FeedFilter};
use crate::generator::{CurationMode, FeedGenerator, RetentionPolicy};
use bsky_atproto::record::PostRecord;
use bsky_atproto::{AtUri, Datetime};
use std::sync::Arc;

/// A curated entry in a route's list.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEntry {
    /// The curated post: one allocation per post, shared by every route
    /// that curated it and by the datasets built from them.
    pub uri: Arc<AtUri>,
    /// The post's self-reported creation time.
    pub post_created_at: Datetime,
    /// When the route curated it.
    pub curated_at: Datetime,
}

/// The routes of every pipeline feed, one per distinct filter pipeline, in
/// the order their first feed was added.
#[derive(Debug, Default)]
pub struct FeedRoutes {
    routes: Vec<Route>,
    /// The instant of the last retention pass: `Days` feeds count back
    /// from it. `None` until the first pass.
    retained_at: Option<Datetime>,
}

/// One distinct pipeline and what it curated.
#[derive(Debug)]
struct Route {
    filters: Vec<FeedFilter>,
    /// Every curated post some feed on the route may still retain, sorted
    /// by the canonical curation order `(curated_at, uri)`.
    entries: Vec<FeedEntry>,
    /// The latest activation of a feed on the route (checked in debug
    /// builds: no post routed after it is curated before it).
    joined_at: Datetime,
}

impl FeedRoutes {
    /// Put `feed` on the route of its pipeline (a new route if no earlier
    /// feed has equal filters), activated at `now`. Called once per feed,
    /// before any post of the activation day is routed.
    pub fn add(&mut self, feed: &mut FeedGenerator, now: Datetime) {
        let CurationMode::Pipeline(filters) = feed.mode() else {
            return;
        };
        let index = match self.routes.iter().position(|r| r.filters == *filters) {
            Some(index) => index,
            None => {
                self.routes.push(Route {
                    filters: filters.clone(),
                    entries: Vec::new(),
                    joined_at: now,
                });
                self.routes.len() - 1
            }
        };
        let route = &mut self.routes[index];
        // Everything already on the route was curated before `now`, so the
        // activation instant splits the list at the feed's first post.
        debug_assert!(
            route.entries.last().is_none_or(|e| e.curated_at < now),
            "feed activated after a post it did not see was curated"
        );
        route.joined_at = route.joined_at.max(now);
        feed.route = Some((index, now));
    }

    /// Curate a new post at `now`: every route whose filters all pass gets
    /// one entry holding a clone of `uri` — the same allocation.
    pub fn route(&mut self, uri: &Arc<AtUri>, post: &PostRecord, now: Datetime) {
        for route in &mut self.routes {
            if !curates(&route.filters, post) {
                continue;
            }
            debug_assert!(now >= route.joined_at, "post routed before a feed joined");
            // A total order, so "keep the most recent N" means the same
            // thing however the post stream was partitioned: a shard's
            // feed retains exactly its subset of what the whole network's
            // would, which is what makes sharded curation merge back into
            // the single-instance feed exactly.
            let key = (now, &**uri);
            let at = route
                .entries
                .partition_point(|e| (e.curated_at, &*e.uri) <= key);
            route.entries.insert(
                at,
                FeedEntry {
                    uri: Arc::clone(uri),
                    post_created_at: post.created_at,
                    curated_at: now,
                },
            );
        }
    }

    /// Apply every feed's retention policy as of `now` and trim each
    /// route's list to the longest suffix one of its feeds still retains.
    /// `feeds` are the feeds [`FeedRoutes::add`] put on the routes.
    pub fn enforce_retention(&mut self, now: Datetime, feeds: &[FeedGenerator]) {
        self.retained_at = Some(now);
        let mut keep_from: Vec<usize> = self.routes.iter().map(|r| r.entries.len()).collect();
        for feed in feeds {
            if let Some((route, start)) = self.view(feed) {
                keep_from[route] = keep_from[route].min(start);
            }
        }
        for (route, start) in self.routes.iter_mut().zip(keep_from) {
            route.entries.drain(..start);
        }
    }

    /// Where `feed`'s retained entries start: its route and the position
    /// in that route's list ([`FeedRoutes::lists`]) of its oldest retained
    /// entry. `None` for a feed on no route.
    ///
    /// A `Days` feed counts back from the last retention pass; a
    /// `Count(n)` feed keeps the last `n` of the list as it stands. So
    /// between passes a `Count` view already leaves out what the next pass
    /// will drop, and it equals a per-feed list trimmed only at passes
    /// right after [`FeedRoutes::enforce_retention`].
    pub fn view(&self, feed: &FeedGenerator) -> Option<(usize, usize)> {
        let (index, activated_at) = feed.route?;
        let entries = &self.routes[index].entries;
        let active = entries.partition_point(|e| e.curated_at < activated_at);
        let floor = match (feed.retention(), self.retained_at) {
            (RetentionPolicy::Days(days), Some(now)) => {
                let cutoff = now.timestamp() - days as i64 * 86_400;
                entries.partition_point(|e| e.curated_at.timestamp() < cutoff)
            }
            (RetentionPolicy::Count(max), _) => entries.len().saturating_sub(max),
            (RetentionPolicy::All | RetentionPolicy::Days(_), _) => 0,
        };
        Some((index, active.max(floor)))
    }

    /// The entries `feed` retains, in curation order (oldest first),
    /// regardless of viewer: empty for a feed on no route. Measured as
    /// [`FeedRoutes::view`] says.
    pub fn entries(&self, feed: &FeedGenerator) -> &[FeedEntry] {
        match self.view(feed) {
            Some((route, start)) => &self.routes[route].entries[start..],
            None => &[],
        }
    }

    /// Each route's list, in route order: the lists [`FeedRoutes::view`]
    /// indexes into.
    pub fn lists(&self) -> impl Iterator<Item = &[FeedEntry]> {
        self.routes.iter().map(|r| &r.entries[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{Embed, FeedGeneratorRecord, ImageEmbed, MediaKind};
    use bsky_atproto::{Did, Nsid};
    use std::collections::BTreeSet;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 10).unwrap()
    }

    fn feed_with(index: usize, mode: CurationMode, retention: RetentionPolicy) -> FeedGenerator {
        FeedGenerator::new(
            Did::plc_from_seed(b"feed-creator"),
            format!("feed{index}"),
            FeedGeneratorRecord {
                service_did: Did::web("skyfeed.example").unwrap(),
                display_name: format!("feed {index}"),
                description: String::new(),
                created_at: now(),
            },
            mode,
            retention,
        )
    }

    fn feed(index: usize, mode: CurationMode) -> FeedGenerator {
        feed_with(index, mode, RetentionPolicy::All)
    }

    fn uri(n: usize) -> Arc<AtUri> {
        Arc::new(AtUri::record(
            Did::plc_from_seed(b"author"),
            Nsid::parse(known::POST).unwrap(),
            format!("rkey{n:09}"),
        ))
    }

    fn text_post(text: &str, lang: &str) -> PostRecord {
        PostRecord::simple(text, lang, now())
    }

    fn art_post(alt: &str) -> PostRecord {
        PostRecord {
            text: "new piece!".into(),
            created_at: now(),
            langs: vec!["en".into()],
            reply_parent: None,
            embed: Some(Embed::Images(vec![ImageEmbed {
                alt: Some(alt.into()),
                kind: MediaKind::Artwork,
            }])),
            tags: vec!["art".into()],
        }
    }

    /// Feeds over the filters of `filter.rs`'s cases — some pipelines
    /// repeated, one empty — plus a personalised and a manual feed.
    fn modes() -> Vec<CurationMode> {
        let hebrew = FeedFilter::Language(vec!["he".into()]);
        let japanese = FeedFilter::Language(vec!["ja".into()]);
        let ramen = FeedFilter::Keyword("ramen".into());
        let artwork = FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]);
        let pipeline = CurationMode::Pipeline;
        vec![
            pipeline(vec![hebrew.clone()]),
            CurationMode::Personalized,
            pipeline(vec![ramen.clone()]),
            pipeline(vec![hebrew.clone()]),
            pipeline(vec![artwork.clone(), FeedFilter::Keyword("piece".into())]),
            CurationMode::Manual,
            pipeline(vec![]),
            pipeline(vec![japanese.clone(), ramen.clone()]),
            pipeline(vec![ramen.clone()]),
            pipeline(vec![ramen, japanese]),
            pipeline(vec![artwork]),
            pipeline(vec![hebrew]),
        ]
    }

    fn routed(modes: &[CurationMode]) -> (FeedRoutes, Vec<FeedGenerator>) {
        let mut feeds: Vec<FeedGenerator> = modes
            .iter()
            .enumerate()
            .map(|(i, mode)| feed(i, mode.clone()))
            .collect();
        let mut routes = FeedRoutes::default();
        for feed in &mut feeds {
            routes.add(feed, now());
        }
        (routes, feeds)
    }

    #[test]
    fn equal_pipelines_share_a_route_and_other_feeds_have_none() {
        let (_, feeds) = routed(&modes());
        let route_of: Vec<Option<usize>> = feeds.iter().map(|f| f.route.map(|r| r.0)).collect();
        // Filter order is part of a pipeline: `[ja, ramen]` and `[ramen,
        // ja]` curate the same posts but are two routes. Feeds 1
        // (personalised) and 5 (manual) are on no route.
        let (on, off) = (Some, None);
        assert_eq!(
            route_of,
            [
                on(0),
                off,
                on(1),
                on(0),
                on(2),
                off,
                on(3),
                on(4),
                on(1),
                on(5),
                on(6),
                on(0)
            ]
        );
    }

    #[test]
    fn a_post_reaches_exactly_the_feeds_whose_filters_curate_it() {
        let modes = modes();
        let posts = [
            text_post("שלום עולם", "he"),
            text_post("best Ramen in Tokyo", "ja"),
            text_post("best Ramen in Tokyo", "en"),
            text_post("Mixed CASE and ラーメン", "ja"),
            text_post("new piece!", "en"),
            art_post("a watercolour fox"),
            text_post("", "en"),
        ];
        let (mut routes, feeds) = routed(&modes);
        for (n, post) in posts.iter().enumerate() {
            routes.route(&uri(n), post, now());
        }
        for (n, post) in posts.iter().enumerate() {
            let reached: BTreeSet<usize> = (0..feeds.len())
                .filter(|&i| routes.entries(&feeds[i]).iter().any(|e| *e.uri == *uri(n)))
                .collect();
            let expected: BTreeSet<usize> = (0..modes.len())
                .filter(|&i| match &modes[i] {
                    CurationMode::Pipeline(filters) => curates(filters, post),
                    CurationMode::Personalized | CurationMode::Manual => false,
                })
                .collect();
            assert_eq!(reached, expected, "post {n}: {:?}", post.text);
        }
        // Every post reached the empty pipeline, and the personalised and
        // manual feeds curated nothing.
        assert_eq!(routes.entries(&feeds[6]).len(), posts.len());
        assert!(routes.entries(&feeds[1]).is_empty() && routes.entries(&feeds[5]).is_empty());
    }

    #[test]
    fn routed_feeds_share_one_allocation_per_post() {
        let (mut routes, feeds) = routed(&modes());
        let post_uri = uri(1);
        routes.route(&post_uri, &text_post("שלום", "he"), now());
        // Feeds 0, 3, 11 share a route, 6 is on another: all four see the
        // caller's allocation, and the two routes hold one entry each.
        for index in [0, 3, 6, 11] {
            let entries = routes.entries(&feeds[index]);
            assert_eq!(entries.len(), 1, "feed {index}");
            assert!(Arc::ptr_eq(&entries[0].uri, &post_uri), "feed {index}");
        }
        assert_eq!(Arc::strong_count(&post_uri), 3);
        let held: usize = routes.lists().map(|list| list.len()).sum();
        assert_eq!(held, 2);
    }

    /// The per-feed list every feed kept before feeds became views of their
    /// route: each curated post pushed into each feed in canonical order,
    /// retention applied to the feed's own list at each day's end.
    struct ReferenceFeed {
        retention: RetentionPolicy,
        entries: Vec<FeedEntry>,
    }

    impl ReferenceFeed {
        fn push_entry(&mut self, entry: FeedEntry) {
            let idx = self
                .entries
                .partition_point(|e| (e.curated_at, &e.uri) <= (entry.curated_at, &entry.uri));
            self.entries.insert(idx, entry);
        }

        fn enforce_retention(&mut self, now: Datetime) {
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
    }

    /// SplitMix64: a seeded stream for the oracle runs.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        }
    }

    /// A seeded month of posts over three pipelines, with feeds of every
    /// retention kind joining the routes on different days: at every day's
    /// end each feed's view equals the list the per-feed reference kept.
    /// Inside the day, before the pass, a `Count(n)` view is the last `n`
    /// of that list and any other view is the whole list. Posts share
    /// curation instants (one commit's posts do), so ties are broken by
    /// URI in both.
    #[test]
    fn views_equal_the_per_feed_lists_they_replace() {
        let languages = ["en", "ja", "he"];
        let retentions = [
            RetentionPolicy::All,
            RetentionPolicy::Days(1),
            RetentionPolicy::Days(3),
            RetentionPolicy::Count(5),
            RetentionPolicy::Count(40),
        ];
        for seed in 0..8u64 {
            let mut rng = Stream(seed);
            let mut routes = FeedRoutes::default();
            let mut feeds: Vec<FeedGenerator> = Vec::new();
            let mut reference: Vec<ReferenceFeed> = Vec::new();
            let mut filters: Vec<Vec<FeedFilter>> = Vec::new();
            let mut next_post = 0;
            for day_idx in 0..30i64 {
                let day = now().plus_days(day_idx);
                // Activation: before any of the day's posts.
                for _ in 0..rng.below(3) {
                    let lang = languages[rng.below(3) as usize];
                    let pipeline = vec![FeedFilter::Language(vec![lang.into()])];
                    let retention = retentions[rng.below(5) as usize];
                    let mode = CurationMode::Pipeline(pipeline.clone());
                    let mut feed = feed_with(feeds.len(), mode, retention);
                    routes.add(&mut feed, day);
                    feeds.push(feed);
                    reference.push(ReferenceFeed {
                        retention,
                        entries: Vec::new(),
                    });
                    filters.push(pipeline);
                }
                // The day's commits, in no particular time order, each
                // with one to three posts at the commit's instant.
                for _ in 0..rng.below(25) {
                    let when = day.plus_seconds(rng.below(86_400) as i64);
                    for _ in 0..1 + rng.below(3) {
                        let lang = languages[rng.below(3) as usize];
                        let post = PostRecord::simple("post", lang, when);
                        let post_uri = uri(next_post);
                        next_post += 1;
                        routes.route(&post_uri, &post, when);
                        for (feed, pipeline) in reference.iter_mut().zip(&filters) {
                            if curates(pipeline, &post) {
                                feed.push_entry(FeedEntry {
                                    uri: Arc::clone(&post_uri),
                                    post_created_at: post.created_at,
                                    curated_at: when,
                                });
                            }
                        }
                    }
                }
                for (i, (feed, expected)) in feeds.iter().zip(&reference).enumerate() {
                    let kept = match expected.retention {
                        RetentionPolicy::Count(max) => expected.entries.len().saturating_sub(max),
                        RetentionPolicy::All | RetentionPolicy::Days(_) => 0,
                    };
                    assert_eq!(
                        routes.entries(feed),
                        &expected.entries[kept..],
                        "seed {seed}, inside day {day_idx}, feed {i} ({:?})",
                        expected.retention
                    );
                }
                routes.enforce_retention(day, &feeds);
                for feed in &mut reference {
                    feed.enforce_retention(day);
                }
                for (i, (feed, expected)) in feeds.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        routes.entries(feed),
                        &expected.entries[..],
                        "seed {seed}, day {day_idx}, feed {i} ({:?})",
                        expected.retention
                    );
                }
            }
            // The routes hold no more than the feeds need: each list's
            // oldest entry is some feed's oldest retained one.
            for (route, list) in routes.lists().enumerate() {
                let starts: Vec<usize> = feeds
                    .iter()
                    .filter_map(|f| routes.view(f))
                    .filter(|(r, _)| *r == route)
                    .map(|(_, start)| start)
                    .collect();
                assert!(list.is_empty() || starts.contains(&0), "route {route}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not see")]
    fn a_feed_activated_after_a_later_curated_post_is_refused() {
        let (mut routes, _) = routed(&modes());
        routes.route(&uri(1), &text_post("שלום", "he"), now().plus_days(1));
        let mut late = feed(12, modes()[0].clone());
        routes.add(&mut late, now());
    }
}
