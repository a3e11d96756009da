//! Feed routes: how a new post reaches the feeds that curate it.
//!
//! Many pipeline feeds share a pipeline (every language aggregator for one
//! language has the same single filter), so the filters are evaluated once
//! per *distinct* pipeline, not once per feed. Each route holds one such
//! pipeline and the feeds built on it; a post that passes it is pushed to all
//! of them as one shared [`AtUri`] allocation. Personalised and manual feeds
//! never curate from the firehose and are on no route.

use crate::filter::{curates, FeedFilter};
use crate::generator::{CurationMode, FeedEntry, FeedGenerator};
use bsky_atproto::record::PostRecord;
use bsky_atproto::{AtUri, Datetime};
use std::sync::Arc;

/// The routes of every pipeline feed, one per distinct filter pipeline, in
/// the order their first feed was added.
#[derive(Debug, Default)]
pub struct FeedRoutes {
    routes: Vec<Route>,
}

/// One distinct pipeline and the feeds that run it.
#[derive(Debug)]
struct Route {
    filters: Vec<FeedFilter>,
    /// Indices of the feeds in the caller's feed list, in the order added.
    feeds: Vec<usize>,
}

impl FeedRoutes {
    /// Put `feed`, at `index` in the caller's feed list, on the route of
    /// its pipeline (a new route if no earlier feed has equal filters).
    /// Called once per feed, when it is activated.
    pub fn add(&mut self, index: usize, feed: &FeedGenerator) {
        let CurationMode::Pipeline(filters) = feed.mode() else {
            return;
        };
        match self.routes.iter_mut().find(|r| r.filters == *filters) {
            Some(route) => route.feeds.push(index),
            None => self.routes.push(Route {
                filters: filters.clone(),
                feeds: vec![index],
            }),
        }
    }

    /// Curate a new post at `now`: every feed on a route whose filters all
    /// pass gets an entry holding a clone of `uri` — the same allocation.
    /// `feeds` is the list the indices given to [`FeedRoutes::add`] point
    /// into.
    pub fn route(
        &self,
        uri: &Arc<AtUri>,
        post: &PostRecord,
        now: Datetime,
        feeds: &mut [FeedGenerator],
    ) {
        for route in &self.routes {
            if !curates(&route.filters, post) {
                continue;
            }
            for &index in &route.feeds {
                feeds[index].push_entry(FeedEntry {
                    uri: Arc::clone(uri),
                    post_created_at: post.created_at,
                    curated_at: now,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::RetentionPolicy;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{Embed, FeedGeneratorRecord, ImageEmbed, MediaKind};
    use bsky_atproto::{Did, Nsid};
    use std::collections::BTreeSet;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 10).unwrap()
    }

    fn feed(index: usize, mode: CurationMode) -> FeedGenerator {
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
            RetentionPolicy::All,
        )
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
        let feeds: Vec<FeedGenerator> = modes
            .iter()
            .enumerate()
            .map(|(i, mode)| feed(i, mode.clone()))
            .collect();
        let mut routes = FeedRoutes::default();
        for (index, feed) in feeds.iter().enumerate() {
            routes.add(index, feed);
        }
        (routes, feeds)
    }

    #[test]
    fn equal_pipelines_share_a_route_and_other_feeds_have_none() {
        let (routes, _) = routed(&modes());
        let grouped: Vec<&[usize]> = routes.routes.iter().map(|r| &r.feeds[..]).collect();
        // Filter order is part of a pipeline: `[ja, ramen]` and `[ramen,
        // ja]` curate the same posts but are two routes.
        assert_eq!(
            grouped,
            [&[0, 3, 11][..], &[2, 8], &[4], &[6], &[7], &[9], &[10]]
        );
        // Feeds 1 (personalised) and 5 (manual) are on no route.
        let on_a_route: BTreeSet<usize> = grouped.concat().into_iter().collect();
        assert_eq!(on_a_route.len(), 10);
        assert!(!on_a_route.contains(&1) && !on_a_route.contains(&5));
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
        let (routes, mut feeds) = routed(&modes);
        for (n, post) in posts.iter().enumerate() {
            routes.route(&uri(n), post, now(), &mut feeds);
        }
        for (n, post) in posts.iter().enumerate() {
            let reached: BTreeSet<usize> = (0..feeds.len())
                .filter(|&i| feeds[i].entries().iter().any(|e| *e.uri == *uri(n)))
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
        assert_eq!(feeds[6].entries().len(), posts.len());
        assert!(feeds[1].entries().is_empty() && feeds[5].entries().is_empty());
    }

    #[test]
    fn routed_feeds_share_one_allocation_per_post() {
        let (routes, mut feeds) = routed(&modes());
        let post_uri = uri(1);
        routes.route(&post_uri, &text_post("שלום", "he"), now(), &mut feeds);
        // Feeds 0, 3, 11 share a route, 6 is on another: all four hold the
        // caller's allocation, and nothing else does.
        for index in [0, 3, 6, 11] {
            let entries = feeds[index].entries();
            assert_eq!(entries.len(), 1, "feed {index}");
            assert!(Arc::ptr_eq(&entries[0].uri, &post_uri), "feed {index}");
        }
        assert_eq!(Arc::strong_count(&post_uri), 5);
    }
}
