//! Feed filters.
//!
//! Feed-Generator-as-a-Service platforms let creators compose a feed from
//! *inputs* and *filters* — the feature matrix of Table 5, kept in
//! [`crate::faas`]. Every pipeline feed the simulated ecosystem builds draws
//! from the whole network (the firehose) and applies filters of the three
//! kinds [`FeedFilter`] has; it curates a post when every filter passes.
//! Filters compare structurally, so feeds with equal pipelines share one
//! [`crate::route`] and each post is checked against that pipeline once.

use bsky_atproto::record::{MediaKind, PostRecord};

/// A predicate applied to every post on the network (Table 5, "Filters").
#[derive(Debug, Clone, PartialEq)]
pub enum FeedFilter {
    /// Keep only posts in one of these languages.
    Language(Vec<String>),
    /// Keep only posts with attached media of these kinds.
    RequireMediaKinds(Vec<MediaKind>),
    /// Keep only posts containing this keyword (case-insensitive).
    Keyword(String),
}

impl FeedFilter {
    /// Whether a post passes this filter.
    pub(crate) fn passes(&self, post: &PostRecord) -> bool {
        match self {
            FeedFilter::Language(langs) => langs
                .iter()
                .any(|l| post.langs.iter().any(|p| p.eq_ignore_ascii_case(l))),
            FeedFilter::RequireMediaKinds(kinds) => post.media_kinds().any(|k| kinds.contains(&k)),
            FeedFilter::Keyword(kw) => contains_ignore_ascii_case(&post.text, kw),
        }
    }
}

/// Whether a pipeline over the whole network with these filters curates
/// `post`: every filter must pass (so no filters curate everything).
pub(crate) fn curates(filters: &[FeedFilter], post: &PostRecord) -> bool {
    filters.iter().all(|f| f.passes(post))
}

/// `haystack.to_ascii_lowercase().contains(&needle.to_ascii_lowercase())`
/// without the two lowercased copies: some byte window of the haystack equals
/// the needle up to ASCII case. Non-ASCII bytes compare exactly, and UTF-8 is
/// self-synchronising, so a bytewise hit is a hit on character boundaries.
/// The empty needle is contained in everything (`windows(0)` would panic).
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    needle.is_empty()
        || haystack
            .as_bytes()
            .windows(needle.len())
            .any(|window| window.eq_ignore_ascii_case(needle.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::record::{Embed, ImageEmbed};
    use bsky_atproto::Datetime;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 10).unwrap()
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

    #[test]
    fn filters_pass_and_fail() {
        let hebrew = text_post("שלום עולם", "he");
        assert!(FeedFilter::Language(vec!["he".into()]).passes(&hebrew));
        assert!(!FeedFilter::Language(vec!["en".into()]).passes(&hebrew));

        let ramen = text_post("best Ramen in Tokyo", "ja");
        assert!(FeedFilter::Keyword("ramen".into()).passes(&ramen));
        assert!(!FeedFilter::Keyword("sushi".into()).passes(&ramen));

        let art = art_post("a watercolour fox");
        assert!(FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]).passes(&art));
        assert!(!FeedFilter::RequireMediaKinds(vec![MediaKind::Adult]).passes(&art));
        assert!(!FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]).passes(&ramen));
    }

    #[test]
    fn keyword_filter_matches_the_lowercase_and_contains_rule() {
        let cases = [
            ("best Ramen in Tokyo", "ramen"),
            ("best ramen in tokyo", "RaMeN"),
            ("RAMEN", "ramen"),
            ("ramen", "ramen!"),
            ("", "ramen"),
            ("", ""),
            ("anything at all", ""),
            ("ラーメン大好き Ramen", "ラーメン"),
            ("ラーメン大好き Ramen", "ーメ"),
            ("Über-Ramen ÜBER", "über"),
            ("Über-Ramen ÜBER", "Über-r"),
            ("straße", "STRASSE"),
            ("İstanbul", "i"),
            ("new piece! #ART", "#art"),
            ("ab", "abc"),
        ];
        for (text, keyword) in cases {
            let expected = text
                .to_ascii_lowercase()
                .contains(&keyword.to_ascii_lowercase());
            assert_eq!(
                FeedFilter::Keyword(keyword.into()).passes(&text_post(text, "en")),
                expected,
                "{text:?} / {keyword:?}"
            );
        }
        // The edges the byte-window rewrite has to get right, spelled out.
        let post = text_post("Mixed CASE and ラーメン", "ja");
        assert!(FeedFilter::Keyword(String::new()).passes(&post));
        assert!(FeedFilter::Keyword("mixed case".into()).passes(&post));
        assert!(FeedFilter::Keyword("AND ラーメン".into()).passes(&post));
        assert!(!FeedFilter::Keyword("らーめん".into()).passes(&post));
    }

    #[test]
    fn pipeline_combines_inputs_and_filters() {
        // The input is the whole network: with no filters, every post is
        // curated; with filters, a post is curated only when all pass.
        assert!(curates(&[], &text_post("anything", "en")));
        let filters = [
            FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]),
            FeedFilter::Keyword("piece".into()),
        ];
        assert!(curates(&filters, &art_post("fox")));
        assert!(!curates(&filters, &text_post("new piece!", "en")));
        assert!(!curates(&filters[..1], &text_post("no media", "en")));
        let ramen = [FeedFilter::Language(vec!["ja".into()])];
        assert!(curates(&ramen, &text_post("ramen time", "ja")));
        assert!(!curates(&ramen, &text_post("ramen time", "en")));
    }
}
