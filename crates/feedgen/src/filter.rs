//! Feed inputs and filters.
//!
//! Feed-Generator-as-a-Service platforms let creators compose a feed from
//! *inputs* (the whole network, single users, lists, tags, other feeds, ...)
//! and *filters* (labels, languages, media counts, regular expressions, ...)
//! — exactly the feature matrix of Table 5. A [`FeedPipeline`] is the
//! declarative description of such a feed; evaluating it against an observed
//! post decides whether the post is curated.

use crate::regex::Regex;
use bsky_atproto::record::{MediaKind, PostRecord};
use bsky_atproto::Did;

/// What a feed draws candidate posts from (Table 5, "Inputs").
#[derive(Debug, Clone, PartialEq)]
pub enum FeedInput {
    /// Every post on the network (via the firehose).
    WholeNetwork,
    /// Posts by a single author.
    SingleUser(Did),
    /// Posts by any author on a list.
    UserList(Vec<Did>),
    /// Posts carrying one of these hashtags.
    Tags(Vec<String>),
    /// Posts in one of these languages (some platforms expose language as an
    /// input rather than a filter).
    Languages(Vec<String>),
}

impl FeedInput {
    /// Whether a post by `author` qualifies as a candidate.
    pub(crate) fn admits(&self, author: &Did, post: &PostRecord) -> bool {
        match self {
            FeedInput::WholeNetwork => true,
            FeedInput::SingleUser(did) => author == did,
            FeedInput::UserList(dids) => dids.contains(author),
            FeedInput::Tags(tags) => tags
                .iter()
                .any(|t| post.tags.iter().any(|p| p.eq_ignore_ascii_case(t))),
            FeedInput::Languages(langs) => langs
                .iter()
                .any(|l| post.langs.iter().any(|p| p.eq_ignore_ascii_case(l))),
        }
    }
}

/// A predicate applied to candidate posts (Table 5, "Filters").
#[derive(Debug, Clone)]
pub enum FeedFilter {
    /// Keep only posts in one of these languages.
    Language(Vec<String>),
    /// Keep only posts whose text matches the regex.
    TextRegex(Regex),
    /// Keep only posts whose image alt texts match the regex.
    AltTextRegex(Regex),
    /// Keep only posts with at least this many images.
    MinImageCount(usize),
    /// Drop posts with any attached media of these kinds.
    ExcludeMediaKinds(Vec<MediaKind>),
    /// Keep only posts with attached media of these kinds.
    RequireMediaKinds(Vec<MediaKind>),
    /// Drop posts by these authors.
    ExcludeAuthors(Vec<Did>),
    /// Drop replies.
    ExcludeReplies,
    /// Keep only posts containing this keyword (case-insensitive). Platforms
    /// without regex support offer this simpler filter.
    Keyword(String),
}

impl FeedFilter {
    /// Whether a post passes this filter.
    pub(crate) fn passes(&self, author: &Did, post: &PostRecord) -> bool {
        match self {
            FeedFilter::Language(langs) => langs
                .iter()
                .any(|l| post.langs.iter().any(|p| p.eq_ignore_ascii_case(l))),
            FeedFilter::TextRegex(re) => re.is_match(&post.text),
            FeedFilter::AltTextRegex(re) => match &post.embed {
                Some(bsky_atproto::record::Embed::Images(images)) => images
                    .iter()
                    .filter_map(|i| i.alt.as_deref())
                    .any(|alt| re.is_match(alt)),
                _ => false,
            },
            FeedFilter::MinImageCount(n) => post.media_kinds().count() >= *n,
            FeedFilter::ExcludeMediaKinds(kinds) => !post.media_kinds().any(|k| kinds.contains(&k)),
            FeedFilter::RequireMediaKinds(kinds) => post.media_kinds().any(|k| kinds.contains(&k)),
            FeedFilter::ExcludeAuthors(authors) => !authors.contains(author),
            FeedFilter::ExcludeReplies => post.reply_parent.is_none(),
            FeedFilter::Keyword(kw) => contains_ignore_ascii_case(&post.text, kw),
        }
    }
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

/// The declarative description of a feed's selection logic.
#[derive(Debug, Clone)]
pub struct FeedPipeline {
    /// Candidate sources; a post qualifies if *any* input admits it.
    pub inputs: Vec<FeedInput>,
    /// Filters; a candidate is curated only if *all* filters pass.
    pub filters: Vec<FeedFilter>,
}

impl FeedPipeline {
    /// A pipeline over the whole network with no filters (curates everything).
    pub fn everything() -> FeedPipeline {
        FeedPipeline {
            inputs: vec![FeedInput::WholeNetwork],
            filters: Vec::new(),
        }
    }

    /// Whether the pipeline curates the given post.
    pub(crate) fn curates(&self, author: &Did, post: &PostRecord) -> bool {
        if !self.inputs.iter().any(|i| i.admits(author, post)) {
            return false;
        }
        self.filters.iter().all(|f| f.passes(author, post))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::record::{Embed, ImageEmbed};
    use bsky_atproto::Datetime;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 10).unwrap()
    }

    fn author(n: &str) -> Did {
        Did::plc_from_seed(n.as_bytes())
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
    fn inputs_admit_expected_posts() {
        let alice = author("alice");
        let bob = author("bob");
        let post = text_post("hello", "en");
        assert!(FeedInput::WholeNetwork.admits(&alice, &post));
        assert!(FeedInput::SingleUser(alice.clone()).admits(&alice, &post));
        assert!(!FeedInput::SingleUser(alice.clone()).admits(&bob, &post));
        assert!(FeedInput::UserList(vec![alice.clone(), bob.clone()]).admits(&bob, &post));
        assert!(!FeedInput::UserList(vec![alice.clone()]).admits(&bob, &post));
        assert!(FeedInput::Languages(vec!["en".into()]).admits(&alice, &post));
        assert!(!FeedInput::Languages(vec!["ja".into()]).admits(&alice, &post));
        let tagged = art_post("a fox");
        assert!(FeedInput::Tags(vec!["ART".into()]).admits(&alice, &tagged));
        assert!(!FeedInput::Tags(vec!["food".into()]).admits(&alice, &tagged));
    }

    #[test]
    fn filters_pass_and_fail() {
        let alice = author("alice");
        let hebrew = text_post("שלום עולם", "he");
        assert!(FeedFilter::Language(vec!["he".into()]).passes(&alice, &hebrew));
        assert!(!FeedFilter::Language(vec!["en".into()]).passes(&alice, &hebrew));

        let ramen = text_post("best Ramen in Tokyo", "ja");
        assert!(FeedFilter::Keyword("ramen".into()).passes(&alice, &ramen));
        assert!(
            FeedFilter::TextRegex(Regex::new_case_insensitive("ramen|ラーメン").unwrap())
                .passes(&alice, &ramen)
        );
        assert!(
            !FeedFilter::TextRegex(Regex::compile("sushi", false).unwrap()).passes(&alice, &ramen)
        );

        let art = art_post("a watercolour fox");
        assert!(FeedFilter::MinImageCount(1).passes(&alice, &art));
        assert!(!FeedFilter::MinImageCount(2).passes(&alice, &art));
        assert!(
            FeedFilter::AltTextRegex(Regex::compile("fox", false).unwrap()).passes(&alice, &art)
        );
        assert!(
            !FeedFilter::AltTextRegex(Regex::compile("fox", false).unwrap()).passes(&alice, &ramen)
        );
        assert!(FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]).passes(&alice, &art));
        assert!(!FeedFilter::ExcludeMediaKinds(vec![MediaKind::Artwork]).passes(&alice, &art));
        assert!(FeedFilter::ExcludeMediaKinds(vec![MediaKind::Adult]).passes(&alice, &art));

        assert!(!FeedFilter::ExcludeAuthors(vec![alice.clone()]).passes(&alice, &art));
        assert!(FeedFilter::ExcludeAuthors(vec![author("bob")]).passes(&alice, &art));

        let mut reply = text_post("replying", "en");
        reply.reply_parent = Some(bsky_atproto::AtUri::repo(author("bob")));
        assert!(!FeedFilter::ExcludeReplies.passes(&alice, &reply));
        assert!(FeedFilter::ExcludeReplies.passes(&alice, &ramen));
    }

    #[test]
    fn keyword_filter_matches_the_lowercase_and_contains_rule() {
        let alice = author("alice");
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
                FeedFilter::Keyword(keyword.into()).passes(&alice, &text_post(text, "en")),
                expected,
                "{text:?} / {keyword:?}"
            );
        }
        // The edges the byte-window rewrite has to get right, spelled out.
        let post = text_post("Mixed CASE and ラーメン", "ja");
        assert!(FeedFilter::Keyword(String::new()).passes(&alice, &post));
        assert!(FeedFilter::Keyword("mixed case".into()).passes(&alice, &post));
        assert!(FeedFilter::Keyword("AND ラーメン".into()).passes(&alice, &post));
        assert!(!FeedFilter::Keyword("らーめん".into()).passes(&alice, &post));
    }

    #[test]
    fn pipeline_combines_inputs_and_filters() {
        let alice = author("alice");
        let pipeline = FeedPipeline {
            inputs: vec![FeedInput::Tags(vec!["art".into()])],
            filters: vec![
                FeedFilter::RequireMediaKinds(vec![MediaKind::Artwork]),
                FeedFilter::ExcludeReplies,
            ],
        };
        assert!(pipeline.curates(&alice, &art_post("fox")));
        assert!(!pipeline.curates(&alice, &text_post("no tag", "en")));

        let regex_pipeline = FeedPipeline {
            inputs: vec![FeedInput::WholeNetwork],
            filters: vec![FeedFilter::TextRegex(
                Regex::compile("ramen", false).unwrap(),
            )],
        };
        assert!(regex_pipeline.curates(&alice, &text_post("ramen time", "ja")));
        assert!(FeedPipeline::everything().curates(&alice, &text_post("anything", "en")));
    }
}
