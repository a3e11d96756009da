//! Issuance policies: what a Labeler labels and how fast it reacts.
//!
//! §6.3 finds a clear split between automated Labelers (sub-10-second median
//! reaction times, high volume) and manual ones (minutes to days, low volume,
//! high variability). A policy couples a set of *triggers* — predicates over
//! post content — with a *reaction-time model*.

use crate::rng::SimRng;
use bsky_atproto::record::{MediaKind, PostRecord};

/// How quickly the labeler reacts once it sees a post.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReactionModel {
    /// Automated pipeline: log-normal around a sub-minute median.
    Automated {
        /// Median reaction time in seconds.
        median_secs: f64,
        /// Log-normal sigma (dispersion).
        sigma: f64,
    },
    /// Manual review: log-normal around a much larger median.
    Manual {
        /// Median reaction time in seconds.
        median_secs: f64,
        /// Log-normal sigma (dispersion).
        sigma: f64,
    },
}

impl ReactionModel {
    /// A typical human-in-the-loop process (hours).
    pub(crate) fn slow_manual() -> ReactionModel {
        ReactionModel::Manual {
            median_secs: 6.0 * 3600.0,
            sigma: 1.5,
        }
    }

    /// Sample a reaction delay in seconds.
    pub(crate) fn sample_delay_secs(&self, rng: &mut SimRng) -> f64 {
        let (median, sigma) = match self {
            ReactionModel::Automated { median_secs, sigma }
            | ReactionModel::Manual { median_secs, sigma } => (*median_secs, *sigma),
        };
        rng.log_normal(median.max(0.05), sigma.max(0.01))
    }
}

/// A predicate over post content that triggers a label value.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Post has attached media missing alternative text.
    MissingAltText {
        /// Value to apply (e.g. `no-alt-text`).
        value: String,
    },
    /// Post has attached media of a specific kind.
    Media {
        /// The media kind to match.
        kind: MediaKind,
        /// Value to apply.
        value: String,
    },
    /// Post carries a specific hashtag.
    Hashtag {
        /// The tag (without `#`).
        tag: String,
        /// Value to apply.
        value: String,
    },
    /// Post text contains a keyword (case-insensitive).
    Keyword {
        /// The keyword.
        keyword: String,
        /// Value to apply.
        value: String,
    },
    /// Post is written in a given language *and* contains a keyword.
    LanguageKeyword {
        /// BCP-47 language tag.
        lang: String,
        /// The keyword.
        keyword: String,
        /// Value to apply.
        value: String,
    },
    /// Random sampling: label a fraction of all observed posts (models
    /// experimental / low-signal labelers).
    Sample {
        /// Probability of labelling any given post.
        probability: f64,
        /// Value to apply.
        value: String,
    },
}

impl Trigger {
    /// The value this trigger applies.
    pub(crate) fn value(&self) -> &str {
        match self {
            Trigger::MissingAltText { value }
            | Trigger::Media { value, .. }
            | Trigger::Hashtag { value, .. }
            | Trigger::Keyword { value, .. }
            | Trigger::LanguageKeyword { value, .. }
            | Trigger::Sample { value, .. } => value,
        }
    }

    /// Evaluate the trigger against a post.
    pub(crate) fn matches(&self, post: &PostRecord, rng: &mut SimRng) -> bool {
        match self {
            Trigger::MissingAltText { .. } => post.has_media_missing_alt(),
            Trigger::Media { kind, .. } => post.media_kinds().any(|k| k == *kind),
            Trigger::Hashtag { tag, .. } => post.tags.iter().any(|t| t.eq_ignore_ascii_case(tag)),
            Trigger::Keyword { keyword, .. } => post
                .text
                .to_ascii_lowercase()
                .contains(&keyword.to_ascii_lowercase()),
            Trigger::LanguageKeyword { lang, keyword, .. } => {
                post.langs.iter().any(|l| l.eq_ignore_ascii_case(lang))
                    && post
                        .text
                        .to_ascii_lowercase()
                        .contains(&keyword.to_ascii_lowercase())
            }
            Trigger::Sample { probability, .. } => rng.chance(*probability),
        }
    }
}

/// A labeler's full issuance policy.
#[derive(Debug, Clone, PartialEq)]
pub struct IssuancePolicy {
    /// Content triggers, evaluated in order; every matching trigger fires.
    pub(crate) triggers: Vec<Trigger>,
    /// Reaction-time model.
    pub(crate) reaction: ReactionModel,
    /// Probability that an applied label is later rescinded (false positive
    /// cleanup; the paper observes 23,394 rescinded labels).
    pub(crate) rescind_probability: f64,
}

impl IssuancePolicy {
    /// Create a policy.
    pub fn new(triggers: Vec<Trigger>, reaction: ReactionModel) -> IssuancePolicy {
        IssuancePolicy {
            triggers,
            reaction,
            rescind_probability: 0.0,
        }
    }

    /// Set the rescind probability.
    pub fn with_rescind_probability(mut self, p: f64) -> IssuancePolicy {
        self.rescind_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Evaluate every trigger against a post, returning the values to apply.
    pub(crate) fn evaluate(&self, post: &PostRecord, rng: &mut SimRng) -> Vec<String> {
        let mut values: Vec<String> = self
            .triggers
            .iter()
            .filter(|t| t.matches(post, rng))
            .map(|t| t.value().to_string())
            .collect();
        values.dedup();
        values
    }
}

#[cfg(test)]
impl IssuancePolicy {
    /// Values this policy may emit.
    pub(crate) fn declared_values(&self) -> Vec<String> {
        let mut values: Vec<String> = self
            .triggers
            .iter()
            .map(|t| t.value().to_string())
            .collect();
        values.sort();
        values.dedup();
        values
    }
}

#[cfg(test)]
impl ReactionModel {
    /// A typical automated pipeline (~1 s median): the fixture of the
    /// labeler tests.
    pub(crate) fn fast_automated() -> ReactionModel {
        ReactionModel::Automated {
            median_secs: 1.0,
            sigma: 0.4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::record::{Embed, ImageEmbed};
    use bsky_atproto::Datetime;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 1).unwrap()
    }

    fn post_with_media(alt: Option<&str>, kind: MediaKind) -> PostRecord {
        PostRecord {
            text: "look at this".into(),
            created_at: now(),
            langs: vec!["en".into()],
            reply_parent: None,
            embed: Some(Embed::Images(vec![ImageEmbed {
                alt: alt.map(str::to_string),
                kind,
            }])),
            tags: vec![],
        }
    }

    #[test]
    fn alt_text_trigger() {
        let trigger = Trigger::MissingAltText {
            value: "no-alt-text".into(),
        };
        let mut r = rng();
        assert!(trigger.matches(&post_with_media(None, MediaKind::Photo), &mut r));
        assert!(!trigger.matches(&post_with_media(Some("a cat"), MediaKind::Photo), &mut r));
        assert!(!trigger.matches(&PostRecord::simple("no media", "en", now()), &mut r));
    }

    #[test]
    fn media_hashtag_keyword_triggers() {
        let mut r = rng();
        let gif = Trigger::Media {
            kind: MediaKind::GifTenor,
            value: "tenor-gif".into(),
        };
        assert!(gif.matches(&post_with_media(Some("gif"), MediaKind::GifTenor), &mut r));
        assert!(!gif.matches(&post_with_media(Some("img"), MediaKind::Photo), &mut r));

        let hashtag = Trigger::Hashtag {
            tag: "aiart".into(),
            value: "ai-imagery".into(),
        };
        let mut tagged = PostRecord::simple("my new piece", "en", now());
        tagged.tags.push("AIArt".into());
        assert!(hashtag.matches(&tagged, &mut r));
        assert!(!hashtag.matches(&PostRecord::simple("plain", "en", now()), &mut r));

        let keyword = Trigger::Keyword {
            keyword: "ramen".into(),
            value: "food".into(),
        };
        assert!(keyword.matches(
            &PostRecord::simple("Best RAMEN in town", "ja", now()),
            &mut r
        ));
        assert!(!keyword.matches(&PostRecord::simple("sushi only", "ja", now()), &mut r));

        let lang_kw = Trigger::LanguageKeyword {
            lang: "ja".into(),
            keyword: "dawntrail".into(),
            value: "dawntrail".into(),
        };
        assert!(lang_kw.matches(
            &PostRecord::simple("Dawntrail spoilers!", "ja", now()),
            &mut r
        ));
        assert!(!lang_kw.matches(
            &PostRecord::simple("Dawntrail spoilers!", "en", now()),
            &mut r
        ));
    }

    #[test]
    fn sample_trigger_rate() {
        let trigger = Trigger::Sample {
            probability: 0.1,
            value: "test-label".into(),
        };
        let mut r = rng();
        let post = PostRecord::simple("anything", "en", now());
        let hits = (0..10_000)
            .filter(|_| trigger.matches(&post, &mut r))
            .count();
        assert!((700..1_400).contains(&hits), "hits {hits}");
    }

    #[test]
    fn reaction_models_differ_by_orders_of_magnitude() {
        let mut r = rng();
        let fast = ReactionModel::fast_automated();
        let slow = ReactionModel::slow_manual();
        assert!(matches!(slow, ReactionModel::Manual { .. }));
        let fast_samples: Vec<f64> = (0..500).map(|_| fast.sample_delay_secs(&mut r)).collect();
        let slow_samples: Vec<f64> = (0..500).map(|_| slow.sample_delay_secs(&mut r)).collect();
        let fast_mean = fast_samples.iter().sum::<f64>() / 500.0;
        let slow_mean = slow_samples.iter().sum::<f64>() / 500.0;
        assert!(fast_mean < 10.0, "fast mean {fast_mean}");
        assert!(slow_mean > 1_000.0, "slow mean {slow_mean}");
        assert!(fast_samples.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn policy_evaluation_collects_all_matches() {
        let policy = IssuancePolicy::new(
            vec![
                Trigger::MissingAltText {
                    value: "no-alt-text".into(),
                },
                Trigger::Media {
                    kind: MediaKind::GifTenor,
                    value: "tenor-gif".into(),
                },
            ],
            ReactionModel::fast_automated(),
        )
        .with_rescind_probability(0.01);
        assert_eq!(policy.declared_values(), vec!["no-alt-text", "tenor-gif"]);
        assert!((policy.rescind_probability - 0.01).abs() < 1e-12);
        let mut r = rng();
        let values = policy.evaluate(&post_with_media(None, MediaKind::GifTenor), &mut r);
        assert_eq!(values, vec!["no-alt-text", "tenor-gif"]);
        let none = policy.evaluate(&PostRecord::simple("plain", "en", now()), &mut r);
        assert!(none.is_empty());
    }
}
