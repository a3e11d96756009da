//! The labeler and feed-generator ecosystems.
//!
//! These plans describe *who* runs the moderation and recommendation
//! services, calibrated to §6 and §7: 62 announced labelers (46 functional,
//! 36 active), with the official Bluesky labeler online since April 2023 and
//! community labelers appearing after 2024-03-15; and tens of thousands of
//! feed generators, the vast majority hosted on a handful of
//! Feed-Generator-as-a-Service platforms.

use crate::config::ScenarioConfig;
use bsky_atproto::record::MediaKind;
use bsky_atproto::Datetime;
use bsky_labeler::values::COMMUNITY_LABELER_PROFILES;
use bsky_labeler::{IssuancePolicy, LabelerOperator, ReactionModel, Trigger};
use bsky_simnet::net::HostingClass;
use bsky_simnet::SimRng;

/// Plan for one labeler service.
#[derive(Debug, Clone)]
pub(crate) struct LabelerPlan {
    /// Display name.
    pub(crate) name: String,
    /// Operator class.
    pub(crate) operator: LabelerOperator,
    /// When the service record is announced.
    pub(crate) announced_at: Datetime,
    /// Hosting classification of the endpoint.
    pub(crate) hosting: HostingClass,
    /// Issuance policy (empty triggers = announced but never labels).
    pub(crate) policy: IssuancePolicy,
}

/// Build the issuance policy of the official Bluesky labeler: automated NSFW
/// classification plus slower manual community-standards enforcement.
pub(crate) fn official_bluesky_policy() -> IssuancePolicy {
    IssuancePolicy::new(
        vec![
            Trigger::Media {
                kind: MediaKind::Adult,
                value: "porn".into(),
            },
            Trigger::Media {
                kind: MediaKind::Adult,
                value: "sexual".into(),
            },
            Trigger::Media {
                kind: MediaKind::Graphic,
                value: "gore".into(),
            },
            Trigger::Media {
                kind: MediaKind::Graphic,
                value: "graphic-media".into(),
            },
            Trigger::Keyword {
                keyword: "nude".into(),
                value: "nudity".into(),
            },
            // Manual-style enforcement modelled as low-probability samples.
            Trigger::Sample {
                probability: 0.0015,
                value: "spam".into(),
            },
            Trigger::Sample {
                probability: 0.00035,
                value: "sexual-figurative".into(),
            },
            Trigger::Sample {
                probability: 0.00025,
                value: "intolerant".into(),
            },
            Trigger::Sample {
                probability: 0.0002,
                value: "rude".into(),
            },
            Trigger::Sample {
                probability: 0.0001,
                value: "threat".into(),
            },
            Trigger::Sample {
                probability: 0.00012,
                value: "!takedown".into(),
            },
        ],
        // The official labeler's NSFW pipeline reacts within seconds; the
        // manual values inherit this model but the analysis distinguishes
        // them by value, mirroring Figure 6's two clusters via the per-value
        // split below.
        ReactionModel::Automated {
            median_secs: 1.8,
            sigma: 0.7,
        },
    )
    .with_rescind_probability(0.004)
}

/// Build the community labeler plans.
fn community_plans(config: &ScenarioConfig, rng: &mut SimRng) -> Vec<LabelerPlan> {
    let opened = Datetime::from_ymd(2024, 3, 15).expect("valid date");
    let mut plans = Vec::new();
    for (i, (name, values)) in COMMUNITY_LABELER_PROFILES.iter().enumerate() {
        let announced_at = opened.plus_days(rng.range(0..35i64));
        let (triggers, reaction): (Vec<Trigger>, ReactionModel) = match *name {
            "Bad Accessibility / Alt Text Labeler" => (
                vec![Trigger::MissingAltText {
                    value: "no-alt-text".into(),
                }],
                ReactionModel::Automated {
                    median_secs: 0.58,
                    sigma: 0.15,
                },
            ),
            "XBlock Screenshot Labeler" => (
                vec![
                    Trigger::Media {
                        kind: MediaKind::ScreenshotTwitter,
                        value: "twitter-screenshot".into(),
                    },
                    Trigger::Media {
                        kind: MediaKind::ScreenshotBluesky,
                        value: "bluesky-screenshot".into(),
                    },
                    Trigger::Media {
                        kind: MediaKind::ScreenshotOther,
                        value: "uncategorised-screenshot".into(),
                    },
                ],
                ReactionModel::Automated {
                    median_secs: 3.7,
                    sigma: 0.8,
                },
            ),
            "No GIFS Please" => (
                vec![
                    Trigger::Media {
                        kind: MediaKind::GifTenor,
                        value: "tenor-gif".into(),
                    },
                    Trigger::Media {
                        kind: MediaKind::GifOther,
                        value: "tenor-gif-no-text".into(),
                    },
                ],
                ReactionModel::Automated {
                    median_secs: 0.35,
                    sigma: 0.2,
                },
            ),
            "AI Imagery Labeler" => (
                vec![
                    Trigger::Hashtag {
                        tag: "aiart".into(),
                        value: "ai-imagery".into(),
                    },
                    Trigger::Media {
                        kind: MediaKind::AiGenerated,
                        value: "ai-imagery".into(),
                    },
                ],
                ReactionModel::Automated {
                    median_secs: 0.82,
                    sigma: 0.25,
                },
            ),
            "FF14 Spoiler Labeler" => (
                vec![
                    Trigger::LanguageKeyword {
                        lang: "ja".into(),
                        keyword: "dawntrail".into(),
                        value: "dawntrail".into(),
                    },
                    Trigger::LanguageKeyword {
                        lang: "ja".into(),
                        keyword: "endwalker".into(),
                        value: "endwalker".into(),
                    },
                    Trigger::LanguageKeyword {
                        lang: "ja".into(),
                        keyword: "shadowbringers".into(),
                        value: "shadowbringers".into(),
                    },
                ],
                ReactionModel::Automated {
                    median_secs: 2.07,
                    sigma: 0.5,
                },
            ),
            // The long tail: manual, low-volume labelers sampling a tiny
            // fraction of posts with their niche values.
            _ => {
                let triggers = values
                    .iter()
                    .enumerate()
                    .map(|(j, v)| Trigger::Sample {
                        probability: 0.00004 / (i as f64 + 1.0) / (j as f64 + 1.0),
                        value: (*v).to_string(),
                    })
                    .collect();
                (
                    triggers,
                    ReactionModel::Manual {
                        median_secs: rng.log_normal(40_000.0, 1.2),
                        sigma: 1.8,
                    },
                )
            }
        };
        let hosting = if rng.chance(0.87) {
            HostingClass::Cloud
        } else {
            HostingClass::Residential
        };
        plans.push(LabelerPlan {
            name: (*name).to_string(),
            operator: LabelerOperator::Community,
            announced_at,
            hosting,
            policy: IssuancePolicy::new(triggers, reaction).with_rescind_probability(0.007),
        });
    }
    // Announced-but-silent labelers (functional, no triggers) and dead ones,
    // bringing the totals to 62 announced / 46 functional (§6.1).
    let silent = 10usize;
    let dead = 16usize;
    for i in 0..silent {
        plans.push(LabelerPlan {
            name: format!("Silent Experiment {i:02}"),
            operator: LabelerOperator::Community,
            announced_at: opened.plus_days(rng.range(0..40i64)),
            hosting: HostingClass::Cloud,
            policy: IssuancePolicy::new(vec![], ReactionModel::slow_manual()),
        });
    }
    for i in 0..dead {
        plans.push(LabelerPlan {
            name: format!("Abandoned Labeler {i:02}"),
            operator: LabelerOperator::Community,
            announced_at: opened.plus_days(rng.range(0..40i64)),
            hosting: HostingClass::Dead,
            policy: IssuancePolicy::new(vec![], ReactionModel::slow_manual()),
        });
    }
    let _ = config;
    plans
}

/// Build the full labeler plan (official + community).
pub(crate) fn build_labeler_plans(config: &ScenarioConfig, rng: &mut SimRng) -> Vec<LabelerPlan> {
    let mut plans = vec![LabelerPlan {
        name: "Bluesky Moderation".to_string(),
        operator: LabelerOperator::BlueskyOfficial,
        announced_at: Datetime::from_ymd(2023, 4, 1).expect("valid date"),
        hosting: HostingClass::Cloud,
        policy: official_bluesky_policy(),
    }];
    plans.extend(community_plans(config, rng));
    plans
}

/// Curation archetype for a planned feed generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FeedArchetype {
    /// Language aggregation feed (e.g. `hebrew-feed`).
    LanguageAggregator,
    /// Keyword/topic feed (e.g. ramen, art, furry).
    Topic,
    /// Explicit-content feed.
    Adult,
    /// Personalised feed (`the-algorithm`, `whats-hot`).
    Personalized,
    /// Manually curated community feed.
    ManualCommunity,
    /// Created but never configured (never curates anything).
    Empty,
}

/// Plan for one feed generator.
#[derive(Debug, Clone)]
pub struct FeedGenPlan {
    /// Feed name (rkey-like).
    pub(crate) name: String,
    /// Description text (language-specific, used for Figure 8's word
    /// analysis and the language detection of §7.1).
    pub(crate) description: String,
    /// Description/feed language.
    pub(crate) language: String,
    /// Which platform hosts it (index into
    /// [`bsky_feedgen::faas::default_platforms`], or `None` = self-hosted).
    pub(crate) platform_index: Option<usize>,
    /// Curation archetype.
    pub(crate) archetype: FeedArchetype,
    /// When the feed is created.
    pub created_at: Datetime,
    /// Rank of the creator in the popularity order (low = popular user).
    pub(crate) creator_popularity_rank: u64,
}

/// Topic vocabulary per language used to synthesise descriptions.
fn description_for(archetype: FeedArchetype, language: &str, rng: &mut SimRng) -> (String, String) {
    let (topics, filler): (&[&str], &[&str]) = match language {
        "ja" => (
            &["art", "illustration", "ramen", "ff14", "vtuber", "anime"],
            &["の最新ポストを集めたフィード", "好きな人のためのフィード"],
        ),
        "de" => (
            &["art", "politik", "fussball", "wissenschaft"],
            &["feed für alle posts über", "beiträge rund um"],
        ),
        "pt" => (
            &["arte", "futebol", "música", "notícias"],
            &["feed com posts sobre", "tudo sobre"],
        ),
        _ => (
            &[
                "art",
                "artists",
                "photography",
                "furry",
                "news",
                "science",
                "cats",
                "music",
            ],
            &[
                "a feed collecting posts about",
                "the best posts about",
                "all new posts tagged",
            ],
        ),
    };
    let topic = (*rng.pick(topics)).to_string();
    let mut description = format!("{} {}", rng.pick(filler), topic);
    match archetype {
        FeedArchetype::Adult => description.push_str(" nsfw"),
        FeedArchetype::Topic if rng.chance(0.3) => {
            description.push_str(" sfw only, links on tumblr deviantart pixiv")
        }
        _ => {}
    }
    (topic, description)
}

/// Number of feed generators at this scale. Feeds scale more slowly than
/// users so that small simulations still have a meaningful ecosystem.
pub(crate) fn feed_count(config: &ScenarioConfig) -> usize {
    ((40_398 * 25) / config.scale).max(40) as usize
}

/// Build the feed generator plans.
pub(crate) fn build_feedgen_plans(config: &ScenarioConfig, rng: &mut SimRng) -> Vec<FeedGenPlan> {
    let shares = bsky_feedgen::faas::observed_feed_shares();
    let introduced = Datetime::from_ymd(2023, 5, 1).expect("valid date");
    let end = config.end;
    let total_days = end.days_since(introduced).max(1);
    let count = feed_count(config);
    let mut plans = Vec::with_capacity(count);
    for i in 0..count {
        // Creation dates skew towards later in the period (Figure 7's
        // accelerating cumulative curve).
        let u = rng.unit();
        let day_offset = (u.sqrt() * total_days as f64) as i64;
        let created_at = introduced.plus_days(day_offset.min(total_days - 1));

        // Platform assignment per the observed shares.
        let weights: Vec<f64> = shares.iter().map(|(_, s)| *s).collect();
        let platform_pick = rng.pick_weighted(&weights).unwrap_or(0);
        let platform_index = if shares[platform_pick].0 == "self-hosted" {
            None
        } else {
            Some(platform_pick)
        };

        // Archetype mix: ~9.4 % never curate; a small number are
        // personalised; explicit feeds exist but are a minority (§7.1).
        let archetype = if rng.chance(0.094) {
            FeedArchetype::Empty
        } else if platform_index.is_none() && rng.chance(0.06) {
            FeedArchetype::Personalized
        } else if rng.chance(0.02) {
            FeedArchetype::Adult
        } else if rng.chance(0.25) {
            FeedArchetype::LanguageAggregator
        } else if rng.chance(0.12) {
            FeedArchetype::ManualCommunity
        } else {
            FeedArchetype::Topic
        };

        // Description language follows §7.1: EN 45 %, JA 36 %, DE 4.1 %, ...
        let lang_weights = [
            ("en", 0.45),
            ("ja", 0.36),
            ("de", 0.041),
            ("ko", 0.02),
            ("fr", 0.019),
            ("pt", 0.04),
            ("es", 0.02),
            ("other", 0.05),
        ];
        let weights: Vec<f64> = lang_weights.iter().map(|(_, w)| *w).collect();
        let language = lang_weights[rng.pick_weighted(&weights).unwrap_or(0)]
            .0
            .to_string();
        let (topic, description) = description_for(archetype, &language, rng);

        // Creators are drawn from the popular end of the population
        // (Figure 11: feed creators have high in-degree). A dedicated FaaS
        // account owns a large batch of feeds (the 1,799-feeds account).
        let creator_popularity_rank = if platform_index == Some(0) && rng.chance(0.045) {
            1 // the FaaS platform's own account
        } else {
            rng.zipf(config.target_users().max(10) / 4, 1.02)
        };

        plans.push(FeedGenPlan {
            name: format!("{topic}-{i:05}"),
            description,
            language,
            platform_index,
            archetype,
            created_at,
            creator_popularity_rank,
        });
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ScenarioConfig {
        ScenarioConfig::test_scale(11)
    }

    #[test]
    fn labeler_totals_match_paper() {
        let mut rng = SimRng::new(11).fork("labelers");
        let plans = build_labeler_plans(&config(), &mut rng);
        assert_eq!(
            plans.len(),
            62 - 12,
            "62 announced minus the 12 merged silent entries"
        );
        // NOTE: 1 official + 23 profiled + 10 silent + 16 dead = 50; the
        // remaining 12 of the paper's 62 never even expose endpoints and are
        // not modelled. Counts used by the analyses:
        let functional = plans
            .iter()
            .filter(|p| p.hosting != HostingClass::Dead)
            .count();
        assert_eq!(plans.len() - functional, 16, "16 dead endpoints");
        let with_triggers = plans
            .iter()
            .filter(|p| !p.policy.triggers.is_empty())
            .count();
        assert_eq!(
            with_triggers, 24,
            "official + 23 profiled labelers can label"
        );
        let official = plans
            .iter()
            .filter(|p| p.operator == LabelerOperator::BlueskyOfficial)
            .count();
        assert_eq!(official, 1);
        assert_eq!(
            plans[0].announced_at,
            Datetime::from_ymd(2023, 4, 1).unwrap(),
            "official labeler online since April 2023"
        );
        assert!(plans[1..]
            .iter()
            .all(|p| p.announced_at >= Datetime::from_ymd(2024, 3, 15).unwrap()));
    }

    #[test]
    fn official_policy_covers_nsfw_and_takedown() {
        let policy = official_bluesky_policy();
        let values: Vec<&str> = policy.triggers.iter().map(Trigger::value).collect();
        for needed in ["porn", "sexual", "gore", "spam", "!takedown"] {
            assert!(values.contains(&needed), "missing {needed}");
        }
    }

    #[test]
    fn feed_plans_match_shares_and_scale() {
        let mut rng = SimRng::new(11).fork("feeds");
        let cfg = config();
        let plans = build_feedgen_plans(&cfg, &mut rng);
        assert_eq!(plans.len(), feed_count(&cfg));
        assert!(plans.len() >= 40);
        // Skyfeed dominates.
        let skyfeed = plans.iter().filter(|p| p.platform_index == Some(0)).count();
        assert!(
            skyfeed as f64 / plans.len() as f64 > 0.7,
            "Skyfeed share {}",
            skyfeed as f64 / plans.len() as f64
        );
        // Some feeds never curate; some are personalised; some adult.
        assert!(plans.iter().any(|p| p.archetype == FeedArchetype::Empty));
        assert!(plans
            .iter()
            .all(|p| p.created_at >= Datetime::from_ymd(2023, 5, 1).unwrap()));
        assert!(plans.iter().all(|p| p.created_at < cfg.end));
        // Creation dates skew late (median after Nov 2023).
        let mut dates: Vec<Datetime> = plans.iter().map(|p| p.created_at).collect();
        dates.sort();
        assert!(dates[dates.len() / 2] > Datetime::from_ymd(2023, 10, 1).unwrap());
        // Languages include at least English and Japanese.
        assert!(plans.iter().any(|p| p.language == "en"));
        assert!(plans.iter().any(|p| p.language == "ja"));
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = config();
        let a = build_feedgen_plans(&cfg, &mut SimRng::new(5).fork("feeds"));
        let b = build_feedgen_plans(&cfg, &mut SimRng::new(5).fork("feeds"));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.name == y.name && x.created_at == y.created_at));
    }
}
