//! Scenario configuration and calibration constants.
//!
//! The generator is parameterised by a seed and a scale factor; everything
//! else is calibrated directly from the numbers the paper reports, so that
//! the *shape* of every table and figure is preserved at any scale.

use bsky_atproto::Datetime;

/// Calibration constants lifted from the paper (full-network values).
pub mod paper {
    /// Total users observed (§1, §3).
    pub const TOTAL_USERS: u64 = 5_523_919;
    /// Total posts (§1).
    pub const TOTAL_POSTS: u64 = 225_461_969;
    /// Total likes (§4).
    pub const TOTAL_LIKES: u64 = 740_000_000;
    /// Total follows (§4).
    pub const TOTAL_FOLLOWS: u64 = 160_900_000;
    /// Total reposts (§4).
    pub const TOTAL_REPOSTS: u64 = 77_900_000;
    /// Total blocks (§4).
    pub const TOTAL_BLOCKS: u64 = 10_800_000;
    /// Share of handles under bsky.social (§5).
    pub const BSKY_SOCIAL_HANDLE_SHARE: f64 = 0.989;
    /// Number of did:web identities (§5).
    pub const DID_WEB_COUNT: u64 = 6;
    /// Share of custom handles proven via DNS TXT records (§5).
    pub const DNS_TXT_PROOF_SHARE: f64 = 0.987;
    /// Daily active users in April 2024 (§4).
    pub const APRIL_2024_DAU: u64 = 500_000;
    /// Daily likes in April 2024 (§4).
    pub const APRIL_2024_DAILY_LIKES: u64 = 3_000_000;
    /// Daily posts in April 2024 (§4).
    pub const APRIL_2024_DAILY_POSTS: u64 = 800_000;
    /// Daily reposts in April 2024 (§4).
    pub const APRIL_2024_DAILY_REPOSTS: u64 = 300_000;
    /// Announced labelers (§6).
    pub const LABELERS_ANNOUNCED: u64 = 62;
    /// Functional labelers (§6).
    pub const LABELERS_FUNCTIONAL: u64 = 46;
    /// Labelers that issued at least one label (§6).
    pub const LABELERS_ACTIVE: u64 = 36;
    /// Reachable feed generators (§7).
    pub const FEED_GENERATORS: u64 = 40_398;
    /// Share of feed generators that never curated a post (§7).
    pub const FEEDS_NEVER_CURATED_SHARE: f64 = 0.094;
    /// Community share of labels issued in April 2024 (§6.1).
    pub const COMMUNITY_LABEL_SHARE_APRIL: f64 = 0.887;
    /// Share of April 2024 posts that received at least one label (§6.2).
    pub const APRIL_POSTS_LABELED_SHARE: f64 = 0.0421;
    /// Firehose event-type shares (Table 1).
    pub const FIREHOSE_COMMIT_SHARE: f64 = 0.9978;
    /// Estimated firehose output per day (§9), in bytes.
    pub const FIREHOSE_BYTES_PER_DAY: u64 = 30_000_000_000;
}

/// Language communities and their approximate shares of posting users
/// (§4: ≈800 K English, >700 K Japanese, then Portuguese and German).
pub(crate) const LANGUAGE_SHARES: &[(&str, f64)] = &[
    ("en", 0.40),
    ("ja", 0.35),
    ("pt", 0.10),
    ("de", 0.06),
    ("ko", 0.03),
    ("fr", 0.03),
    ("es", 0.02),
    ("other", 0.01),
];

/// A growth epoch: a date range with a daily signup level and an activity
/// multiplier, reproducing the shape of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GrowthEpoch {
    /// Human-readable name.
    pub(crate) name: &'static str,
    /// First day of the epoch (inclusive).
    pub(crate) start: (i32, u32, u32),
    /// Day after the last day of the epoch (exclusive).
    pub(crate) end: (i32, u32, u32),
    /// New signups per day as a fraction of the final user population.
    pub(crate) daily_signup_fraction: f64,
    /// Fraction of already-joined users active on a given day.
    pub(crate) daily_active_fraction: f64,
}

/// The growth epochs of the platform's history (Nov 2022 – Apr 2024).
pub(crate) const GROWTH_EPOCHS: &[GrowthEpoch] = &[
    GrowthEpoch {
        name: "private beta",
        start: (2022, 11, 17),
        end: (2023, 2, 1),
        daily_signup_fraction: 0.00002,
        daily_active_fraction: 0.25,
    },
    GrowthEpoch {
        name: "invite-only growth",
        start: (2023, 2, 1),
        end: (2023, 7, 1),
        daily_signup_fraction: 0.0008,
        daily_active_fraction: 0.22,
    },
    GrowthEpoch {
        name: "invite-only plateau",
        start: (2023, 7, 1),
        end: (2024, 2, 6),
        daily_signup_fraction: 0.0012,
        daily_active_fraction: 0.12,
    },
    GrowthEpoch {
        name: "public launch surge",
        start: (2024, 2, 6),
        end: (2024, 3, 1),
        daily_signup_fraction: 0.012,
        daily_active_fraction: 0.14,
    },
    GrowthEpoch {
        name: "post-launch stagnation",
        start: (2024, 3, 1),
        end: (2024, 5, 1),
        daily_signup_fraction: 0.0015,
        daily_active_fraction: 0.095,
    },
];

/// Scenario configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Random seed; a `(seed, scale)` pair fully determines a run.
    pub seed: u64,
    /// Scale denominator: the synthetic network has `TOTAL_USERS / scale`
    /// users (e.g. 2,000 → ≈2,760 users).
    pub scale: u64,
    /// First simulated day.
    pub start: Datetime,
    /// Day after the last simulated day.
    pub end: Datetime,
    /// When the continuous firehose subscription of the study begins
    /// (2024-03-06 in the paper).
    pub firehose_collection_start: Datetime,
    /// Number of default Bluesky-operated PDSes.
    pub(crate) default_pds_count: usize,
}

impl ScenarioConfig {
    /// The configuration used by tests: small and fast.
    pub fn test_scale(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            scale: 20_000,
            ..ScenarioConfig::default()
        }
    }

    /// The configuration used by the repro harness (≈2,700 users).
    pub fn repro_scale(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            scale: 2_000,
            ..ScenarioConfig::default()
        }
    }

    /// Target number of users at this scale.
    pub fn target_users(&self) -> u64 {
        (paper::TOTAL_USERS / self.scale).max(40)
    }

    /// Scale a full-network quantity down to this scenario.
    pub(crate) fn scaled(&self, full_network_value: u64) -> u64 {
        (full_network_value / self.scale).max(1)
    }

    /// Number of simulated days.
    pub fn total_days(&self) -> i64 {
        self.end.days_since(self.start)
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            scale: 2_000,
            start: Datetime::from_ymd(2022, 11, 17).expect("valid date"),
            end: Datetime::from_ymd(2024, 5, 1).expect("valid date"),
            firehose_collection_start: Datetime::from_ymd(2024, 3, 6).expect("valid date"),
            default_pds_count: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_cover_study_period_without_gaps() {
        let config = ScenarioConfig::default();
        let mut day = config.start;
        while day < config.end {
            let date = day.date();
            let covered = GROWTH_EPOCHS.iter().any(|e| {
                let start = Datetime::from_ymd(e.start.0, e.start.1, e.start.2).unwrap();
                let end = Datetime::from_ymd(e.end.0, e.end.1, e.end.2).unwrap();
                day >= start && day < end
            });
            assert!(covered, "day {date} not covered by any epoch");
            day = day.plus_days(1);
        }
    }

    #[test]
    fn epochs_are_ordered_and_contiguous() {
        for pair in GROWTH_EPOCHS.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "epochs must be contiguous");
        }
    }

    #[test]
    fn language_shares_sum_to_one() {
        let total: f64 = LANGUAGE_SHARES.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(LANGUAGE_SHARES[0].0, "en");
    }

    #[test]
    fn scaling_helpers() {
        let config = ScenarioConfig::test_scale(7);
        assert_eq!(config.seed, 7);
        assert!(config.target_users() >= 200);
        assert!(config.target_users() < 1_000);
        assert_eq!(config.scaled(paper::TOTAL_USERS), config.target_users());
        assert!(config.total_days() > 500);
        let repro = ScenarioConfig::repro_scale(1);
        assert!(repro.target_users() > config.target_users());
    }

    #[test]
    fn signup_fractions_produce_roughly_the_target_population() {
        // Summing signups over all epochs should land within a factor ~2 of
        // the target population (the workload generator normalises exactly;
        // this checks the calibration is sane).
        let config = ScenarioConfig::default();
        let mut total_fraction = 0.0;
        for epoch in GROWTH_EPOCHS {
            let start = Datetime::from_ymd(epoch.start.0, epoch.start.1, epoch.start.2).unwrap();
            let end = Datetime::from_ymd(epoch.end.0, epoch.end.1, epoch.end.2).unwrap();
            total_fraction += epoch.daily_signup_fraction * end.days_since(start) as f64;
        }
        assert!(
            (0.5..2.0).contains(&total_fraction),
            "signup fractions integrate to {total_fraction}"
        );
        let _ = config;
    }
}
