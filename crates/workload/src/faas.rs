//! Feed-Generator-as-a-Service platforms.
//!
//! §7.2 and Table 5 compare the five platforms hosting the vast majority of
//! Feed Generators: Skyfeed (85.86 % of feeds), Bluefeed, Blueskyfeeds,
//! Goodfeeds and Blueskyfeedcreator. Each exposes a different subset of
//! inputs and filters; Skyfeed is the only one with regex support. This
//! module models the platforms and their feature matrices.

/// The input features a platform supports (Table 5, upper half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct InputFeatures {
    /// Whole-network input.
    pub(crate) whole_network: bool,
    /// Hashtag input.
    pub(crate) tags: bool,
    /// Single-user input.
    pub(crate) single_user: bool,
    /// User-list input.
    pub(crate) list: bool,
    /// Another feed as input.
    pub(crate) feed: bool,
    /// A single post as input.
    pub(crate) single_post: bool,
    /// Labels as input.
    pub(crate) labels: bool,
}

/// The filter features a platform supports (Table 5, lower half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterFeatures {
    /// Label filters.
    pub(crate) labels: bool,
    /// Image-count filters.
    pub(crate) image_count: bool,
    /// Link-count filters.
    pub(crate) link_count: bool,
    /// Repost-count filters.
    pub(crate) repost_count: bool,
    /// Duplicate suppression.
    pub(crate) duplicate: bool,
    /// List-of-users filters.
    pub(crate) list_of_users: bool,
    /// Language filters.
    pub(crate) language: bool,
    /// Regex over post text.
    pub regex_text: bool,
    /// Regex over image alt text.
    pub(crate) regex_alt: bool,
    /// Regex over links.
    pub(crate) regex_link: bool,
}

/// Pricing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Free to use.
    Free,
    /// Free tier plus paid options.
    FreeAndPaid,
}

/// A Feed-Generator-as-a-Service platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaasPlatform {
    /// Platform name as used in Table 5 / Figure 12.
    pub name: String,
    /// Hostname of the service (feeds hosted here share this service DID).
    pub(crate) hostname: String,
    /// Supported inputs.
    pub(crate) inputs: InputFeatures,
    /// Supported filters.
    pub filters: FilterFeatures,
    /// Pricing model.
    pub pricing: Pricing,
}

impl FaasPlatform {
    /// Count of supported features (a rough proxy for Table 5's
    /// comprehensiveness comparison).
    pub fn feature_count(&self) -> usize {
        let i = &self.inputs;
        let f = &self.filters;
        [
            i.whole_network,
            i.tags,
            i.single_user,
            i.list,
            i.feed,
            i.single_post,
            i.labels,
            f.labels,
            f.image_count,
            f.link_count,
            f.repost_count,
            f.duplicate,
            f.list_of_users,
            f.language,
            f.regex_text,
            f.regex_alt,
            f.regex_link,
        ]
        .iter()
        .filter(|b| **b)
        .count()
    }
}

/// The five platforms of Table 5, with their observed feature matrices.
pub fn default_platforms() -> Vec<FaasPlatform> {
    vec![
        FaasPlatform {
            name: "Skyfeed".into(),
            hostname: "skyfeed.app".into(),
            inputs: InputFeatures {
                whole_network: true,
                tags: true,
                single_user: true,
                list: true,
                feed: true,
                single_post: true,
                labels: true,
                // Token/segment inputs folded into the above.
            },
            filters: FilterFeatures {
                labels: true,
                image_count: true,
                link_count: true,
                repost_count: true,
                duplicate: true,
                list_of_users: true,
                language: true,
                regex_text: true,
                regex_alt: true,
                regex_link: true,
            },
            pricing: Pricing::Free,
        },
        FaasPlatform {
            name: "Bluefeed".into(),
            hostname: "bluefeed.app".into(),
            inputs: InputFeatures {
                whole_network: true,
                tags: true,
                single_user: true,
                list: true,
                feed: true,
                single_post: true,
                labels: true,
            },
            filters: FilterFeatures {
                labels: true,
                list_of_users: true,
                language: true,
                duplicate: false,
                ..Default::default()
            },
            pricing: Pricing::Free,
        },
        FaasPlatform {
            name: "Blueskyfeeds".into(),
            hostname: "blueskyfeeds.com".into(),
            inputs: InputFeatures {
                whole_network: true,
                tags: true,
                single_user: true,
                list: true,
                ..Default::default()
            },
            filters: FilterFeatures {
                labels: true,
                list_of_users: true,
                language: true,
                ..Default::default()
            },
            pricing: Pricing::Free,
        },
        FaasPlatform {
            name: "Goodfeeds".into(),
            hostname: "goodfeeds.co".into(),
            inputs: InputFeatures {
                whole_network: true,
                tags: true,
                single_user: true,
                list: true,
                single_post: true,
                ..Default::default()
            },
            filters: FilterFeatures {
                labels: true,
                ..Default::default()
            },
            pricing: Pricing::Free,
        },
        FaasPlatform {
            name: "Blueskyfeedcreator".into(),
            hostname: "blueskyfeedcreator.com".into(),
            inputs: InputFeatures {
                single_user: true,
                single_post: true,
                ..Default::default()
            },
            filters: FilterFeatures {
                image_count: true,
                link_count: true,
                repost_count: true,
                list_of_users: true,
                language: true,
                duplicate: true,
                ..Default::default()
            },
            pricing: Pricing::FreeAndPaid,
        },
    ]
}

/// The share of feeds each platform hosts in the live network (Figure 12 /
/// Table 5's "Number of Feeds" row, normalised). Used by the workload
/// generator to assign synthetic feeds to platforms. The remainder is
/// self-hosted.
pub(crate) fn observed_feed_shares() -> Vec<(&'static str, f64)> {
    vec![
        ("Skyfeed", 0.8586),
        ("Bluefeed", 0.0558),
        ("Blueskyfeeds", 0.0436),
        ("Goodfeeds", 0.0225),
        ("Blueskyfeedcreator", 0.0038),
        ("self-hosted", 0.0157),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_platforms_with_skyfeed_most_capable() {
        let platforms = default_platforms();
        assert_eq!(platforms.len(), 5);
        let skyfeed = &platforms[0];
        assert_eq!(skyfeed.name, "Skyfeed");
        for other in &platforms[1..] {
            assert!(
                skyfeed.feature_count() > other.feature_count(),
                "Skyfeed must dominate {}",
                other.name
            );
        }
        // Only Skyfeed supports regex (Table 5).
        let regex_capable: Vec<&str> = platforms
            .iter()
            .filter(|p| p.filters.regex_text)
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(regex_capable, vec!["Skyfeed"]);
        // Only Blueskyfeedcreator has paid options.
        let paid: Vec<&str> = platforms
            .iter()
            .filter(|p| p.pricing == Pricing::FreeAndPaid)
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(paid, vec!["Blueskyfeedcreator"]);
    }

    #[test]
    fn feed_shares_sum_to_one() {
        let shares = observed_feed_shares();
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        assert_eq!(shares[0].0, "Skyfeed");
        assert!(shares[0].1 > 0.8);
    }
}
