//! The synthetic user population.
//!
//! Each user is drawn with the attributes the study's analyses depend on:
//! language community (§4), handle choice — custodial `bsky.social`
//! subdomain, dedicated subdomain provider, or self-managed domain — with its
//! registrar and ownership-proof mechanism (§5), activity level (Zipf-like),
//! media/alt-text behaviour (the raw material for §6's labels), and whether
//! the account also uses third-party lexicons such as WhiteWind (§4).

use crate::config::{ScenarioConfig, GROWTH_EPOCHS, LANGUAGE_SHARES};
use bsky_atproto::{AtUri, Datetime, Did, Handle, Nsid};
use bsky_simnet::SimRng;

/// How the user chose their handle (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HandleChoice {
    /// Custodial `<name>.bsky.social` subdomain managed by Bluesky PBC.
    BskySocial,
    /// A subdomain under a dedicated third-party provider
    /// (`swifties.social`, `tired.io`, `vibes.cool`, `github.io`, ...).
    ProviderSubdomain {
        /// The provider's registered domain.
        provider: String,
    },
    /// A self-managed registered domain.
    SelfManaged {
        /// The registered domain.
        domain: String,
        /// Index into the registrar catalogue, or `None` when WHOIS data is
        /// unavailable for this domain. Informational: the world derives
        /// the authoritative WHOIS record from the *domain* (see
        /// `world::whois_registrar_for`) so shared domains resolve
        /// identically on every shard.
        registrar_index: Option<usize>,
        /// Whether the domain appears in the synthetic Tranco top-1M.
        in_tranco_top1m: bool,
    },
}

/// Ownership-proof mechanism for non-custodial handles (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProofChoice {
    /// DNS TXT record at `_atproto.<handle>` (98.7 % of custom handles).
    DnsTxt,
    /// `/.well-known/atproto-did` document (1.3 %).
    WellKnown,
}

/// Dedicated subdomain providers observed in Figure 3, with relative weights.
pub(crate) const SUBDOMAIN_PROVIDERS: &[(&str, f64)] = &[
    ("swifties.social", 256.0),
    ("tired.io", 179.0),
    ("vibes.cool", 133.0),
    ("github.io", 35.0),
    ("skyna.me", 90.0),
    ("bsky.cafe", 60.0),
    ("deer.social", 45.0),
    ("fediverse.observer", 25.0),
];

/// A member of the synthetic population.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Stable per-run index.
    pub(crate) index: usize,
    /// The user's DID (`did:plc` for all but a handful of `did:web` users).
    pub did: Did,
    /// The user's handle.
    pub handle: Handle,
    /// How the handle was chosen.
    pub(crate) handle_choice: HandleChoice,
    /// Ownership proof (only meaningful for non-custodial handles).
    pub(crate) proof: ProofChoice,
    /// Primary posting language.
    pub(crate) language: String,
    /// The day the account joined.
    pub(crate) joined: Datetime,
    /// Relative activity weight (Zipf-distributed; rank 1 is the most
    /// active/popular account).
    pub activity_weight: f64,
    /// Probability that a post carries media.
    pub(crate) media_probability: f64,
    /// Probability that attached media is missing alt text.
    pub(crate) missing_alt_probability: f64,
    /// Probability that a post with media is adult content.
    pub(crate) adult_probability: f64,
    /// Whether the user also publishes third-party (WhiteWind) records.
    pub(crate) uses_whitewind: bool,
}

/// Draw a language according to the calibrated shares.
pub(crate) fn draw_language(rng: &mut SimRng) -> String {
    let weights: Vec<f64> = LANGUAGE_SHARES.iter().map(|(_, w)| *w).collect();
    let idx = rng.pick_weighted(&weights).unwrap_or(0);
    LANGUAGE_SHARES[idx].0.to_string()
}

/// Synthesise a username from an index (deterministic, readable, unique).
pub(crate) fn username(index: usize) -> String {
    const ADJECTIVES: &[&str] = &[
        "blue",
        "quiet",
        "rapid",
        "lunar",
        "amber",
        "cosmic",
        "gentle",
        "vivid",
        "silver",
        "wandering",
    ];
    const NOUNS: &[&str] = &[
        "skylark", "otter", "comet", "harbor", "meadow", "pixel", "raven", "willow", "ember",
        "drift",
    ];
    format!(
        "{}{}{}",
        ADJECTIVES[index % ADJECTIVES.len()],
        NOUNS[(index / ADJECTIVES.len()) % NOUNS.len()],
        index
    )
}

/// Synthesise a registered domain for a self-managed handle. A small share
/// are well-known organisation domains (in the Tranco top-1M).
pub(crate) fn self_managed_domain(index: usize, rng: &mut SimRng) -> (String, bool) {
    const FAMOUS: &[&str] = &[
        "nytimes.com",
        "washingtonpost.com",
        "cnn.com",
        "stanford.edu",
        "columbia.edu",
        "microsoft.com",
        "cloudflare.com",
        "amazonaws.com",
        "theguardian.com",
        "bbc.co.uk",
    ];
    // ≈2.8 % of registered domains behind handles are in the top-1M (§5).
    if rng.chance(0.028) {
        ((*rng.pick(FAMOUS)).to_string(), true)
    } else {
        const TLDS: &[&str] = &[
            "com", "net", "org", "io", "dev", "me", "social", "de", "jp", "com.br",
        ];
        let tld = TLDS[index % TLDS.len()];
        (format!("{}.{tld}", username(index)), false)
    }
}

/// Draw a user profile.
pub(crate) fn draw_user(
    index: usize,
    joined: Datetime,
    config: &ScenarioConfig,
    rng: &mut SimRng,
    registrar_count: usize,
) -> UserProfile {
    let language = draw_language(rng);
    let name = username(index);

    // Handle choice: 98.9 % custodial; the remainder split between dedicated
    // subdomain providers and self-managed domains.
    let (handle, handle_choice, did) = if rng.chance(0.989) {
        let handle = Handle::parse(&format!("{name}.bsky.social")).expect("valid handle");
        (
            handle,
            HandleChoice::BskySocial,
            Did::plc_from_seed(name.as_bytes()),
        )
    } else if rng.chance(0.5) {
        let weights: Vec<f64> = SUBDOMAIN_PROVIDERS.iter().map(|(_, w)| *w).collect();
        let provider = SUBDOMAIN_PROVIDERS[rng.pick_weighted(&weights).unwrap_or(0)].0;
        let handle = Handle::parse(&format!("{name}.{provider}")).expect("valid handle");
        (
            handle,
            HandleChoice::ProviderSubdomain {
                provider: provider.to_string(),
            },
            Did::plc_from_seed(name.as_bytes()),
        )
    } else {
        let (domain, in_tranco) = self_managed_domain(index, rng);
        // WHOIS coverage: ~92 % of registered domains have WHOIS data and
        // ~76 % have an IANA ID; domains without either get `None`.
        let registrar_index = if rng.chance(0.83) {
            Some(rng.range(0..registrar_count.max(1)))
        } else {
            None
        };
        let handle = Handle::parse(&domain).expect("valid handle");
        // A handful of identities (6 on the live network) use did:web.
        let did = if index < (config.scaled(6)).max(1) as usize && !in_tranco {
            Did::web(&domain).unwrap_or_else(|_| Did::plc_from_seed(name.as_bytes()))
        } else {
            Did::plc_from_seed(name.as_bytes())
        };
        (
            handle,
            HandleChoice::SelfManaged {
                domain,
                registrar_index,
                in_tranco_top1m: in_tranco,
            },
            did,
        )
    };

    let proof = if rng.chance(0.987) {
        ProofChoice::DnsTxt
    } else {
        ProofChoice::WellKnown
    };

    // Activity weight: Zipf over the population, so a few accounts are very
    // popular/active (the official account, newspapers, ...) and most are
    // quiet.
    let rank = rng.zipf(config.target_users().max(2), 1.05);
    let activity_weight = 1.0 / (rank as f64).powf(0.6);

    // Media behaviour varies by community: the art-heavy communities attach
    // more media; Japanese-language posts attach fewer alt texts on average
    // (these drive the relative label volumes of Table 6).
    let media_probability = match language.as_str() {
        "ja" => 0.38,
        "en" => 0.30,
        _ => 0.25,
    };
    let missing_alt_probability = 0.62;
    let adult_probability = 0.10;

    UserProfile {
        index,
        did,
        handle,
        handle_choice,
        proof,
        language,
        joined,
        activity_weight,
        media_probability,
        missing_alt_probability,
        adult_probability,
        uses_whitewind: rng.chance(0.0005),
    }
}

// ---------------------------------------------------------------------------
// The population plan: the deterministic skeleton of a run
// ---------------------------------------------------------------------------

/// Numbered per-(user, day) random streams. Each purpose gets its own
/// derived generator so any single quantity (the activity coin, the post
/// count, the commit timestamp) can be recomputed in isolation without
/// replaying the rest of the user's day.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DayPurpose {
    /// The daily activity coin.
    Active = 0,
    /// The second-of-day all of the user's commits carry.
    When = 1,
    /// The number of posts published.
    Posts = 2,
    /// Everything else: post contents, like/repost/follow/block targets,
    /// third-party records and identity churn. Consumed sequentially, and
    /// only ever by the user's owning shard.
    Content = 3,
}

/// The deterministic skeleton of a simulated run: every user's profile,
/// signup day and per-day random streams, derived entirely from
/// `(seed, scale)` — never from mutable world state.
///
/// This is the primitive that makes the population shardable. Every shard
/// builds the *same* plan (it is cheap: one profile draw per user), so any
/// shard can answer questions about any user — did `u` join yet, was `u`
/// active on day `d`, how many posts did `u` publish that day, and what are
/// their URIs — without simulating `u`. Cross-user interactions (likes,
/// follows, blocks, feed curation targets) are resolved against the plan
/// instead of against live state, which removes every cross-shard data
/// dependency from the simulation: `union(shard events) == serial events`,
/// bit for bit.
#[derive(Debug, Clone)]
pub struct PopulationPlan {
    start: Datetime,
    total_days: usize,
    /// All profiles, indexed by global user index, `joined` already set.
    profiles: Vec<UserProfile>,
    /// Per-user base RNG, forked from the user's DID.
    user_rngs: Vec<SimRng>,
    /// Per-user FNV-1a hash of the DID (shard assignment).
    did_hashes: Vec<u64>,
    /// Join day index per user.
    join_days: Vec<u32>,
    /// `joined_counts[d]` = number of users with `join_day <= d`.
    joined_counts: Vec<u32>,
    /// Cumulative activity weights in index order (`len == users + 1`).
    weight_cumsum: Vec<f64>,
    /// Daily active fraction from the growth epochs.
    active_fractions: Vec<f64>,
    /// User indices sorted by activity weight (descending, stable).
    popularity_order: Vec<u32>,
}

/// FNV-1a over a DID string; the per-DID shard assignment hash. This is
/// [`Did::shard_hash`], re-exported under the name the plan has always
/// used.
pub(crate) fn did_hash(did: &Did) -> u64 {
    did.shard_hash()
}

impl PopulationPlan {
    /// Build the plan for a scenario. Deterministic in `(seed, scale)`.
    pub fn build(config: &ScenarioConfig) -> PopulationPlan {
        let root = SimRng::new(config.seed);
        let total_days = config.total_days().max(1) as usize;

        // Signup schedule: per-day counts per the growth epochs, normalised
        // to the target population (carry-error accumulation keeps the total
        // exact without rounding drift).
        let mut raw = vec![0f64; total_days];
        let mut active_fractions = vec![0f64; total_days];
        for (day_idx, raw_count) in raw.iter_mut().enumerate() {
            let day = config.start.plus_days(day_idx as i64);
            if let Some(epoch) = GROWTH_EPOCHS.iter().find(|e| {
                let start = Datetime::from_ymd(e.start.0, e.start.1, e.start.2).unwrap();
                let end = Datetime::from_ymd(e.end.0, e.end.1, e.end.2).unwrap();
                day >= start && day < end
            }) {
                *raw_count = epoch.daily_signup_fraction;
                active_fractions[day_idx] = epoch.daily_active_fraction;
            }
        }
        let raw_total: f64 = raw.iter().sum();
        let target = config.target_users() as f64;
        let mut signup_schedule = Vec::with_capacity(total_days);
        let mut carried = 0.0f64;
        for value in &raw {
            let exact = value / raw_total.max(1e-12) * target + carried;
            let whole = exact.floor();
            carried = exact - whole;
            signup_schedule.push(whole as u32);
        }

        // Draw every profile up front. Each user's stream is forked by index
        // so the profile is a pure function of `(seed, index)`.
        let registrar_count = bsky_identity::registrar::default_catalogue().len();
        let mut profiles = Vec::new();
        let mut user_rngs = Vec::new();
        let mut did_hashes = Vec::new();
        let mut join_days = Vec::new();
        let mut joined_counts = vec![0u32; total_days];
        for (day_idx, &count) in signup_schedule.iter().enumerate() {
            let day = config.start.plus_days(day_idx as i64);
            for _ in 0..count {
                let index = profiles.len();
                let mut rng = root.fork(&format!("user-{index}"));
                let profile = draw_user(index, day, config, &mut rng, registrar_count);
                // The per-day streams are derived from the user's DID, so a
                // shard holding this DID regenerates exactly the streams the
                // serial run uses.
                user_rngs.push(root.fork(&profile.did.to_string()));
                did_hashes.push(did_hash(&profile.did));
                join_days.push(day_idx as u32);
                profiles.push(profile);
            }
            joined_counts[day_idx] = profiles.len() as u32;
        }

        let mut weight_cumsum = Vec::with_capacity(profiles.len() + 1);
        weight_cumsum.push(0.0);
        for profile in &profiles {
            weight_cumsum.push(weight_cumsum.last().unwrap() + profile.activity_weight);
        }

        let mut popularity_order: Vec<u32> = (0..profiles.len() as u32).collect();
        popularity_order.sort_by(|a, b| {
            profiles[*b as usize]
                .activity_weight
                .partial_cmp(&profiles[*a as usize].activity_weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });

        PopulationPlan {
            start: config.start,
            total_days,
            profiles,
            user_rngs,
            did_hashes,
            join_days,
            joined_counts,
            weight_cumsum,
            active_fractions,
            popularity_order,
        }
    }

    /// Total planned users.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the plan is empty. No caller: the companion clippy asks of a
    /// public `len`.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile of user `index`.
    pub fn profile(&self, index: usize) -> &UserProfile {
        &self.profiles[index]
    }

    /// The join day index of user `index`.
    pub(crate) fn join_day(&self, index: usize) -> usize {
        self.join_days[index] as usize
    }

    /// Users with `join_day <= day_idx` (they occupy indices `0..count`).
    pub(crate) fn joined_count(&self, day_idx: usize) -> usize {
        if self.joined_counts.is_empty() {
            return 0;
        }
        self.joined_counts[day_idx.min(self.joined_counts.len() - 1)] as usize
    }

    /// Planned signups on a day.
    pub(crate) fn signups_on(&self, day_idx: usize) -> std::ops::Range<usize> {
        let until = self.joined_count(day_idx);
        let from = if day_idx == 0 {
            0
        } else {
            self.joined_count(day_idx - 1)
        };
        from..until
    }

    /// Whether `index` lands on shard `shard` of `shard_count` (by DID hash).
    pub(crate) fn owned_by(&self, index: usize, shard: usize, shard_count: usize) -> bool {
        shard_count <= 1 || (self.did_hashes[index] % shard_count.max(1) as u64) == shard as u64
    }

    /// The per-(user, day, purpose) random stream.
    pub(crate) fn day_rng(&self, index: usize, day_idx: usize, purpose: DayPurpose) -> SimRng {
        self.user_rngs[index].fork_u64((day_idx as u64) << 3 | purpose as u64)
    }

    /// Whether user `index` is active on `day_idx`. Each user flips an
    /// independent coin whose probability is proportional to their activity
    /// weight, normalised so the expected number of active users matches the
    /// epoch's daily active fraction. Independence is what makes the
    /// decision computable by any shard for any user.
    pub(crate) fn is_active(&self, index: usize, day_idx: usize) -> bool {
        if day_idx >= self.total_days || self.join_day(index) > day_idx {
            return false;
        }
        let joined = self.joined_count(day_idx);
        if joined == 0 {
            return false;
        }
        let total_weight = self.weight_cumsum[joined];
        if total_weight <= 0.0 {
            return false;
        }
        let fraction = self.active_fractions[day_idx];
        let p = fraction * self.profiles[index].activity_weight * joined as f64 / total_weight;
        self.day_rng(index, day_idx, DayPurpose::Active).chance(p)
    }

    /// The second-of-day all of the user's commits carry on `day_idx`.
    pub(crate) fn seconds_of_day(&self, index: usize, day_idx: usize) -> i64 {
        self.day_rng(index, day_idx, DayPurpose::When)
            .range(0..80_000i64)
    }

    /// The commit timestamp of user `index` on `day_idx`.
    pub(crate) fn when(&self, index: usize, day_idx: usize) -> Datetime {
        self.start
            .plus_days(day_idx as i64)
            .plus_seconds(self.seconds_of_day(index, day_idx))
    }

    /// Number of posts user `index` publishes on `day_idx` (0 when
    /// inactive). Any shard can compute this for any user; it is how likes
    /// and reposts target other shards' posts without seeing them.
    pub(crate) fn posts_on(&self, index: usize, day_idx: usize) -> u64 {
        if !self.is_active(index, day_idx) {
            return 0;
        }
        let weight = self.profiles[index].activity_weight;
        self.day_rng(index, day_idx, DayPurpose::Posts)
            .poisson(1.8_f64.min(4.0 * weight + 0.9))
    }

    /// The record key of the `slot`-th post of a user-day.
    pub(crate) fn post_rkey(day_idx: usize, slot: u64) -> String {
        Self::day_rkey('p', day_idx, slot, 2)
    }

    /// `format!("{prefix}{day_idx:05}s{n:0width$}")`, the scheme of every
    /// generated record key, written digit by digit: one exact-size
    /// allocation per key and no formatter on the per-record path.
    pub(crate) fn day_rkey(prefix: char, day_idx: usize, n: u64, width: usize) -> String {
        fn push_padded(out: &mut String, value: u64, width: usize) {
            let mut digits = [b'0'; 20];
            let mut at = digits.len();
            let mut rest = value;
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            let at = at.min(digits.len() - width.min(digits.len()));
            out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        }
        let mut key = String::with_capacity(prefix.len_utf8() + 5 + 1 + width);
        key.push(prefix);
        push_padded(&mut key, day_idx as u64, 5);
        key.push('s');
        push_padded(&mut key, n, width);
        key
    }

    /// The `at://` URI of the `slot`-th post of user `index` on `day_idx`.
    pub(crate) fn post_uri(&self, index: usize, day_idx: usize, slot: u64) -> AtUri {
        AtUri::record(
            self.profiles[index].did.clone(),
            Nsid::POST,
            Self::post_rkey(day_idx, slot),
        )
    }

    /// Weighted pick (by activity weight) among the users joined by
    /// `day_idx`, using the caller's stream. `None` when nobody joined yet.
    pub(crate) fn pick_joined_weighted(&self, day_idx: usize, rng: &mut SimRng) -> Option<usize> {
        let joined = self.joined_count(day_idx);
        if joined == 0 {
            return None;
        }
        let total = self.weight_cumsum[joined];
        if total <= 0.0 {
            return None;
        }
        let target = rng.unit() * total;
        let idx = self.weight_cumsum[..=joined].partition_point(|&c| c <= target);
        Some((idx - 1).min(joined - 1))
    }

    /// The user holding popularity rank `rank` (1 = most popular) among the
    /// users joined by `day_idx`.
    pub(crate) fn creator_for_rank(&self, rank: u64, day_idx: usize) -> Option<usize> {
        let joined = self.joined_count(day_idx);
        if joined == 0 {
            return None;
        }
        let rank = (rank.max(1) as usize).min(joined);
        self.popularity_order
            .iter()
            .filter(|&&i| (i as usize) < joined)
            .nth(rank - 1)
            .map(|&i| i as usize)
    }

    /// Pick a recently published post anywhere in the network: draw a
    /// weighted author among the joined users, a day within the last three,
    /// and one of the author's post slots — all against the plan, so the
    /// pick never needs the author's shard. `None` when no attempt found a
    /// published post.
    pub(crate) fn pick_recent_post(&self, today_idx: usize, rng: &mut SimRng) -> Option<AtUri> {
        for _ in 0..6 {
            let back = rng.range(0..3i64);
            let Some(day_idx) = today_idx.checked_sub(back as usize) else {
                continue;
            };
            let Some(author) = self.pick_joined_weighted(day_idx, rng) else {
                continue;
            };
            let posts = self.posts_on(author, day_idx);
            if posts == 0 {
                continue;
            }
            let slot = rng.range(0..posts);
            return Some(self.post_uri(author, day_idx, slot));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_rkeys_match_the_formatter() {
        // Padding, and values wider than their padding.
        for day_idx in [0, 7, 530, 99_999, 100_000, 12_345_678] {
            for n in [0, 1, 9, 10, 99, 100, 999, 1_000, u64::MAX] {
                assert_eq!(
                    PopulationPlan::day_rkey('r', day_idx, n, 3),
                    format!("r{day_idx:05}s{n:03}")
                );
                assert_eq!(
                    PopulationPlan::day_rkey('f', day_idx, n, 2),
                    format!("f{day_idx:05}s{n:02}")
                );
                assert_eq!(
                    PopulationPlan::post_rkey(day_idx, n),
                    format!("p{day_idx:05}s{n:02}")
                );
            }
        }
    }

    fn draw_many(n: usize) -> Vec<UserProfile> {
        let config = ScenarioConfig::test_scale(3);
        let mut rng = SimRng::new(3).fork("population");
        let joined = Datetime::from_ymd(2023, 7, 1).unwrap();
        (0..n)
            .map(|i| draw_user(i, joined, &config, &mut rng, 249))
            .collect()
    }

    #[test]
    fn usernames_and_dids_are_unique() {
        let users = draw_many(2_000);
        let mut handles: Vec<&str> = users.iter().map(|u| u.handle.as_str()).collect();
        handles.sort();
        let before = handles.len();
        handles.dedup();
        // Handles are unique except famous self-managed domains, which can
        // repeat (several staff accounts under one newsroom domain).
        assert!(before - handles.len() < 20);
        let mut dids: Vec<String> = users.iter().map(|u| u.did.to_string()).collect();
        dids.sort();
        dids.dedup();
        assert!(dids.len() >= before - 20);
    }

    #[test]
    fn handle_concentration_matches_calibration() {
        let users = draw_many(5_000);
        let custodial = users
            .iter()
            .filter(|u| matches!(u.handle_choice, HandleChoice::BskySocial))
            .count();
        let share = custodial as f64 / users.len() as f64;
        assert!((0.975..0.998).contains(&share), "bsky.social share {share}");
        // Some users chose provider subdomains and some self-managed domains.
        assert!(users
            .iter()
            .any(|u| matches!(u.handle_choice, HandleChoice::ProviderSubdomain { .. })));
        assert!(users
            .iter()
            .any(|u| matches!(u.handle_choice, HandleChoice::SelfManaged { .. })));
    }

    #[test]
    fn proof_mechanism_split() {
        let users = draw_many(5_000);
        let txt = users
            .iter()
            .filter(|u| u.proof == ProofChoice::DnsTxt)
            .count();
        let share = txt as f64 / users.len() as f64;
        assert!(share > 0.96, "DNS TXT share {share}");
    }

    #[test]
    fn language_distribution_roughly_matches() {
        let users = draw_many(8_000);
        let en = users.iter().filter(|u| u.language == "en").count() as f64 / users.len() as f64;
        let ja = users.iter().filter(|u| u.language == "ja").count() as f64 / users.len() as f64;
        let pt = users.iter().filter(|u| u.language == "pt").count() as f64 / users.len() as f64;
        assert!((0.33..0.47).contains(&en), "en share {en}");
        assert!((0.28..0.42).contains(&ja), "ja share {ja}");
        assert!((0.06..0.15).contains(&pt), "pt share {pt}");
        assert!(en > ja, "English remains the largest community");
    }

    #[test]
    fn activity_weights_are_heavy_tailed() {
        let users = draw_many(5_000);
        let mut weights: Vec<f64> = users.iter().map(|u| u.activity_weight).collect();
        weights.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top_decile: f64 = weights[..500].iter().sum();
        let total: f64 = weights.iter().sum();
        assert!(
            top_decile / total > 0.25,
            "top decile share {}",
            top_decile / total
        );
        assert!(weights.iter().all(|w| *w > 0.0 && *w <= 1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = draw_many(100);
        let b = draw_many(100);
        assert_eq!(a, b);
    }

    #[test]
    fn some_users_are_whitewind_authors_at_large_n() {
        let users = draw_many(10_000);
        let ww = users.iter().filter(|u| u.uses_whitewind).count();
        assert!(ww >= 1, "expected at least one WhiteWind user");
        assert!(ww < 30, "WhiteWind adoption must stay marginal, got {ww}");
    }
}
