//! Deterministic fault injection: the [`FaultPlan`] and the client-side
//! [`RetryPolicy`].
//!
//! Two invariants govern everything in this module:
//!
//! * **Determinism by derivation.** Every injected failure is a pure
//!   function of `(seed, key, day)` — exactly like the population plan.
//!   Each decision draws from a dedicated fork rooted at
//!   `SimRng::new(seed).fork("faults")`, so fault injection consumes *zero*
//!   randomness from the content/churn streams: a quiet plan leaves a run
//!   byte-identical to one with no fault machinery at all, and a faulted
//!   run is byte-identical serial vs. sharded because every predicate can
//!   be re-derived independently on any shard that owns the key.
//! * **Never silent.** Every retry, timeout, fallback-to-full-fetch and
//!   permanent give-up that a fault provokes is surfaced as a named
//!   counter (`StreamSummary` on the collector side, [`FaultCounters`] on
//!   the workload side). A scenario that completes with zero recovery-path
//!   counters is a bug, and the golden tests pin that.
//!
//! The plan covers the scenario pack end to end: a PDS host outage with
//! mass re-homing (the day a fleet host dies its accounts migrate and the
//! mirror backfills them with full fetches), flaky/timed-out
//! `getRepo`/`getRepoSince` responses, DNS SERVFAILs on the identity path,
//! firehose cursor gaps and rewinds, spam/bot posting waves, label storms,
//! and tombstone storms. Host outages last one day: the host "revives"
//! afterwards and later plan-derived signups may land on it again, which
//! keeps signup placement a pure function of the population plan.

use crate::rng::SimRng;
use std::collections::BTreeMap;

/// Cap on consecutive injected failures for one `(key, day)` request
/// sequence. Keeps give-up decisions stable for any policy with
/// `max_attempts` above the cap: such a policy never gives up, so its
/// runs fetch exactly what a clean run fetches.
pub(crate) const MAX_INJECTED_FAILURES: u32 = 6;

/// How many days back a label storm reaches when flagging posts.
pub const LABEL_STORM_LOOKBACK_DAYS: usize = 14;

/// Which faults are active and how strongly. `Default` is quiet (no
/// faults); scenario presets are available via [`FaultSpec::scenario`] and
/// ad-hoc specs parse from `key=value` lists via [`FaultSpec::parse_onto`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Day (as a fraction of the run, `0.0..=1.0`) a default-fleet PDS
    /// host dies and its accounts mass-migrate. `None` = no outage.
    pub outage_day: Option<f64>,
    /// Index into the default-fleet host list of the host that dies.
    pub outage_host: usize,
    /// Probability that a `(DID, day)` repo fetch sequence is flaky.
    pub flaky_fetch: f64,
    /// Probability that a `(handle, day)` DNS resolution SERVFAILs.
    pub dns_flap: f64,
    /// Probability that a `(DID, day)` commit falls into a cursor gap.
    pub cursor_gap: f64,
    /// Probability that a day ends with a firehose cursor rewind (the
    /// consumer re-reads the day's events).
    pub cursor_rewind: f64,
    /// Fraction of accounts conscripted into the spam/bot wave.
    pub spam_fraction: f64,
    /// Extra spam posts each conscripted account adds per active day.
    pub spam_rate: u32,
    /// Day (fraction of the run) a labeler flags a storm of posts.
    pub label_storm_day: Option<f64>,
    /// Per-post flag probability on the storm day.
    pub label_storm_prob: f64,
    /// Day (fraction of the run) of the account-deletion storm.
    pub tombstone_day: Option<f64>,
    /// Per-account deletion probability on the storm day.
    pub tombstone_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            outage_day: None,
            outage_host: 0,
            flaky_fetch: 0.0,
            dns_flap: 0.0,
            cursor_gap: 0.0,
            cursor_rewind: 0.0,
            spam_fraction: 0.0,
            spam_rate: 0,
            label_storm_day: None,
            label_storm_prob: 0.0,
            tombstone_day: None,
            tombstone_prob: 0.0,
        }
    }
}

/// Names accepted by [`FaultSpec::scenario`], for CLI help and errors.
pub const SCENARIO_NAMES: &[&str] = &[
    "pds-migration",
    "flaky-fetch",
    "dns-flap",
    "cursor-gap",
    "spam-wave",
    "label-storm",
    "tombstone-storm",
];

impl FaultSpec {
    /// A named scenario preset, or `None` for an unknown name.
    pub fn scenario(name: &str) -> Option<FaultSpec> {
        let mut spec = FaultSpec::default();
        match name {
            "pds-migration" => {
                spec.outage_day = Some(0.5);
                spec.outage_host = 0;
            }
            "flaky-fetch" => spec.flaky_fetch = 0.3,
            "dns-flap" => spec.dns_flap = 0.3,
            "cursor-gap" => {
                spec.cursor_gap = 0.05;
                spec.cursor_rewind = 0.25;
            }
            "spam-wave" => {
                spec.spam_fraction = 0.05;
                spec.spam_rate = 25;
            }
            "label-storm" => {
                spec.label_storm_day = Some(0.6);
                spec.label_storm_prob = 0.5;
            }
            "tombstone-storm" => {
                spec.tombstone_day = Some(0.75);
                spec.tombstone_prob = 0.02;
            }
            _ => return None,
        }
        Some(spec)
    }

    /// Parse an ad-hoc `key=value,key=value` spec *on top of* a base spec
    /// — the path behind `--scenario X --faults Y`: the scenario preset
    /// (or the quiet default) is the base and each spec key overrides it,
    /// leaving the base's other knobs intact. Keys: `outage` /
    /// `outage-host`, `flaky`, `dns`, `gap`, `rewind`, `spam` /
    /// `spam-rate`, `label-storm` / `label-prob`, `tombstone` /
    /// `tombstone-prob`. Day keys take run fractions in `0..=1`;
    /// probability keys take `0..=1`; count keys take non-negative
    /// integers. Unknown keys and out-of-range values are errors. A key
    /// given twice with *different* values is contradictory and errors; an
    /// identical repeat is harmless.
    pub fn parse_onto(base: FaultSpec, input: &str) -> Result<FaultSpec, String> {
        let mut spec = base;
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        for part in input.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            if let Some(prev) = seen.insert(key, value) {
                if prev != value {
                    return Err(format!(
                        "contradictory fault spec: '{key}' given as both '{prev}' and '{value}'"
                    ));
                }
                continue;
            }
            let fraction = || -> Result<f64, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("fault spec '{key}' value '{value}' is not a number"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("fault spec '{key}' value {value} not in 0..=1"));
                }
                Ok(v)
            };
            let count = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("fault spec '{key}' value '{value}' is not an integer"))
            };
            match key {
                "outage" => spec.outage_day = Some(fraction()?),
                "outage-host" => spec.outage_host = count()? as usize,
                "flaky" => spec.flaky_fetch = fraction()?,
                "dns" => spec.dns_flap = fraction()?,
                "gap" => spec.cursor_gap = fraction()?,
                "rewind" => spec.cursor_rewind = fraction()?,
                "spam" => {
                    spec.spam_fraction = fraction()?;
                    if spec.spam_rate == 0 {
                        spec.spam_rate = 10;
                    }
                }
                "spam-rate" => spec.spam_rate = count()? as u32,
                "label-storm" => {
                    spec.label_storm_day = Some(fraction()?);
                    if spec.label_storm_prob == 0.0 {
                        spec.label_storm_prob = 0.5;
                    }
                }
                "label-prob" => spec.label_storm_prob = fraction()?,
                "tombstone" => {
                    spec.tombstone_day = Some(fraction()?);
                    if spec.tombstone_prob == 0.0 {
                        spec.tombstone_prob = 0.02;
                    }
                }
                "tombstone-prob" => spec.tombstone_prob = fraction()?,
                _ => return Err(format!("unknown fault spec key '{key}'")),
            }
        }
        Ok(spec)
    }

    /// True when no fault kind is enabled.
    pub fn is_quiet(&self) -> bool {
        self.outage_day.is_none()
            && self.flaky_fetch == 0.0
            && self.dns_flap == 0.0
            && self.cursor_gap == 0.0
            && self.cursor_rewind == 0.0
            && (self.spam_fraction == 0.0 || self.spam_rate == 0)
            && self.label_storm_day.is_none()
            && self.tombstone_day.is_none()
    }
}

/// The resolved fault schedule for one run: the spec plus every
/// fraction-of-run day pinned to a concrete day index. All predicates are
/// pure functions of `(seed, key, day)`; see the module docs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    outage_day: Option<usize>,
    label_storm_day: Option<usize>,
    tombstone_day: Option<usize>,
}

impl FaultPlan {
    /// Resolve a spec against a run of `total_days` days seeded `seed`.
    pub fn build(seed: u64, total_days: usize, spec: FaultSpec) -> FaultPlan {
        let pin = |fraction: Option<f64>| -> Option<usize> {
            let f = fraction?;
            if total_days == 0 {
                return None;
            }
            let day = (f * total_days as f64).floor() as usize;
            Some(day.min(total_days - 1))
        };
        FaultPlan {
            seed,
            outage_day: pin(spec.outage_day),
            label_storm_day: pin(spec.label_storm_day),
            tombstone_day: pin(spec.tombstone_day),
            spec,
        }
    }

    /// A plan that injects nothing. Runs built with it are byte-identical
    /// to runs with no fault machinery at all.
    pub fn quiet() -> FaultPlan {
        FaultPlan::build(0, 0, FaultSpec::default())
    }

    /// True when this plan injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.spec.is_quiet()
    }

    /// The dedicated fork for one `(kind, key, day)` decision.
    fn fork(&self, kind: &str, key: &str, day: u64) -> SimRng {
        SimRng::new(self.seed)
            .fork("faults")
            .fork(kind)
            .fork(key)
            .fork_u64(day)
    }

    /// The outage event, if any: `(day index, default-host index)`.
    pub fn outage(&self) -> Option<(usize, usize)> {
        self.outage_day.map(|day| (day, self.spec.outage_host))
    }

    /// Deterministic re-home draw for a DID displaced by the outage. The
    /// caller maps it onto the list of surviving hosts.
    pub fn rehome_slot(&self, did: &str) -> u64 {
        self.fork("rehome", did, 0).next_u64()
    }

    /// How many consecutive injected failures the `(key, day)` request
    /// sequence of operation class `op` suffers before it would succeed.
    /// `0` for most sequences; geometric tail capped at
    /// `MAX_INJECTED_FAILURES`. Distinct `op` labels (e.g. delta vs.
    /// full fetch) draw independently.
    pub fn fetch_failures(&self, op: &str, key: &str, day: u64) -> u32 {
        if self.spec.flaky_fetch <= 0.0 {
            return 0;
        }
        let mut rng = self.fork("flaky", key, day).fork(op);
        if !rng.chance(self.spec.flaky_fetch) {
            return 0;
        }
        let mut failures = 1;
        while failures < MAX_INJECTED_FAILURES && rng.chance(0.4) {
            failures += 1;
        }
        failures
    }

    /// How many consecutive SERVFAILs a `(handle, day)` DNS resolution
    /// suffers before it would succeed.
    pub fn dns_failures(&self, handle: &str, day: u64) -> u32 {
        if self.spec.dns_flap <= 0.0 {
            return 0;
        }
        let mut rng = self.fork("dns-flap", handle, day);
        if !rng.chance(self.spec.dns_flap) {
            return 0;
        }
        let mut failures = 1;
        while failures < MAX_INJECTED_FAILURES && rng.chance(0.4) {
            failures += 1;
        }
        failures
    }

    /// The fork retries for one `(op, key, day)` sequence draw backoff
    /// jitter from. Separate from the failure draw so policy changes never
    /// shift which requests fail.
    pub fn retry_rng(&self, op: &str, key: &str, day: u64) -> SimRng {
        self.fork("retry", key, day).fork(op)
    }

    /// Whether the `(DID, day)` commit stream falls into a cursor gap (the
    /// slow consumer misses that producer's commits for the day).
    pub fn drops_commit(&self, did: &str, day: u64) -> bool {
        self.spec.cursor_gap > 0.0 && self.fork("gap", did, day).chance(self.spec.cursor_gap)
    }

    /// Whether the consumer's cursor rewinds at the end of `day` (it
    /// re-reads the day's events from the day-start cursor).
    pub fn rewinds_cursor(&self, day: u64) -> bool {
        self.spec.cursor_rewind > 0.0
            && self.fork("rewind", "", day).chance(self.spec.cursor_rewind)
    }

    /// Extra spam posts the account writes on `day_idx` (0 unless the DID
    /// is conscripted into the wave).
    pub fn spam_posts(&self, did: &str, day_idx: usize) -> u32 {
        if self.spec.spam_fraction <= 0.0 || self.spec.spam_rate == 0 {
            return 0;
        }
        if !self
            .fork("spam-conscript", did, 0)
            .chance(self.spec.spam_fraction)
        {
            return 0;
        }
        let mut rng = self.fork("spam-volume", did, day_idx as u64);
        let jitter = rng.range(0..(u64::from(self.spec.spam_rate) / 2 + 1)) as u32;
        self.spec.spam_rate + jitter
    }

    /// The label-storm day index, if any.
    pub fn label_storm_day(&self) -> Option<usize> {
        self.label_storm_day
    }

    /// Whether the storm flags this post URI.
    pub fn storm_label(&self, uri: &str) -> bool {
        self.spec.label_storm_prob > 0.0
            && self
                .fork("label-storm", uri, 0)
                .chance(self.spec.label_storm_prob)
    }

    /// The tombstone-storm day index, if any.
    pub fn tombstone_day(&self) -> Option<usize> {
        self.tombstone_day
    }

    /// Whether the storm deletes this account.
    pub fn storm_tombstone(&self, did: &str) -> bool {
        self.spec.tombstone_prob > 0.0
            && self
                .fork("tombstone", did, 0)
                .chance(self.spec.tombstone_prob)
    }
}

/// Per-request timeout classes: each class carries its own bounded-retry
/// policy defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutClass {
    /// Full `getRepo` CAR fetch.
    RepoFetch,
    /// Incremental `getRepoSince` delta fetch.
    DeltaFetch,
    /// `_atproto.` TXT resolution on the identity path.
    DnsLookup,
}

/// Bounded retries with deterministic exponential backoff under the
/// simulated clock. `max_attempts` counts the first try: a request that
/// fails `max_attempts` times is a permanent give-up, which callers must
/// surface as a named counter (never silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in simulated milliseconds.
    pub max_delay_ms: u64,
    /// Per-attempt timeout charged for each failed attempt.
    pub timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::for_class(TimeoutClass::RepoFetch)
    }
}

impl RetryPolicy {
    /// The default policy for a timeout class.
    pub fn for_class(class: TimeoutClass) -> RetryPolicy {
        match class {
            TimeoutClass::RepoFetch => RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 500,
                max_delay_ms: 8_000,
                timeout_ms: 30_000,
            },
            TimeoutClass::DeltaFetch => RetryPolicy {
                max_attempts: 3,
                base_delay_ms: 250,
                max_delay_ms: 4_000,
                timeout_ms: 10_000,
            },
            TimeoutClass::DnsLookup => RetryPolicy {
                max_attempts: 5,
                base_delay_ms: 100,
                max_delay_ms: 2_000,
                timeout_ms: 5_000,
            },
        }
    }

    /// Backoff before 0-based retry `retry`: exponential in the base
    /// delay, capped at the ceiling, with ±25% jitter drawn from the
    /// caller's dedicated fork.
    pub(crate) fn backoff_ms(&self, retry: u32, rng: &mut SimRng) -> u64 {
        let exp = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.min(20))
            .min(self.max_delay_ms);
        let jitter = exp / 4;
        if jitter == 0 {
            exp
        } else {
            exp - jitter + rng.range(0..(2 * jitter))
        }
    }

    /// Resolve a request sequence that would fail `failures` consecutive
    /// times: how many retries run, the total simulated wait (timeouts +
    /// backoff), and whether the sequence is a permanent give-up. When it
    /// gives up the caller must not issue the real request at all, so
    /// fetched-byte accounting can never double-count.
    pub fn outcome(&self, failures: u32, rng: &mut SimRng) -> RetryOutcome {
        let gave_up = failures >= self.max_attempts;
        let retries = if gave_up {
            self.max_attempts.saturating_sub(1)
        } else {
            failures
        };
        let mut backoff_ms = 0u64;
        for retry in 0..retries {
            backoff_ms += self.timeout_ms + self.backoff_ms(retry, rng);
        }
        if gave_up {
            // The final attempt also times out before the give-up.
            backoff_ms += self.timeout_ms;
        }
        RetryOutcome {
            retries,
            backoff_ms,
            gave_up,
        }
    }
}

/// The resolved result of one retried request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Retries actually issued (beyond the first attempt).
    pub retries: u32,
    /// Total simulated wait: per-attempt timeouts plus backoff.
    pub backoff_ms: u64,
    /// True when every attempt failed and the request was abandoned.
    pub gave_up: bool,
}

/// Workload-side fault accounting, drained by the collector into the run
/// summary so injected faults are never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Accounts re-homed by the PDS host outage.
    pub outage_migrations: u64,
    /// Spam-wave posts injected on top of planned content.
    pub spam_posts_injected: u64,
    /// Posts flagged by the label storm.
    pub storm_labels_applied: u64,
    /// Accounts deleted by the tombstone storm.
    pub storm_tombstones: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec over the quiet default.
    fn parse(input: &str) -> Result<FaultSpec, String> {
        FaultSpec::parse_onto(FaultSpec::default(), input)
    }

    #[test]
    fn default_spec_is_quiet_and_quiet_plan_injects_nothing() {
        let spec = FaultSpec::default();
        assert!(spec.is_quiet());
        let plan = FaultPlan::quiet();
        assert!(plan.is_quiet());
        assert_eq!(plan.outage(), None);
        assert_eq!(plan.label_storm_day(), None);
        assert_eq!(plan.tombstone_day(), None);
        for day in 0..64 {
            assert_eq!(plan.fetch_failures("full", "did:plc:abc", day), 0);
            assert_eq!(plan.dns_failures("alice.bsky.social", day), 0);
            assert!(!plan.drops_commit("did:plc:abc", day));
            assert!(!plan.rewinds_cursor(day));
            assert_eq!(plan.spam_posts("did:plc:abc", day as usize), 0);
        }
        assert!(!plan.storm_label("at://did:plc:abc/app.bsky.feed.post/p1"));
        assert!(!plan.storm_tombstone("did:plc:abc"));
    }

    #[test]
    fn every_scenario_name_resolves_and_is_not_quiet() {
        for name in SCENARIO_NAMES {
            let spec = FaultSpec::scenario(name).expect("known scenario");
            assert!(!spec.is_quiet(), "scenario {name} must enable something");
        }
        assert_eq!(FaultSpec::scenario("no-such-thing"), None);
    }

    #[test]
    fn spec_parse_round_trips_and_validates() {
        let spec = parse("flaky=0.25,dns=0.1,gap=0.05,rewind=0.5").unwrap();
        assert_eq!(spec.flaky_fetch, 0.25);
        assert_eq!(spec.dns_flap, 0.1);
        assert_eq!(spec.cursor_gap, 0.05);
        assert_eq!(spec.cursor_rewind, 0.5);
        let spec = parse("outage=0.5,outage-host=2,spam=0.1,spam-rate=7").unwrap();
        assert_eq!(spec.outage_day, Some(0.5));
        assert_eq!(spec.outage_host, 2);
        assert_eq!(spec.spam_fraction, 0.1);
        assert_eq!(spec.spam_rate, 7);
        let spec = parse("label-storm=0.6,tombstone=0.75").unwrap();
        assert_eq!(spec.label_storm_day, Some(0.6));
        assert!(spec.label_storm_prob > 0.0, "default storm probability");
        assert!(spec.tombstone_prob > 0.0, "default storm probability");
        assert!(parse("").unwrap().is_quiet());
        assert!(parse("bogus=1").is_err());
        assert!(parse("flaky=1.5").is_err());
        assert!(parse("flaky").is_err());
        assert!(parse("flaky=x").is_err());
    }

    #[test]
    fn parse_onto_composes_scenario_presets_with_spec_overrides() {
        // Spec keys override the preset; untouched preset knobs survive.
        let base = FaultSpec::scenario("flaky-fetch").unwrap();
        let spec = FaultSpec::parse_onto(base.clone(), "flaky=0.1,dns=0.2").unwrap();
        assert_eq!(spec.flaky_fetch, 0.1, "spec overrides the preset");
        assert_eq!(spec.dns_flap, 0.2, "spec adds on top of the preset");
        // A preset knob the spec does not mention is kept as-is.
        let base = FaultSpec::scenario("spam-wave").unwrap();
        let spec = FaultSpec::parse_onto(base.clone(), "spam=0.1").unwrap();
        assert_eq!(spec.spam_fraction, 0.1);
        assert_eq!(spec.spam_rate, base.spam_rate, "preset rate survives");
        // An empty spec leaves the preset untouched.
        assert_eq!(FaultSpec::parse_onto(base.clone(), "").unwrap(), base);
        // Contradictory keys (same key, different values) are errors;
        // identical repeats are harmless.
        let err = FaultSpec::parse_onto(FaultSpec::default(), "flaky=0.1,flaky=0.2").unwrap_err();
        assert!(err.contains("contradictory"), "{err}");
        let spec = FaultSpec::parse_onto(FaultSpec::default(), "flaky=0.1,flaky=0.1").unwrap();
        assert_eq!(spec.flaky_fetch, 0.1);
    }

    #[test]
    fn plan_days_pin_inside_the_run() {
        let spec = FaultSpec::scenario("pds-migration").unwrap();
        let plan = FaultPlan::build(7, 50, spec);
        assert_eq!(plan.outage(), Some((25, 0)));
        let spec = parse("label-storm=1.0,tombstone=0.0").unwrap();
        let plan = FaultPlan::build(7, 50, spec);
        assert_eq!(plan.label_storm_day(), Some(49), "clamped to last day");
        assert_eq!(plan.tombstone_day(), Some(0));
        // Zero-length runs pin nothing.
        let spec = FaultSpec::scenario("pds-migration").unwrap();
        assert_eq!(FaultPlan::build(7, 0, spec).outage(), None);
    }

    #[test]
    fn predicates_are_pure_functions_of_seed_key_day() {
        let spec = parse("flaky=0.4,dns=0.4,gap=0.2,rewind=0.3,spam=0.3,spam-rate=5").unwrap();
        let a = FaultPlan::build(99, 60, spec.clone());
        let b = FaultPlan::build(99, 60, spec.clone());
        for day in 0..60u64 {
            for key in ["did:plc:aaa", "did:plc:bbb", "h.example"] {
                assert_eq!(
                    a.fetch_failures("full", key, day),
                    b.fetch_failures("full", key, day)
                );
                assert_eq!(a.dns_failures(key, day), b.dns_failures(key, day));
                assert_eq!(a.drops_commit(key, day), b.drops_commit(key, day));
                assert_eq!(
                    a.spam_posts(key, day as usize),
                    b.spam_posts(key, day as usize)
                );
            }
            assert_eq!(a.rewinds_cursor(day), b.rewinds_cursor(day));
        }
        // A different seed produces a different schedule somewhere.
        let c = FaultPlan::build(100, 60, spec);
        let differs = (0..60u64).any(|day| {
            a.fetch_failures("full", "did:plc:aaa", day)
                != c.fetch_failures("full", "did:plc:aaa", day)
        });
        assert!(differs, "seed must matter");
    }

    #[test]
    fn operation_classes_draw_independently() {
        let spec = parse("flaky=0.5").unwrap();
        let plan = FaultPlan::build(11, 60, spec);
        let differs = (0..200u64).any(|day| {
            plan.fetch_failures("delta", "did:plc:x", day)
                != plan.fetch_failures("full", "did:plc:x", day)
        });
        assert!(
            differs,
            "delta and full fetch flakiness must be independent"
        );
    }

    #[test]
    fn failure_runs_are_capped() {
        let spec = parse("flaky=1.0,dns=1.0").unwrap();
        let plan = FaultPlan::build(3, 30, spec);
        for day in 0..200u64 {
            assert!(plan.fetch_failures("full", "did:plc:x", day) <= MAX_INJECTED_FAILURES);
            assert!(plan.dns_failures("x.example", day) <= MAX_INJECTED_FAILURES);
            assert!(plan.fetch_failures("full", "did:plc:x", day) >= 1);
        }
    }

    #[test]
    fn retry_backoff_schedule_is_deterministic_under_forks() {
        let plan = FaultPlan::build(42, 30, parse("flaky=0.5").unwrap());
        let policy = RetryPolicy::for_class(TimeoutClass::DeltaFetch);
        for day in 0..30u64 {
            for did in ["did:plc:aaa", "did:plc:bbb"] {
                let failures = plan.fetch_failures("delta", did, day);
                let first = policy.outcome(failures, &mut plan.retry_rng("delta", did, day));
                let second = policy.outcome(failures, &mut plan.retry_rng("delta", did, day));
                assert_eq!(first, second, "same (seed, DID, day) fork, same schedule");
            }
        }
    }

    #[test]
    fn retry_outcome_respects_bounds() {
        let policy = RetryPolicy::for_class(TimeoutClass::RepoFetch);
        let mut rng = SimRng::new(1).fork("test");
        let ok = policy.outcome(0, &mut rng);
        assert_eq!((ok.retries, ok.backoff_ms, ok.gave_up), (0, 0, false));
        let retried = policy.outcome(2, &mut rng);
        assert_eq!(retried.retries, 2);
        assert!(!retried.gave_up);
        assert!(retried.backoff_ms >= 2 * policy.timeout_ms);
        let abandoned = policy.outcome(policy.max_attempts, &mut rng);
        assert!(abandoned.gave_up);
        assert_eq!(abandoned.retries, policy.max_attempts - 1);
        let way_past = policy.outcome(policy.max_attempts + 10, &mut rng);
        assert!(way_past.gave_up);
        assert_eq!(way_past.retries, policy.max_attempts - 1);
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 100,
            max_delay_ms: 1_000,
            timeout_ms: 0,
        };
        let mut rng = SimRng::new(5).fork("backoff");
        for retry in 0..10 {
            let exp = 100u64.saturating_mul(1 << retry).min(1_000);
            let got = policy.backoff_ms(retry, &mut rng);
            assert!(
                got >= exp - exp / 4 && got < exp + exp / 4,
                "retry {retry}: {got} vs {exp}"
            );
        }
    }

    #[test]
    fn spam_conscription_hits_roughly_the_requested_fraction() {
        let spec = parse("spam=0.2,spam-rate=10").unwrap();
        let plan = FaultPlan::build(17, 30, spec);
        let conscripted = (0..1000)
            .filter(|i| plan.spam_posts(&format!("did:plc:user{i}"), 5) > 0)
            .count();
        assert!(
            (100..=320).contains(&conscripted),
            "~20% of 1000, got {conscripted}"
        );
        // A conscripted account spams every day; a clean one never does.
        let spammer = (0..1000)
            .map(|i| format!("did:plc:user{i}"))
            .find(|d| plan.spam_posts(d, 5) > 0)
            .unwrap();
        assert!(plan.spam_posts(&spammer, 6) >= 10);
    }
}
