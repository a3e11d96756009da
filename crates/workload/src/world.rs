//! The simulated world and its day-by-day driver.
//!
//! [`World::new`] builds the static ecosystem (PDS fleet, PLC directory, DNS
//! zones, registrars, labeler and feed-generator plans); the simulation then
//! advances one day at a time — signups, posting/liking/following activity,
//! handle changes, deletions, label issuance, feed curation and the Relay
//! crawl. The measurement pipeline in `bsky-study` drives a `World` and
//! observes it exclusively through the same service interfaces the real
//! study used.
//!
//! ## Sharding
//!
//! A world can simulate the *whole* population ([`World::new`]) or one
//! DID-hash shard of it ([`WorldSpec::shard`]). Every stochastic decision is
//! derived from `(seed, DID, day)` via the [`PopulationPlan`] — never from a
//! shared sequential stream — and every cross-user interaction (like and
//! repost targets, follow targets, feed curation, labeling verdicts) is
//! resolved against the plan or against per-post derived randomness. A
//! shard therefore emits exactly the events the full simulation would emit
//! for its users: the union of `N` shards' firehose streams, repositories,
//! label streams and feed curation equals the serial run's, bit for bit.
//! The ecosystem services (labelers, feed generators) are instantiated in
//! *every* shard and observe that shard's posts; their per-shard state is
//! merged by the study pipeline's analyzer `merge` operation.
//!
//! ## Chunked day steps
//!
//! [`World::step_day`] is a convenience wrapper around the resumable
//! intra-day driver: [`World::begin_day`] plans the day (signups, service
//! activations, the active-user list), [`World::step_chunk`] simulates users
//! until a bounded number of relay events is pending and then crawls, and
//! [`World::end_day`] polls labelers and closes the day. A producer that
//! interleaves `step_chunk` with firehose reads holds only one chunk of
//! events in flight, independent of the day's total volume. That bound is
//! consumer-agnostic: the study's intra-shard pipeline (`--pipeline`) hands
//! each chunk's observations to analyzer worker threads over a bounded
//! channel, so the producer blocks on a full channel instead of buffering —
//! the world never sees more than one chunk outstanding either way.

use crate::config::ScenarioConfig;
use crate::ecosystem::{
    build_feedgen_plans, build_labeler_plans, FeedArchetype, FeedGenPlan, LabelerPlan,
};
use crate::population::{DayPurpose, PopulationPlan, UserProfile};
use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::label::LabelTarget;
use bsky_atproto::nsid::known;
use bsky_atproto::record::{
    BlockRecord, Embed, FeedGeneratorRecord, FollowRecord, ImageEmbed, LikeRecord, MediaKind,
    PostRecord, ProfileRecord, Record, RepostRecord, UnknownRecord,
};
use bsky_atproto::repo::{CompactionStats, Write};
use bsky_atproto::Tid;
use bsky_atproto::{cbor, AtUri, Datetime, Did, Handle, Nsid};
use bsky_feedgen::faas::default_platforms;
use bsky_feedgen::{CurationMode, FeedFilter, FeedGenerator, FeedRoutes, RetentionPolicy};
use bsky_identity::registrar::default_catalogue;
use bsky_identity::resolver::publish;
use bsky_identity::{DidDocument, PlcDirectory, PublicSuffixList, TrancoList, WhoisDatabase};
use bsky_labeler::{LabelerOperator, LabelerRegistry, LabelerService};
use bsky_pds::{Pds, PdsFleet, PdsOperator};
use bsky_relay::{Relay, RelayFederation};
use bsky_simnet::dns::DnsZoneStore;
use bsky_simnet::faults::{FaultCounters, FaultPlan, LABEL_STORM_LOOKBACK_DAYS};
use bsky_simnet::http::WebSpace;
use bsky_simnet::SimRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which population shard a world simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total number of shards (1 = the serial, whole-population world).
    pub count: usize,
}

impl ShardSpec {
    /// The whole-population (serial) shard.
    pub(crate) fn whole() -> ShardSpec {
        ShardSpec { index: 0, count: 1 }
    }
}

/// Metadata about an instantiated feed generator, at its index in
/// [`World::feedgens`].
#[derive(Debug, Clone)]
pub struct FeedGenInfo {
    /// The plan it was built from.
    pub plan: FeedGenPlan,
    /// Hosting platform name (`"self-hosted"` when not on a FaaS platform).
    pub platform_name: String,
}

/// Resumable state of one simulated day (see [`World::begin_day`]).
#[derive(Debug)]
pub struct DayCursor {
    day: Datetime,
    day_idx: usize,
    /// Global indices of this shard's active users, ascending.
    active: Vec<usize>,
    pos: usize,
}

impl DayCursor {
    /// The day being simulated.
    pub fn day(&self) -> Datetime {
        self.day
    }
}

/// The complete simulated Bluesky world (or one population shard of it).
#[derive(Debug)]
pub struct World {
    /// Scenario configuration.
    pub config: ScenarioConfig,
    /// The deterministic population skeleton (shared across shards).
    pub plan: Arc<PopulationPlan>,
    /// Which shard of the population this world simulates.
    pub shard: ShardSpec,
    /// Signed-up users *owned by this shard*, in signup order. The profile's
    /// `handle` tracks the current handle through churn.
    pub users: Vec<UserProfile>,
    /// PDS fleet (Bluesky-operated + self-hosted).
    pub fleet: PdsFleet,
    /// PLC directory.
    pub plc: PlcDirectory,
    /// DNS zones.
    pub dns: DnsZoneStore,
    /// Web space (well-known documents, did:web documents).
    pub web: WebSpace,
    /// The Relay. Under federation this is the *super-relay* (hub): it
    /// receives every frame forwarded by the regional tier, and every
    /// consumer (study collector, observatory taps) keeps reading from it
    /// unchanged.
    pub relay: Relay,
    /// The regional relay tier, when [`WorldSpec::relays`] > 1. `None` runs
    /// the classic single-relay topology.
    pub federation: Option<RelayFederation>,
    /// Labeler registry.
    pub labelers: LabelerRegistry,
    /// Feed generators.
    pub feedgens: Vec<FeedGenerator>,
    /// Feed generator metadata parallel to `feedgens`.
    pub feedgen_info: Vec<FeedGenInfo>,
    /// The pipeline feeds of `feedgens` grouped by their filters: the only
    /// way a new post reaches a feed, and the one curated list per pipeline
    /// that each feed on it is a view of.
    feed_routes: FeedRoutes,
    /// WHOIS database.
    pub whois: WhoisDatabase,
    /// Tranco-style ranking.
    pub tranco: TrancoList,
    /// Public suffix list.
    pub psl: PublicSuffixList,
    /// Current simulated day (start of day).
    pub today: Datetime,

    /// Global user index → position in `users` (owned users only).
    owned_local: BTreeMap<usize, usize>,
    labeler_plans: Vec<LabelerPlan>,
    feedgen_plans: Vec<FeedGenPlan>,
    /// Cumulative like-attractiveness weights parallel to `feedgens`.
    feed_like_cumsum: Vec<f64>,
    self_hosted_pds: Vec<String>,
    pub(crate) total_posts: u64,
    pub(crate) total_likes: u64,
    /// The deterministic fault schedule (quiet by default).
    faults: Arc<FaultPlan>,
    /// Workload-side fault accounting, drained by the study collector.
    fault_counters: FaultCounters,
}

/// Everything [`World::from_spec`] needs to build a world: scenario,
/// optional pre-computed population plan, engine-shard slice, storage
/// backend, relay topology and fault schedule. One spec replaces the old
/// ladder of suffix-combinated constructors; callers set only the fields
/// that differ from the defaults.
///
/// None of the knobs below changes a simulated byte — backend, relay
/// topology and a quiet fault plan all leave every report byte-identical;
/// only residency, op counts and (for a non-quiet plan) the
/// fault-visibility counters move.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// The scenario (seed, dates, scale, mix).
    pub(crate) config: ScenarioConfig,
    /// Pre-computed population plan; built from `config` when `None`. The
    /// sharded study runner builds the plan once and hands an [`Arc`] to
    /// each worker.
    pub(crate) plan: Option<Arc<PopulationPlan>>,
    /// The engine-shard slice of the population this world owns.
    pub(crate) shard: ShardSpec,
    /// Block-store backend for repositories (repro `--store mem|paged`).
    pub(crate) store: StoreConfig,
    /// Relay tiers (repro `--relays N`): `1` runs the classic single relay;
    /// `N > 1` federates N regional relays under the super-relay in
    /// [`World::relay`]. Byte-identical either way — cross-relay dedup
    /// makes the hub's stream equal the single relay's by construction.
    pub(crate) relays: usize,
    /// The deterministic fault schedule (quiet by default).
    pub(crate) faults: Arc<FaultPlan>,
}

impl WorldSpec {
    /// A whole-population spec with default storage and a quiet fault plan.
    pub fn new(config: ScenarioConfig) -> WorldSpec {
        WorldSpec {
            config,
            plan: None,
            shard: ShardSpec::whole(),
            store: StoreConfig::default(),
            relays: 1,
            faults: Arc::new(FaultPlan::quiet()),
        }
    }

    /// Use an already-computed population plan.
    pub fn plan(mut self, plan: Arc<PopulationPlan>) -> WorldSpec {
        self.plan = Some(plan);
        self
    }

    /// Select the engine-shard slice this world owns.
    pub fn shard(mut self, shard: ShardSpec) -> WorldSpec {
        self.shard = shard;
        self
    }

    /// Select the block-store backend.
    pub fn store(mut self, store: StoreConfig) -> WorldSpec {
        self.store = store;
        self
    }

    /// Inert: the world runs no AppView. Kept, like `write_back`, because
    /// `benchmark/src/surface.rs` calls it.
    pub fn appview_shards(self, _shards: usize) -> WorldSpec {
        self
    }

    /// Inert; see [`WorldSpec::appview_shards`].
    pub fn write_back(self, _write_back: bool) -> WorldSpec {
        self
    }

    /// Select the relay topology (`1` = single relay, `N > 1` = federated).
    pub fn relays(mut self, relays: usize) -> WorldSpec {
        self.relays = relays;
        self
    }

    /// Install a fault schedule.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> WorldSpec {
        self.faults = faults;
        self
    }
}

impl World {
    /// Build the whole-population world with every default. No activity has
    /// happened yet; call [`World::step_day`] (or [`World::run_to_end`]) to
    /// simulate.
    pub fn new(config: ScenarioConfig) -> World {
        World::from_spec(WorldSpec::new(config))
    }

    /// Build a world from a full [`WorldSpec`] — the one constructor every
    /// configuration goes through. Every injected fault is a pure function
    /// of `(seed, DID, day)` — the plan consumes no randomness from the
    /// content/churn streams, so a quiet plan leaves the run byte-identical
    /// to one built without it, and a faulted run stays byte-identical
    /// serial vs. sharded.
    pub fn from_spec(spec: WorldSpec) -> World {
        let WorldSpec {
            config,
            plan,
            shard,
            store,
            relays,
            faults,
        } = spec;
        let plan = plan.unwrap_or_else(|| Arc::new(PopulationPlan::build(&config)));
        let root = SimRng::new(config.seed);

        // PDS fleet: default servers plus a few self-hosted ones. Every
        // shard sees the full fleet; accounts land only on the owner shard.
        let mut fleet = PdsFleet::with_default_servers_store(config.default_pds_count, &store);
        let mut self_hosted_pds = Vec::new();
        for i in 0..3 {
            let hostname = format!("pds.selfhosted{i:02}.example");
            fleet.add_server(Pds::with_store(
                hostname.clone(),
                PdsOperator::SelfHosted,
                store.clone(),
            ));
            self_hosted_pds.push(hostname);
        }

        // Ecosystem plans (identical in every shard).
        let labeler_plans = build_labeler_plans(&config, &mut root.fork("world").fork("labelers"));
        let feedgen_plans = build_feedgen_plans(&config, &mut root.fork("world").fork("feeds"));

        // Tranco list: famous domains rank inside the top 1M.
        let tranco = TrancoList::from_ranked(&[
            "google.com".into(),
            "amazonaws.com".into(),
            "microsoft.com".into(),
            "cloudflare.com".into(),
            "nytimes.com".into(),
            "washingtonpost.com".into(),
            "cnn.com".into(),
            "bbc.co.uk".into(),
            "theguardian.com".into(),
            "stanford.edu".into(),
            "columbia.edu".into(),
        ]);

        World {
            users: Vec::new(),
            fleet,
            plc: PlcDirectory::new(),
            dns: DnsZoneStore::new(),
            web: WebSpace::new(),
            relay: Relay::with_store("bsky.network", &store),
            federation: (relays > 1).then(|| RelayFederation::new(relays, &store)),
            labelers: LabelerRegistry::new(),
            feedgens: Vec::new(),
            feedgen_info: Vec::new(),
            feed_routes: FeedRoutes::default(),
            whois: WhoisDatabase::new(),
            tranco,
            psl: PublicSuffixList::embedded(),
            today: config.start,
            owned_local: BTreeMap::new(),
            labeler_plans,
            feedgen_plans,
            feed_like_cumsum: Vec::new(),
            self_hosted_pds,
            total_posts: 0,
            total_likes: 0,
            faults,
            fault_counters: FaultCounters::default(),
            plan,
            shard,
            config,
        }
    }

    /// Workload-side fault accounting so far (drained by the collector
    /// into the run summary — injected faults are never silent).
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// The routes of [`World::feedgens`]: `feed_routes().entries(feed)` is
    /// what a feed retains.
    pub fn feed_routes(&self) -> &FeedRoutes {
        &self.feed_routes
    }

    /// Whether this shard owns (simulates) the user with the given global
    /// index.
    pub(crate) fn owns_user(&self, index: usize) -> bool {
        self.plan
            .owned_by(index, self.shard.index, self.shard.count)
    }

    /// Whether this shard owns an arbitrary DID (used to emit global
    /// singletons — labeler metadata — from exactly one shard).
    pub fn owns_did(&self, did: &Did) -> bool {
        self.shard.count <= 1
            || crate::population::did_hash(did) % self.shard.count as u64 == self.shard.index as u64
    }

    /// Number of days simulated so far.
    pub(crate) fn days_elapsed(&self) -> i64 {
        self.today.days_since(self.config.start)
    }

    /// Whether the simulation has reached the configured end date.
    pub fn finished(&self) -> bool {
        self.today >= self.config.end
    }

    /// Run the simulation to the configured end date.
    pub fn run_to_end(&mut self) {
        while !self.finished() {
            self.step_day();
        }
    }

    /// Advance the simulation by one full day (single-chunk convenience
    /// wrapper around [`World::begin_day`] / [`World::step_chunk`] /
    /// [`World::end_day`]).
    pub fn step_day(&mut self) {
        let Some(mut cursor) = self.begin_day() else {
            return;
        };
        while !self.step_chunk(&mut cursor, usize::MAX) {}
        self.end_day(cursor);
    }

    /// Open the next simulated day: process signups, bring planned services
    /// online, and plan the active-user list. Returns `None` when the
    /// simulation already reached its end date.
    pub fn begin_day(&mut self) -> Option<DayCursor> {
        if self.finished() {
            return None;
        }
        let day = self.today;
        let day_idx = self.days_elapsed() as usize;

        // 1. New signups (owned indices only).
        for index in self.plan.signups_on(day_idx) {
            if self.owns_user(index) {
                self.sign_up_user(index, day);
            }
        }

        // 2. Scheduled faults: on the outage day the doomed host's owned
        //    accounts mass-migrate before any of the day's activity.
        if let Some((outage_day, host_index)) = self.faults.outage() {
            if outage_day == day_idx {
                self.apply_host_outage(host_index, day);
            }
        }

        // 3. Bring planned labelers and feed generators online (all shards).
        self.activate_labelers(day);
        self.activate_feedgens(day, day_idx);

        // 4. Plan the day's activity: every owned, joined user flips their
        //    independent per-(DID, day) activity coin.
        let joined = self.plan.joined_count(day_idx);
        let mut active = Vec::new();
        for index in 0..joined {
            if self.owns_user(index) && self.plan.is_active(index, day_idx) {
                active.push(index);
            }
        }

        Some(DayCursor {
            day,
            day_idx,
            active,
            pos: 0,
        })
    }

    /// Simulate active users until at least `chunk_events` relay events are
    /// pending, then crawl the relay (bounding the number of events a
    /// firehose reader sees per subscription read). Returns `true` when the
    /// day's activity is exhausted.
    pub fn step_chunk(&mut self, cursor: &mut DayCursor, chunk_events: usize) -> bool {
        while cursor.pos < cursor.active.len() {
            let user = cursor.active[cursor.pos];
            cursor.pos += 1;
            self.simulate_user_day(user, cursor.day_idx, cursor.day);
            if self.pending_relay_events() >= chunk_events {
                self.crawl(cursor.day);
                return false;
            }
        }
        self.crawl(cursor.day);
        true
    }

    /// Close the day: scheduled storms strike, labelers publish due labels,
    /// the feed routes apply every feed's retention, and the clock advances. A tombstone a storm
    /// issues here reaches the relay only with the next day's first crawl.
    pub fn end_day(&mut self, cursor: DayCursor) {
        debug_assert!(cursor.pos >= cursor.active.len(), "day not exhausted");
        let day = cursor.day;
        if self.faults.label_storm_day() == Some(cursor.day_idx) {
            self.apply_label_storm(day, cursor.day_idx);
        }
        if self.faults.tombstone_day() == Some(cursor.day_idx) {
            self.apply_tombstone_storm(day);
        }
        self.poll_labelers(day);
        self.feed_routes.enforce_retention(day, &self.feedgens);
        self.today = day.plus_days(1);
    }

    /// Relay events produced by the fleet but not yet crawled (by the
    /// single relay, or by the regional tier under federation).
    fn pending_relay_events(&self) -> usize {
        match &self.federation {
            Some(fed) => fed.pending_events(&self.fleet),
            None => self.relay.pending_events(&self.fleet),
        }
    }

    /// Crawl the relay tier. Under federation the regions crawl their PDS
    /// slices and forward into the super-relay; either way `self.relay`
    /// ends up with the identical stream and account table.
    ///
    /// The world owns the fleet and every relay that crawls it, so it is the
    /// one to let crawled events go: after each crawl every PDS outbox is
    /// trimmed to the cursor of the relay that crawls it, and so holds at
    /// most the chunk of events produced since.
    fn crawl(&mut self, day: Datetime) {
        let now = day.plus_seconds(86_399);
        let crawled = match self.federation.as_mut() {
            Some(fed) => {
                fed.crawl_and_forward(&mut self.relay, &self.fleet, now);
                fed.crawl_cursors(&self.fleet)
            }
            None => {
                self.relay.crawl(&self.fleet, now);
                self.relay.crawl_cursors(&self.fleet)
            }
        };
        self.fleet.trim_outboxes(&crawled);
    }

    fn sign_up_user(&mut self, index: usize, today: Datetime) {
        let user = self.plan.profile(index).clone();
        // Per-user signup decisions, derived from the seed and the index so
        // they are identical no matter which shard executes them.
        let mut rng = SimRng::new(self.config.seed).fork(&format!("signup-{index}"));

        // Pick a PDS: almost everyone lands on a default server; a handful
        // self-host (only possible since federation opened).
        let hostname = if today >= Datetime::from_ymd(2024, 2, 1).unwrap() && rng.chance(0.004) {
            self.self_hosted_pds[index % self.self_hosted_pds.len()].clone()
        } else {
            let defaults = self.fleet.default_hostnames();
            defaults[index % defaults.len()].clone()
        };
        if self
            .fleet
            .create_account_on(&hostname, user.did.clone(), user.handle.clone(), today)
            .is_err()
        {
            return;
        }
        let endpoint = self
            .fleet
            .server(&hostname)
            .map(|p| p.endpoint())
            .unwrap_or_default();

        // Identity: DID document in the PLC directory (or did:web), ownership
        // proofs in DNS / well-known, WHOIS registration for custom domains.
        let doc = DidDocument::new(
            user.did.clone(),
            user.handle.clone(),
            format!("simkey-{index}"),
            endpoint,
        );
        match user.did.method() {
            bsky_atproto::DidMethod::Plc => {
                let _ = self.plc.create(doc.clone());
            }
            bsky_atproto::DidMethod::Web => {
                publish::did_web_document(&mut self.web, &doc);
            }
        }
        match user.proof {
            crate::population::ProofChoice::DnsTxt => {
                publish::dns_proof(&mut self.dns, &user.handle, &user.did)
            }
            crate::population::ProofChoice::WellKnown => {
                publish::well_known_proof(&mut self.web, &user.handle, &user.did)
            }
        }
        if let crate::population::HandleChoice::SelfManaged { domain, .. } = &user.handle_choice {
            // The WHOIS record is a property of the *domain*, not of the
            // registering user: famous domains are deliberately shared by
            // several users (newsroom staff accounts), who may land on
            // different shards. Deriving the registrar from the domain
            // keeps `whois.register` idempotent, so every shard's WHOIS
            // database answers identically for shared domains — a per-user
            // draw here would let Table 2 diverge between the serial and
            // sharded runs.
            self.whois
                .register(domain, whois_registrar_for(self.config.seed, domain));
        }

        let profile = Record::Profile(ProfileRecord {
            display_name: user.handle.labels()[0].to_string(),
            description: format!("posting in {}", user.language),
            has_avatar: true,
            has_banner: rng.chance(0.4),
            created_at: today,
        });
        let pds = self
            .fleet
            .pds_for_mut(&user.did)
            .expect("the account was just created");
        pds.apply_writes(
            &user.did,
            &[Write::Create {
                collection: Nsid::PROFILE,
                rkey: "self".to_string(),
                record: profile,
            }],
            today,
        )
        .expect("a new account accepts its profile");
        self.owned_local.insert(index, self.users.len());
        self.users.push(user);
    }

    fn activate_labelers(&mut self, today: Datetime) {
        let pending: Vec<LabelerPlan> = self
            .labeler_plans
            .iter()
            .filter(|p| p.announced_at.day_index() == today.day_index())
            .cloned()
            .collect();
        for plan in pending {
            let index = self.labelers.announced_count();
            let did = Did::plc_from_seed(format!("labeler-{}", plan.name).as_bytes());
            // The labeler's stream seed derives from the run seed and its
            // index; the service itself re-forks per observed post, so its
            // verdicts are shard-independent.
            let rng = SimRng::new(self.config.seed).fork(&format!("labeler-{index}"));
            let service = LabelerService::new(
                did,
                plan.name.clone(),
                plan.operator,
                plan.hosting,
                plan.policy.clone(),
                rng,
            );
            self.labelers.register(service);
        }
    }

    fn activate_feedgens(&mut self, today: Datetime, day_idx: usize) {
        let platforms = default_platforms();
        let pending: Vec<(usize, FeedGenPlan)> = self
            .feedgen_plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.created_at.day_index() == today.day_index())
            .map(|(i, p)| (i, p.clone()))
            .collect();
        for (plan_index, plan) in pending {
            if self.plan.joined_count(day_idx) == 0 {
                continue;
            }
            let index = self.feedgens.len();
            // Bind the creator: rank 1 = most popular joined user, resolved
            // against the plan so every shard binds identically.
            let Some(creator_index) = self
                .plan
                .creator_for_rank(plan.creator_popularity_rank, day_idx)
            else {
                continue;
            };
            let creator = self.plan.profile(creator_index).did.clone();

            let (platform_name, service_did) = match plan.platform_index {
                Some(i) => {
                    let platform = &platforms[i.min(platforms.len() - 1)];
                    (
                        platform.name.clone(),
                        Did::web(&platform.hostname).expect("valid platform domain"),
                    )
                }
                None => (
                    "self-hosted".to_string(),
                    Did::web(&format!(
                        "feeds.{}",
                        self.plan.profile(creator_index).handle
                    ))
                    .unwrap_or_else(|_| Did::web("selfhosted-feeds.example").expect("valid")),
                ),
            };

            let mode = match plan.archetype {
                FeedArchetype::Personalized => CurationMode::Personalized,
                FeedArchetype::ManualCommunity | FeedArchetype::Empty => CurationMode::Manual,
                FeedArchetype::LanguageAggregator => {
                    CurationMode::Pipeline(vec![FeedFilter::Language(vec![plan.language.clone()])])
                }
                FeedArchetype::Adult => CurationMode::Pipeline(vec![
                    FeedFilter::RequireMediaKinds(vec![MediaKind::Adult]),
                ]),
                FeedArchetype::Topic => {
                    let topic = plan.name.split('-').next().unwrap_or("art").to_string();
                    CurationMode::Pipeline(vec![FeedFilter::Keyword(topic)])
                }
            };
            // Retention is a per-plan property, not a draw from shared
            // state, so every shard instantiates the same policy.
            let mut retention_rng =
                SimRng::new(self.config.seed).fork(&format!("feed-retention-{plan_index}"));
            let retention = if retention_rng.chance(0.45) {
                RetentionPolicy::Days(retention_rng.range(1..10i64) as u32)
            } else if retention_rng.chance(0.3) {
                RetentionPolicy::Count(retention_rng.range(50..500usize))
            } else {
                RetentionPolicy::All
            };
            let record = FeedGeneratorRecord {
                service_did,
                display_name: plan.name.clone(),
                description: plan.description.clone(),
                created_at: plan.created_at,
            };
            // The declaration record lives in the creator's repository —
            // which exists only on the creator's owning shard, so exactly
            // one shard emits it.
            if let Some(pds) = self.fleet.pds_for_mut(&creator) {
                let _ = pds.create_record(
                    &creator,
                    Nsid::FEED_GENERATOR,
                    Record::FeedGenerator(record.clone()),
                    today,
                );
            }
            let mut generator =
                FeedGenerator::new(creator, format!("feed{index:06}"), record, mode, retention);
            self.feed_routes.add(&mut generator, today);
            self.feedgens.push(generator);
            self.feed_like_cumsum.push(
                self.feed_like_cumsum.last().copied().unwrap_or(0.0)
                    + 1.0 / (plan.creator_popularity_rank as f64 + 1.0),
            );
            self.feedgen_info.push(FeedGenInfo {
                plan,
                platform_name,
            });
        }
    }

    /// One active user's actions for one day, applied as a single commit.
    /// Consumes only the user's own per-day streams plus the read-only plan.
    /// Each record is built once, inside its [`Write`], and lent from there
    /// to the PDS, the feed generators and the labelers. A deleted account
    /// stays on the schedule: its day is drawn, then not written.
    fn simulate_user_day(&mut self, index: usize, day_idx: usize, today: Datetime) {
        let Some(&local) = self.owned_local.get(&index) else {
            return; // signup failed (should not happen)
        };
        let user = &self.users[local];
        let mut writes: Vec<Write> = Vec::new();
        let mut create = |collection: Nsid, rkey: String, record: Record| {
            writes.push(Write::Create {
                collection,
                rkey,
                record,
            })
        };

        let when = self.plan.when(index, day_idx);
        let mut rng = self.plan.day_rng(index, day_idx, DayPurpose::Content);
        // Non-post records share one per-day key sequence.
        let mut record_seq = 0u64;
        let mut next_rkey = || {
            record_seq += 1;
            PopulationPlan::day_rkey('r', day_idx, record_seq - 1, 3)
        };

        // Posts (≈1.8 per active user-day on average, weighted by the user).
        // The count comes from its own stream so other shards can recompute
        // it when targeting this user's posts.
        let post_count = self.plan.posts_on(index, day_idx);
        for slot in 0..post_count {
            let post = draw_post(user, &mut rng, when);
            let rkey = PopulationPlan::post_rkey(day_idx, slot);
            create(Nsid::POST, rkey, Record::Post(post));
            self.total_posts += 1;
        }

        // Spam wave (fault injection): conscripted accounts pile a burst of
        // spam posts on top of their planned content. Count and content come
        // from dedicated fault forks — never from the user's content stream
        // — so a quiet plan leaves this path byte-inert, and the distinct
        // `f`-prefixed rkeys never collide with planned (`p`/`r`) keys.
        let spam_count = self.faults.spam_posts(&user.did.as_string(), day_idx);
        for slot in 0..spam_count {
            let post = PostRecord::simple(
                format!("fresh followers fast, link in bio #{slot}"),
                &user.language,
                when,
            );
            let rkey = PopulationPlan::day_rkey('f', day_idx, u64::from(slot), 2);
            create(Nsid::POST, rkey, Record::Post(post));
            self.total_posts += 1;
            self.fault_counters.spam_posts_injected += 1;
        }

        // Likes (≈6 per active user-day): mostly on recent posts, sometimes
        // on feed generators. Targets are resolved against the plan, so a
        // like can land on any shard's post.
        let like_count = rng.poisson(6.0);
        for _ in 0..like_count {
            let subject = if !self.feedgens.is_empty() && rng.chance(0.03) {
                let total = self.feed_like_cumsum.last().copied().unwrap_or(0.0);
                let target = rng.unit() * total;
                let idx = self
                    .feed_like_cumsum
                    .partition_point(|&c| c <= target)
                    .min(self.feedgens.len() - 1);
                self.feedgens[idx].add_like();
                self.feedgens[idx].uri().clone()
            } else if let Some(target) = self.plan.pick_recent_post(day_idx, &mut rng) {
                target
            } else {
                continue;
            };
            let record = Record::Like(LikeRecord {
                subject,
                created_at: when,
            });
            create(Nsid::LIKE, next_rkey(), record);
            self.total_likes += 1;
        }

        // Reposts (≈0.6).
        for _ in 0..rng.poisson(0.6) {
            if let Some(target) = self.plan.pick_recent_post(day_idx, &mut rng) {
                let record = Record::Repost(RepostRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::REPOST, next_rkey(), record);
            }
        }

        // Follows (≈1.3): preferential attachment towards popular users.
        for _ in 0..rng.poisson(1.3) {
            if let Some(target) = self.pick_popular_user(index, day_idx, &mut rng) {
                let record = Record::Follow(FollowRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::FOLLOW, next_rkey(), record);
            }
        }

        // Blocks (≈0.09): concentrated on a couple of notorious accounts.
        for _ in 0..rng.poisson(0.09) {
            if let Some(target) = self.pick_block_target(index, day_idx, &mut rng) {
                let record = Record::Block(BlockRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::BLOCK, next_rkey(), record);
            }
        }

        // Third-party (WhiteWind) records for the few users who use them.
        if user.uses_whitewind && rng.chance(0.2) {
            let record = Record::Unknown(UnknownRecord {
                record_type: Nsid::WHTWND_ENTRY,
                value: cbor::Value::map([
                    ("$type", cbor::Value::text(known::WHTWND_ENTRY)),
                    ("title", cbor::Value::text("long-form thoughts")),
                    ("createdAt", cbor::Value::text(when.to_iso8601())),
                ]),
            });
            create(Nsid::WHTWND_ENTRY, next_rkey(), record);
        }

        if writes.is_empty() {
            return;
        }
        // The account's PDS says whether it may still write. The draw above
        // runs either way: a deleted account's feed-generator likes are
        // counted although its day is not written.
        let hosted = self.fleet.pds_for_mut(&user.did);
        let Some(pds) = hosted.filter(|pds| pds.is_active(&user.did)) else {
            return;
        };
        // Every key is fresh (a day's rkeys are unique to the day), so an
        // active account's batch is accepted.
        pds.apply_writes(&user.did, &writes, when)
            .expect("a day's creates are accepted");

        // Feed curation and labeler observation for the new posts (the
        // "firehose with blocks" path).
        for write in &writes {
            if let Write::Create {
                rkey,
                record: Record::Post(post),
                ..
            } = write
            {
                let uri = Arc::new(AtUri::record(user.did.clone(), Nsid::POST, rkey.as_str()));
                self.feed_routes.route(&uri, post, when);
                for labeler in self.labelers.all_mut() {
                    labeler.observe_post(&uri, post, when);
                }
            }
        }

        // Occasional identity churn: handle changes and account deletion.
        self.simulate_identity_churn(index, local, today, &mut rng);
    }

    fn pick_popular_user(&self, exclude: usize, day_idx: usize, rng: &mut SimRng) -> Option<Did> {
        if self.plan.joined_count(day_idx) < 2 {
            return None;
        }
        for _ in 0..8 {
            let idx = self.plan.pick_joined_weighted(day_idx, rng)?;
            if idx != exclude {
                return Some(self.plan.profile(idx).did.clone());
            }
        }
        None
    }

    fn pick_block_target(&self, exclude: usize, day_idx: usize, rng: &mut SimRng) -> Option<Did> {
        let joined = self.plan.joined_count(day_idx);
        if joined < 4 {
            return None;
        }
        // Blocks concentrate on two notorious accounts (the impersonator and
        // the propagandist of §4), with a tail over everyone else.
        let notorious = [2usize, 3usize];
        let idx = if rng.chance(0.6) {
            notorious[rng.range(0..notorious.len())]
        } else {
            rng.range(0..joined)
        };
        if idx == exclude {
            return None;
        }
        Some(self.plan.profile(idx).did.clone())
    }

    fn simulate_identity_churn(
        &mut self,
        index: usize,
        local: usize,
        today: Datetime,
        rng: &mut SimRng,
    ) {
        // Handle updates: ≈0.8 % of accounts over the window ⇒ tiny daily
        // probability; 75 % of final handles end up under bsky.social (§5).
        if rng.chance(0.00006) {
            let user = self.users[local].clone();
            let to_bsky = rng.chance(0.7574);
            let new_handle = if to_bsky {
                Handle::parse(&format!(
                    "{}-new.bsky.social",
                    crate::population::username(index)
                ))
            } else {
                Handle::parse(&format!(
                    "{}.example.org",
                    crate::population::username(index)
                ))
            };
            if let Ok(handle) = new_handle {
                if let Some(pds) = self.fleet.pds_for_mut(&user.did) {
                    let _ = pds.change_handle(&user.did, handle.clone(), today);
                }
                let _ = self.plc.update(&user.did, |doc| {
                    doc.handle = handle.clone();
                });
                publish::dns_proof(&mut self.dns, &handle, &user.did);
                self.users[local].handle = handle;
            }
        }
        // Account deletions (tombstones): very rare.
        if rng.chance(0.000_015) {
            let user = self.users[local].clone();
            if let Some(pds) = self.fleet.pds_for_mut(&user.did) {
                let _ = pds.delete_account(&user.did, today);
            }
            let _ = self.plc.tombstone(&user.did);
        }
        // PDS migrations (identity updates beyond creation): rare.
        if rng.chance(0.00003) && !self.self_hosted_pds.is_empty() {
            let user = self.users[local].clone();
            let destination = self.self_hosted_pds[index % self.self_hosted_pds.len()].clone();
            let handle = user.handle.clone();
            if self
                .fleet
                .migrate_account(&user.did, &destination, handle, today)
                .is_ok()
            {
                let endpoint = self
                    .fleet
                    .server(&destination)
                    .map(|p| p.endpoint())
                    .unwrap_or_default();
                let _ = self.plc.update(&user.did, |doc| {
                    doc.set_service(
                        bsky_identity::diddoc::SERVICE_PDS,
                        "AtprotoPersonalDataServer",
                        &endpoint,
                    );
                });
            }
        }
    }

    /// The scheduled PDS host outage: every owned account still on the
    /// doomed default host re-homes to a surviving default host — a
    /// deterministic per-DID draw — with a full account migration and a
    /// PLC service update, exactly like organic churn migration. The
    /// collector's incremental mirror sees the host change and backfills
    /// each displaced repo with a counted full fetch.
    fn apply_host_outage(&mut self, host_index: usize, today: Datetime) {
        let defaults = self.fleet.default_hostnames();
        if defaults.len() < 2 {
            return;
        }
        let doomed = defaults[host_index % defaults.len()].clone();
        let survivors: Vec<String> = defaults.into_iter().filter(|h| *h != doomed).collect();
        let displaced: Vec<(Did, Handle)> = self
            .users
            .iter()
            .filter(|u| self.fleet.locate(&u.did) == Some(doomed.as_str()))
            .map(|u| (u.did.clone(), u.handle.clone()))
            .collect();
        for (did, handle) in displaced {
            let slot = self.faults.rehome_slot(&did.to_string()) as usize % survivors.len();
            let destination = survivors[slot].clone();
            if self
                .fleet
                .migrate_account(&did, &destination, handle, today)
                .is_ok()
            {
                let endpoint = self
                    .fleet
                    .server(&destination)
                    .map(|p| p.endpoint())
                    .unwrap_or_default();
                let _ = self.plc.update(&did, |doc| {
                    doc.set_service(
                        bsky_identity::diddoc::SERVICE_PDS,
                        "AtprotoPersonalDataServer",
                        &endpoint,
                    );
                });
                self.fault_counters.outage_migrations += 1;
            }
        }
    }

    /// The scheduled label storm: the official labeler flags a large batch
    /// of recent posts in one day. Post existence is resolved against the
    /// plan (each shard enumerates its own users' posts) and the flag coin
    /// is keyed by post URI, so the union of per-shard storms equals the
    /// serial storm exactly.
    fn apply_label_storm(&mut self, today: Datetime, day_idx: usize) {
        let Some(labeler_index) = self
            .labelers
            .all()
            .iter()
            .position(|l| l.operator() == LabelerOperator::BlueskyOfficial)
            .or_else(|| (!self.labelers.all().is_empty()).then_some(0))
        else {
            return;
        };
        let from = day_idx.saturating_sub(LABEL_STORM_LOOKBACK_DAYS - 1);
        let owned: Vec<usize> = self.owned_local.keys().copied().collect();
        for index in owned {
            for past in from..=day_idx {
                for slot in 0..self.plan.posts_on(index, past) {
                    let uri = self.plan.post_uri(index, past, slot);
                    if self.faults.storm_label(&uri.to_string())
                        && self.labelers.all_mut()[labeler_index]
                            .apply_label(LabelTarget::Record(uri), "spam", today)
                            .is_ok()
                    {
                        self.fault_counters.storm_labels_applied += 1;
                    }
                }
            }
        }
    }

    /// The scheduled account-deletion storm: a per-DID coin deletes a
    /// fraction of this shard's accounts at the end of the day (tombstone
    /// in PLC, `AccountDelete` on the firehose). The relay drops each
    /// deleted repo from its mirror on the next crawl, and the collector's
    /// mirror counts the vanished repos as snapshot skips.
    fn apply_tombstone_storm(&mut self, today: Datetime) {
        let dids: Vec<Did> = self.users.iter().map(|u| u.did.clone()).collect();
        for did in dids {
            if !self.faults.storm_tombstone(&did.to_string()) {
                continue;
            }
            let deleted = self
                .fleet
                .pds_for_mut(&did)
                .map(|pds| pds.delete_account(&did, today).is_ok())
                .unwrap_or(false);
            if deleted {
                let _ = self.plc.tombstone(&did);
                self.fault_counters.storm_tombstones += 1;
            }
        }
    }

    fn poll_labelers(&mut self, today: Datetime) {
        let end_of_day = today.plus_seconds(86_399);
        for labeler in self.labelers.all_mut() {
            labeler.poll(end_of_day);
        }
    }

    /// Ground-truth totals (used only by tests and sanity checks, never by
    /// the measurement pipeline). Shard-local.
    pub fn ground_truth_totals(&self) -> (u64, u64) {
        (self.total_posts, self.total_likes)
    }

    /// Run the repository compaction pass over the whole fleet: commits
    /// older than `cutoff` leave the delta-serving window. The study
    /// producer calls this on its weekly snapshot
    /// cadence; cadence and cutoff derive only from simulated time, so
    /// every shard (and every snapshot mode) compacts identically.
    pub fn compact_repos(&mut self, cutoff: &Tid) -> CompactionStats {
        self.fleet.compact_all(cutoff)
    }
}

/// The WHOIS registrar of a registered domain: a pure function of
/// `(seed, domain)`, reproducing the study's coverage calibration (~83 % of
/// domains have WHOIS data). Domain-keyed so that every shard — and every
/// re-registration of a shared domain — derives the same record.
pub(crate) fn whois_registrar_for(
    seed: u64,
    domain: &str,
) -> Option<bsky_identity::registrar::Registrar> {
    let mut rng = SimRng::new(seed).fork(&format!("whois-{domain}"));
    if rng.chance(0.83) {
        let catalogue = default_catalogue();
        Some(catalogue[rng.range(0..catalogue.len())].clone())
    } else {
        None
    }
}

/// Draw one post's content from the user's content stream.
fn draw_post(user: &UserProfile, rng: &mut SimRng, when: Datetime) -> PostRecord {
    const TOPICS: &[&str] = &[
        "art",
        "ramen",
        "news",
        "science",
        "music",
        "cats",
        "football",
        "politics",
        "photography",
        "nude study",
    ];
    let topic = *rng.pick(TOPICS);
    let text = format!(
        "{} post about {} #{}",
        user.language,
        topic,
        topic.split(' ').next().unwrap_or(topic)
    );
    let mut tags = Vec::new();
    if rng.chance(0.015) {
        tags.push("aiart".to_string());
    }
    let embed = if rng.chance(user.media_probability) {
        let kind_roll = rng.unit();
        let kind = if kind_roll < user.adult_probability {
            MediaKind::Adult
        } else if kind_roll < user.adult_probability + 0.012 {
            MediaKind::Graphic
        } else if kind_roll < user.adult_probability + 0.07 {
            MediaKind::GifTenor
        } else if kind_roll < user.adult_probability + 0.10 {
            MediaKind::ScreenshotTwitter
        } else if kind_roll < user.adult_probability + 0.12 {
            MediaKind::ScreenshotBluesky
        } else if kind_roll < user.adult_probability + 0.16 {
            MediaKind::AiGenerated
        } else if kind_roll < user.adult_probability + 0.40 {
            MediaKind::Artwork
        } else {
            MediaKind::Photo
        };
        let alt = if rng.chance(user.missing_alt_probability) {
            None
        } else {
            Some(format!("an image about {topic}"))
        };
        Some(Embed::Images(vec![ImageEmbed { alt, kind }]))
    } else {
        None
    };
    // A tiny fraction of posts carry corrupted (pre-launch) timestamps,
    // reproducing the client bug the paper reports (§7.1).
    let created_at = if rng.chance(0.0001) {
        Datetime::from_ymd(*rng.pick(&[1185, 1776, 1923]), 6, 1).unwrap()
    } else {
        when
    };
    PostRecord {
        text,
        created_at,
        langs: vec![user.language.clone()],
        reply_parent: None,
        embed,
        tags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(77);
        // Shorten the horizon so unit tests stay fast: start mid-2023.
        config.start = Datetime::from_ymd(2024, 1, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 30).unwrap();
        config.scale = 40_000;
        config
    }

    fn small_world() -> World {
        World::new(small_config())
    }

    /// Every post a non-personalised feed holds, in feed order.
    fn curated(world: &World) -> Vec<Arc<AtUri>> {
        let feeds = world.feedgens.iter().filter(|f| !f.is_personalized());
        let entries = feeds.flat_map(|f| world.feed_routes().entries(f));
        entries.map(|entry| Arc::clone(&entry.uri)).collect()
    }

    /// Labels every labeler's stream carries.
    fn labels_issued(world: &World) -> usize {
        let streams = world.labelers.all().iter();
        streams.map(|l| l.subscribe_labels(0).0.len()).sum()
    }

    #[test]
    fn world_builds_and_steps() {
        let mut world = small_world();
        assert!(!world.finished());
        for _ in 0..30 {
            world.step_day();
        }
        assert!(
            world.users.len() > 5,
            "users signed up: {}",
            world.users.len()
        );
        assert!(world.relay.known_account_count() > 0);
        assert!(world.ground_truth_totals().0 > 0);
        assert!(world.relay.firehose().total_events() > 0);
        assert_eq!(world.days_elapsed(), 30);
    }

    #[test]
    fn full_run_produces_consistent_ecosystem() {
        let mut world = small_world();
        world.run_to_end();
        assert!(world.finished());
        // Population roughly matches the scaled target.
        let target = world.config.target_users() as f64;
        let actual = world.users.len() as f64;
        assert!(
            (actual / target) > 0.6 && (actual / target) < 1.4,
            "population {actual} vs target {target}"
        );
        // Handle concentration holds.
        let custodial = world
            .users
            .iter()
            .filter(|u| matches!(u.handle_choice, crate::population::HandleChoice::BskySocial))
            .count();
        assert!(custodial as f64 / actual > 0.95);
        // Activity happened and flowed through the whole pipeline.
        let (posts, likes) = world.ground_truth_totals();
        assert!(posts > 100, "posts {posts}");
        assert!(
            likes > posts,
            "likes ({likes}) should outnumber posts ({posts})"
        );
        // The relay's retained firehose still carries commits.
        assert!(world
            .relay
            .subscribe(0)
            .events
            .iter()
            .any(|e| matches!(e.body, bsky_atproto::firehose::EventBody::Commit { .. })));
        // Labelers came online after 2024-03-15 and issued labels.
        assert!(world.labelers.announced_count() > 20);
        let publishing = world.labelers.all().iter();
        let publishing = publishing.filter(|l| !l.subscribe_labels(0).0.is_empty());
        assert!(publishing.count() >= 2);
        // Feed generators exist and most curated something.
        assert!(!world.feedgens.is_empty());
        let curating = world
            .feedgens
            .iter()
            .filter(|f| !world.feed_routes().entries(f).is_empty())
            .count();
        assert!(curating > 0);
        // The PLC directory has roughly one document per did:plc user.
        let (documents, _) = world.plc.export(None, usize::MAX);
        assert!(!documents.is_empty());
        assert!(documents.len() <= world.users.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = small_world();
        let mut b = small_world();
        for _ in 0..25 {
            a.step_day();
            b.step_day();
        }
        assert_eq!(a.users.len(), b.users.len());
        assert_eq!(a.ground_truth_totals(), b.ground_truth_totals());
        assert_eq!(
            a.relay.firehose().total_events(),
            b.relay.firehose().total_events()
        );
        assert_eq!(labels_issued(&a), labels_issued(&b));
    }

    #[test]
    fn different_seeds_differ() {
        let mut config = ScenarioConfig::test_scale(1);
        config.start = Datetime::from_ymd(2024, 2, 1).unwrap();
        config.end = Datetime::from_ymd(2024, 3, 15).unwrap();
        config.scale = 40_000;
        let mut a = World::new(config);
        let mut b = World::new(ScenarioConfig { seed: 2, ..config });
        for _ in 0..40 {
            a.step_day();
            b.step_day();
        }
        assert_ne!(a.ground_truth_totals(), b.ground_truth_totals());
    }

    #[test]
    fn shards_partition_the_population_exactly() {
        let config = small_config();
        let mut whole = World::new(config);
        whole.run_to_end();
        let shards = 3usize;
        let mut shard_users = 0usize;
        let mut shard_posts = 0u64;
        let mut shard_likes = 0u64;
        let mut shard_events = 0u64;
        for index in 0..shards {
            let mut shard = World::from_spec(WorldSpec::new(config).shard(ShardSpec {
                index,
                count: shards,
            }));
            shard.run_to_end();
            shard_users += shard.users.len();
            let (p, l) = shard.ground_truth_totals();
            shard_posts += p;
            shard_likes += l;
            shard_events += shard.relay.firehose().total_events();
        }
        // The union of the shards is exactly the serial world: same users,
        // same posts, same likes, same firehose events.
        assert_eq!(shard_users, whole.users.len());
        assert_eq!(
            (shard_posts, shard_likes),
            whole.ground_truth_totals(),
            "sharded activity must reproduce the serial run exactly"
        );
        assert_eq!(shard_events, whole.relay.firehose().total_events());
    }

    #[test]
    fn whois_records_are_domain_derived_and_shard_independent() {
        // Famous domains are shared by several users who can land on
        // different shards; the WHOIS answer must not depend on which user
        // (or shard) registered last.
        let config = small_config();
        for domain in ["nytimes.com", "cnn.com", "stanford.edu"] {
            let a = whois_registrar_for(config.seed, domain);
            let b = whois_registrar_for(config.seed, domain);
            assert_eq!(
                a.as_ref().map(|r| (r.iana_id, r.name.clone())),
                b.as_ref().map(|r| (r.iana_id, r.name.clone()))
            );
        }
        let mut whole = World::new(config);
        whole.run_to_end();
        for index in 0..2 {
            let mut shard =
                World::from_spec(WorldSpec::new(config).shard(ShardSpec { index, count: 2 }));
            shard.run_to_end();
            // Every domain the shard registered answers exactly as in the
            // serial world.
            for user in &shard.users {
                if let crate::population::HandleChoice::SelfManaged { domain, .. } =
                    &user.handle_choice
                {
                    let serial = whole
                        .whois
                        .query(domain)
                        .and_then(|r| r.registrar.as_ref().map(|g| (g.iana_id, g.name.clone())));
                    let sharded = shard
                        .whois
                        .query(domain)
                        .and_then(|r| r.registrar.as_ref().map(|g| (g.iana_id, g.name.clone())));
                    assert_eq!(serial, sharded, "domain {domain}");
                }
            }
        }
    }

    #[test]
    fn shards_reproduce_serial_label_streams() {
        let config = small_config();
        let mut whole = World::new(config);
        whole.run_to_end();
        let mut whole_labels: Vec<String> = whole
            .labelers
            .all()
            .iter()
            .flat_map(|l| l.subscribe_labels(0).0.iter())
            .map(|l| {
                format!(
                    "{}|{}|{}|{}|{}",
                    l.src,
                    l.target.uri(),
                    l.value,
                    l.negated,
                    l.created_at.to_iso8601()
                )
            })
            .collect();
        whole_labels.sort();

        let shards = 3usize;
        let mut sharded_labels: Vec<String> = Vec::new();
        for index in 0..shards {
            let mut shard = World::from_spec(WorldSpec::new(config).shard(ShardSpec {
                index,
                count: shards,
            }));
            shard.run_to_end();
            sharded_labels.extend(
                shard
                    .labelers
                    .all()
                    .iter()
                    .flat_map(|l| l.subscribe_labels(0).0.iter())
                    .map(|l| {
                        format!(
                            "{}|{}|{}|{}|{}",
                            l.src,
                            l.target.uri(),
                            l.value,
                            l.negated,
                            l.created_at.to_iso8601()
                        )
                    }),
            );
        }
        sharded_labels.sort();
        assert!(!whole_labels.is_empty());
        assert_eq!(whole_labels, sharded_labels);
    }

    #[test]
    fn appview_shards_and_store_do_not_change_the_world() {
        let config = small_config();
        let mut baseline = World::new(config);
        // Tiny paged stores and the inert AppView knobs: the run must spill
        // while simulating exactly the in-memory default's world.
        let mut paged = World::from_spec(
            WorldSpec::new(config)
                .store(StoreConfig::paged().page_size(2048).resident_pages(1))
                .appview_shards(4)
                .write_back(false),
        );
        for _ in 0..45 {
            baseline.step_day();
            paged.step_day();
        }
        assert_eq!(baseline.ground_truth_totals(), paged.ground_truth_totals());
        assert_eq!(
            baseline.relay.subscribe(0).events,
            paged.relay.subscribe(0).events
        );
        assert_eq!(labels_issued(&baseline), labels_issued(&paged));
        assert!(
            !curated(&baseline).is_empty(),
            "the window must curate posts"
        );
        assert_eq!(curated(&baseline), curated(&paged));
        // The paged run really spilled, and holds fewer resident bytes.
        let spilled = paged.fleet.store_stats();
        let mem = baseline.fleet.store_stats();
        assert!(
            spilled.spilled_bytes > 0,
            "the paged run never spilled: {spilled:?}"
        );
        assert!(spilled.resident_bytes < mem.resident_bytes);
    }

    #[test]
    fn feed_hydration_counts_a_tombstone_from_the_crawl_that_delivers_it() {
        // The collector hydrates a feed entry while the relay lists its
        // author: a post leaves the index only through its author's
        // `#tombstone`, and only once a crawl has delivered it.
        let mut world = small_world();
        for _ in 0..75 {
            world.step_day();
        }
        let entries = curated(&world);
        let deleted = entries[0].did().clone();
        let migrated = entries
            .iter()
            .map(|uri| uri.did())
            .find(|did| **did != deleted)
            .expect("two curated authors")
            .clone();
        // What the collector's feed snapshot serves, and one author's share.
        let hydrated = |world: &World| -> Vec<Arc<AtUri>> {
            let entries = curated(world).into_iter();
            entries
                .filter(|uri| world.relay.lists_repo(uri.did()))
                .collect()
        };
        let posts_of = |uris: &[Arc<AtUri>], author: &Did| {
            uris.iter().filter(|uri| uri.did() == author).count()
        };
        let (deleted_posts, migrated_posts) =
            (posts_of(&entries, &deleted), posts_of(&entries, &migrated));
        assert!(deleted_posts > 0 && migrated_posts > 0);
        assert_eq!(posts_of(&hydrated(&world), &deleted), deleted_posts);

        // Deleted after the day's last crawl: the tombstone sits in the
        // PDS outbox, so the author's posts still hydrate.
        let today = world.today;
        let pds = world.fleet.pds_for_mut(&deleted).unwrap();
        pds.delete_account(&deleted, today).unwrap();
        assert_eq!(posts_of(&hydrated(&world), &deleted), deleted_posts);

        // A migration moves the repository, not its posts.
        let origin = world.fleet.locate(&migrated).unwrap().to_string();
        let destination = world
            .fleet
            .servers()
            .map(|pds| pds.hostname().to_string())
            .find(|host| *host != origin)
            .unwrap();
        let handle = world.users.iter().find(|u| u.did == migrated).unwrap();
        let handle = handle.handle.clone();
        world
            .fleet
            .migrate_account(&migrated, &destination, handle, today)
            .unwrap();

        // The next crawl delivers both: the tombstoned author's curated
        // posts are gone, the migrated author's stay.
        world.crawl(today);
        let served = hydrated(&world);
        assert_eq!(posts_of(&served, &deleted), 0);
        assert_eq!(posts_of(&served, &migrated), migrated_posts);
    }

    #[test]
    fn chunked_day_steps_match_whole_day_steps() {
        let config = small_config();
        let mut coarse = World::new(config);
        let mut fine = World::new(config);
        for _ in 0..60 {
            coarse.step_day();
            let Some(mut cursor) = fine.begin_day() else {
                break;
            };
            // Tiny chunks: crawl after every ~4 pending events.
            while !fine.step_chunk(&mut cursor, 4) {}
            fine.end_day(cursor);
        }
        assert_eq!(coarse.ground_truth_totals(), fine.ground_truth_totals());
        assert_eq!(
            coarse.relay.firehose().total_events(),
            fine.relay.firehose().total_events()
        );
        assert_eq!(curated(&coarse), curated(&fine));
    }

    #[test]
    fn federated_world_matches_single_relay_world() {
        let config = small_config();
        let mut single = World::new(config);
        let mut fed = World::from_spec(WorldSpec::new(config).relays(2));
        for _ in 0..45 {
            single.step_day();
            fed.step_day();
        }
        assert_eq!(single.ground_truth_totals(), fed.ground_truth_totals());
        // The super-relay's firehose equals the single relay's: same frame
        // bodies, times and sequence numbers, same lifetime volume.
        assert_eq!(
            single.relay.subscribe(0).events,
            fed.relay.subscribe(0).events
        );
        assert_eq!(
            single.relay.firehose().total_events(),
            fed.relay.firehose().total_events()
        );
        assert_eq!(
            single.relay.known_account_count(),
            fed.relay.known_account_count()
        );
        assert_eq!(
            single.relay.list_repos(None, usize::MAX),
            fed.relay.list_repos(None, usize::MAX)
        );
        // Everything travelled through the regional tier: forwarding and
        // dedup tracking are live, and a clean partition never deduplicates.
        let stats = fed.relay.stats();
        assert!(stats.events_forwarded() > 0);
        assert_eq!(stats.events_forwarded(), stats.dedup_tracked());
        assert_eq!(stats.duplicates_dropped(), 0);
    }
}
