//! The pinned surface: every call the benchmark makes into the repository
//! is in this file and nowhere else, one small function per call, so that a
//! later change to the repository can tell from one file whether it breaks
//! the benchmark. `README.md` lists the same surface.
//!
//! Bound to what the roadmap's one-path refactor keeps (`StudyReport::run`,
//! `collect_sharded`, the `RunSpec` builder, `World::from_spec` /
//! `begin_day` / `step_chunk` / `end_day`, `Collector::stream`,
//! `ShardSink`, `StudyAnalyzers`) and to nothing it plans to delete.
//!
//! What is timed is decided in `layers.rs`, which wraps these functions in
//! its stopwatches. A function here reads the clock only where the call to
//! be timed cannot be reached from outside: the two sinks, which the engine
//! and the collector call, the engine's wall interval, and the day loop,
//! which must keep the tape recorder off the world's clock.

use crate::trace::{now_ns, ShardTrace, Stopwatch};
use bsky_appview::AppViewShards;
use bsky_atproto::blockstore::{BlockStore, StoreConfig, WriteBackStore};
use bsky_atproto::firehose::EventBody;
use bsky_atproto::mst::Mst;
use bsky_atproto::record::Record;
use bsky_atproto::repo::{DeltaScope, Repository, Write};
use bsky_atproto::{Cid, Datetime, Did, Handle, Nsid, Tid};
use bsky_pds::{Pds, PdsFleet, PdsOperator};
use bsky_relay::{Relay, RelayFederation};
use bsky_study::faults::FaultPlan;
use bsky_study::{
    collect_sharded, Collector, Observation, ObservationSink, RunSpec, ShardSink, StudyAnalyzers,
    StudyCtx, StudyReport,
};
use bsky_workload::{PopulationPlan, ScenarioConfig, World, WorldSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

pub use bsky_study::json::Json;

/// The study run description handed to the program under test.
pub type Spec = RunSpec;
/// A block identifier (the layers pass these around without looking inside).
pub type BlockId = Cid;

/// Events the producer asks the relay for per subscription read; the same
/// chunk the study's collector uses.
const CHUNK_EVENTS: usize = 256;
/// Page geometry of every paged store the benchmark builds: small pages
/// and two resident ones, so that repositories of a few dozen records
/// already spill and read back.
const PAGE_BYTES: usize = 8192;
const RESIDENT_PAGES: usize = 2;
/// The collector's weekly compaction keeps two weeks of history.
const COMPACTION_WINDOW_DAYS: i64 = 14;

// ---------------------------------------------------------------------------
// Run description
// ---------------------------------------------------------------------------

/// What a workload changes on `ScenarioConfig::repro_scale(seed)` and
/// `RunSpec::new`; everything else keeps its default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    pub scale: u64,
    pub shards: usize,
    pub paged: bool,
    pub appview_shards: usize,
    pub relays: usize,
    /// Collect the firehose from the first simulated day, not from the
    /// paper's 2024-03-06.
    pub full_window: bool,
    pub pipeline: bool,
}

fn paged_store(spill_root: &Path) -> StoreConfig {
    StoreConfig::paged()
        .page_size(PAGE_BYTES)
        .resident_pages(RESIDENT_PAGES)
        .spill_dir(spill_root.to_string_lossy())
}

/// Build and validate the run description. `spill_root` is where paged
/// stores put their files.
pub fn build_spec(seed: u64, knobs: &Knobs, spill_root: &Path) -> Result<Spec, String> {
    let mut config = ScenarioConfig::repro_scale(seed);
    config.scale = knobs.scale;
    if knobs.full_window {
        config.firehose_collection_start = config.start;
    }
    let mut spec = RunSpec::new(config)
        .shards(knobs.shards)
        .jobs(knobs.shards)
        .appview_shards(knobs.appview_shards)
        .relays(knobs.relays)
        .pipeline(knobs.pipeline)
        .analyzer_threads(1);
    if knobs.paged {
        spec = spec.store(paged_store(spill_root));
    }
    spec.validate()?;
    Ok(spec)
}

/// The same run on one shard and one thread with no analyzer pipeline: what
/// the producer-side passes (bare world, null-sink stream, tape) drive.
pub fn serial_unpipelined(spec: &Spec) -> Spec {
    spec.clone().shards(1).jobs(1).pipeline(false)
}

/// The same run with the analyzer pipeline off: the traced sink folds on
/// the producer's thread so that its spans nest under the shard's days.
pub fn unpipelined(spec: &Spec) -> Spec {
    spec.clone().pipeline(false)
}

pub fn total_days(spec: &Spec) -> usize {
    spec.config.end.days_since(spec.config.start).max(0) as usize
}

pub fn planned_users(spec: &Spec) -> u64 {
    spec.config.target_users()
}

fn fault_plan(spec: &Spec) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::build(
        spec.config.seed,
        total_days(spec),
        spec.faults.clone(),
    ))
}

fn whole_world(spec: &Spec, faults: Arc<FaultPlan>) -> World {
    World::from_spec(
        WorldSpec::new(spec.config)
            .plan(Arc::new(PopulationPlan::build(&spec.config)))
            .store(spec.store.clone())
            .appview_shards(spec.appview_shards)
            .write_back(spec.write_back)
            .relays(spec.relays)
            .faults(faults),
    )
}

/// Everything a study does before its first simulated day: validate the
/// spec, build the population and fault plans and one world. The study
/// repeats this itself; the probe exists so that work moved into set-up
/// shows in `setup_s`.
pub fn setup_probe(spec: &Spec) {
    spec.validate().expect("the spec was validated when built");
    black_box(whole_world(spec, fault_plan(spec)));
}

// ---------------------------------------------------------------------------
// The study, untraced
// ---------------------------------------------------------------------------

/// The merged run counters the benchmark reads, by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(key, _)| *key == name)
            .map_or(0, |(_, value)| *value)
    }
}

fn counters(summary: &bsky_study::StreamSummary) -> Counters {
    Counters(vec![
        ("days", summary.days as u64),
        ("observations", summary.observations),
        ("firehose_events", summary.firehose_events),
        (
            "peak_in_flight_events",
            summary.peak_in_flight_events as u64,
        ),
        ("listrepos_snapshots", summary.listrepos_snapshots as u64),
        ("snapshot_bytes_fetched", summary.snapshot_bytes_fetched),
        ("repo_full_fetches", summary.repo_full_fetches),
        ("repo_delta_fetches", summary.repo_delta_fetches),
        ("repo_snapshot_skips", summary.repo_snapshot_skips),
        ("store_bytes_reclaimed", summary.store_bytes_reclaimed),
        ("resident_block_bytes", summary.resident_block_bytes),
        ("spilled_block_bytes", summary.spilled_block_bytes),
        ("store_corrupt_reads", summary.store_corrupt_reads),
        ("counter_coalesced_writes", summary.counter_coalesced_writes),
        ("writeback_flushes", summary.writeback_flushes),
        ("writeback_hits", summary.writeback_hits),
        ("writeback_misses", summary.writeback_misses),
        ("identity_lookups", summary.identity_lookups),
        ("fetch_retry_giveups", summary.fetch_retry_giveups),
        ("dns_retry_giveups", summary.dns_retry_giveups),
        ("pipeline_batches", summary.pipeline_batches),
        ("relay_events_forwarded", summary.relay_events_forwarded),
        ("relay_duplicates_dropped", summary.relay_duplicates_dropped),
        ("relay_dedup_tracked", summary.relay_dedup_tracked),
    ])
}

/// One finished study: the rendered report, the merged counters, and the
/// report's own event total (Table 1) for the conservation check.
pub struct StudyOutcome {
    pub report: String,
    pub counters: Counters,
    pub table1_events: u64,
}

/// The program under test: `StudyReport::run` plus `render`.
pub fn run_study(spec: &Spec) -> StudyOutcome {
    let (report, summary) = StudyReport::run(spec);
    StudyOutcome {
        report: report.render(),
        counters: counters(&summary.merged),
        table1_events: report.table1.total,
    }
}

// ---------------------------------------------------------------------------
// The study, traced
// ---------------------------------------------------------------------------

/// Span names of the eight analyzers, in `observe_part` order.
pub const ANALYZERS: [&str; 8] = [
    "core.analysis.table1",
    "core.analysis.activity",
    "core.analysis.section4",
    "core.analysis.identity",
    "core.analysis.moderation",
    "core.analysis.recommendation",
    "core.analysis.volume",
    "core.analysis.observatory",
];

/// The study's analyzer set behind a span recorder: folds exactly what
/// `StudyAnalyzers` folds and records one span per analyzer call.
#[derive(Default)]
pub struct TracedSink {
    analyzers: StudyAnalyzers,
    own: ShardTrace,
    absorbed: Vec<ShardTrace>,
}

impl ObservationSink for TracedSink {
    fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
        let boundary = matches!(obs, Observation::DayBoundary { .. });
        let mut at = self.own.observation_start(boundary);
        for (part, name) in ANALYZERS.iter().enumerate() {
            self.analyzers.observe_part(part, obs, ctx);
            at = self.own.child_done(name, at);
        }
    }
}

impl ShardSink for TracedSink {
    // The engine absorbs shards in shard-index order, so the position in
    // `absorbed` is the shard index.
    fn absorb(&mut self, mut other: TracedSink) {
        self.analyzers.merge(other.analyzers);
        if !other.own.is_empty() {
            self.absorbed.push(other.own);
        }
        self.absorbed.append(&mut other.absorbed);
    }
}

/// One traced study: the engine's wall interval, the report stages timed
/// apart, and every shard's spans.
pub struct TracedOutcome {
    pub report: String,
    pub counters: Counters,
    pub collect_start_ns: u64,
    pub collect_end_ns: u64,
    pub finish: Stopwatch,
    pub render: Stopwatch,
    pub shards: Vec<ShardTrace>,
}

pub fn run_traced(spec: &Spec) -> TracedOutcome {
    let collect_start_ns = now_ns();
    let (sink, world, summary) = collect_sharded(spec, TracedSink::default());
    let collect_end_ns = now_ns();
    let mut finish = Stopwatch::default();
    let report = finish.time(|| StudyReport::from_analyzers(spec.config, sink.analyzers, &world));
    let mut render = Stopwatch::default();
    let report = render.time(|| report.render());
    TracedOutcome {
        report,
        counters: counters(&summary.merged),
        collect_start_ns,
        collect_end_ns,
        finish,
        render,
        shards: sink.absorbed,
    }
}

// ---------------------------------------------------------------------------
// The producer alone: collector over a world, folding nothing
// ---------------------------------------------------------------------------

/// A sink that folds nothing. It marks the day boundaries and charges the
/// owned copy the analyzer pipeline would make of every observation to its
/// own stopwatch, so the caller can take that time back out of the stream.
#[derive(Default)]
pub struct ProbeSink {
    pub day_marks_ns: Vec<u64>,
    pub to_owned: Stopwatch,
}

impl ObservationSink for ProbeSink {
    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        if matches!(obs, Observation::DayBoundary { .. }) {
            self.day_marks_ns.push(now_ns());
        }
        self.to_owned.time(|| obs.to_owned_observation());
    }
}

/// `Collector::stream` over a whole-population world into a [`ProbeSink`].
/// The world is built before the clock starts.
pub fn stream_probe(spec: &Spec, wall: &mut Stopwatch) -> (ProbeSink, Counters) {
    let faults = fault_plan(spec);
    let mut world = whole_world(spec, faults.clone());
    let mut collector = Collector::new()
        .store(spec.store.clone())
        .framing(spec.framing)
        .faults(faults);
    let mut sink = ProbeSink::default();
    let summary = wall.time(|| collector.stream(&mut world, &mut sink));
    (sink, counters(&summary))
}

// ---------------------------------------------------------------------------
// The bare world and the commit tape
// ---------------------------------------------------------------------------

/// A whole-population world stepped with no collector attached, and the
/// tape of what its PDS fleet committed.
pub struct BareWorld {
    world: World,
    cursor: u64,
    handles: BTreeMap<String, Handle>,
    created: BTreeSet<String>,
    raw: Vec<RawItem>,
}

enum RawItem {
    Account {
        did: Did,
        host: String,
        at: Datetime,
    },
    Commit {
        did: Did,
        at: Datetime,
        keys: Vec<String>,
    },
}

impl BareWorld {
    pub fn new(spec: &Spec) -> BareWorld {
        let world = whole_world(spec, fault_plan(spec));
        let handles = (0..world.plan.len())
            .map(|index| {
                let profile = world.plan.profile(index);
                (profile.did.to_string(), profile.handle.clone())
            })
            .collect();
        BareWorld {
            world,
            cursor: 0,
            handles,
            created: BTreeSet::new(),
            raw: Vec::new(),
        }
    }

    /// Step one simulated day the way the collector does (`begin_day`, then
    /// `step_chunk` until the day is exhausted, then `end_day`), charging
    /// only those calls to `busy`. Between chunks the relay's new events go
    /// onto the tape, charged to `recording`. Returns `false` once the
    /// window is over.
    pub fn step_day(&mut self, busy: &mut Stopwatch, recording: &mut Stopwatch) -> bool {
        busy.start();
        let Some(mut cursor) = self.world.begin_day() else {
            busy.stop();
            return false;
        };
        loop {
            let done = self.world.step_chunk(&mut cursor, CHUNK_EVENTS);
            busy.stop();
            recording.time(|| self.record_new_events());
            busy.start();
            if done {
                break;
            }
        }
        self.world.end_day(cursor);
        busy.stop();
        true
    }

    fn record_new_events(&mut self) {
        let sub = self.world.relay.subscribe(self.cursor);
        self.cursor = sub.cursor;
        for event in sub.events {
            match event.body {
                EventBody::Commit { did, ops, .. } => self.raw.push(RawItem::Commit {
                    did,
                    at: event.time,
                    keys: ops.into_iter().map(|op| op.key).collect(),
                }),
                // An account's first identity event is its creation; later
                // ones (migrations) are not replayed.
                EventBody::Identity { did } if self.created.insert(did.to_string()) => {
                    let host = self
                        .world
                        .relay
                        .event_origin(event.seq)
                        .map(|origin| origin.host.clone());
                    if let Some(host) = host {
                        self.raw.push(RawItem::Account {
                            did,
                            host,
                            at: event.time,
                        });
                    }
                }
                _ => {}
            }
        }
    }

    /// (posts, likes) the world generated: its own ground truth.
    pub fn ground_truth(&self) -> (u64, u64) {
        self.world.ground_truth_totals()
    }

    /// Finish the tape: look every committed record up in the final
    /// repositories. Commits keep their batching. A record whose repository
    /// is gone (a deleted account) cannot be looked up; its write is left
    /// out and counted.
    pub fn into_tape(self) -> Tape {
        let mut tape = Tape::default();
        for item in self.raw {
            match item {
                RawItem::Account { did, host, at } => {
                    if let Some(handle) = self.handles.get(&did.to_string()) {
                        tape.items.push(TapeItem::Account(TapeAccount {
                            did,
                            handle: handle.clone(),
                            host,
                            at,
                        }));
                    }
                }
                RawItem::Commit { did, at, keys } => {
                    let repo = self
                        .world
                        .fleet
                        .pds_for(&did)
                        .and_then(|pds| pds.repo(&did));
                    let mut writes = Vec::with_capacity(keys.len());
                    for key in &keys {
                        let found = key.split_once('/').and_then(|(collection, rkey)| {
                            let collection = Nsid::parse(collection).ok()?;
                            let record = repo?.get_record(&collection, rkey)?;
                            Some(Write::Create {
                                collection,
                                rkey: rkey.to_string(),
                                record,
                            })
                        });
                        match found {
                            Some(write) => writes.push(write),
                            None => tape.writes_lost += 1,
                        }
                    }
                    if !writes.is_empty() {
                        tape.items.push(TapeItem::Commit(TapeCommit {
                            did_key: did.to_string(),
                            did,
                            at,
                            writes,
                        }));
                    }
                }
            }
        }
        tape
    }
}

pub struct TapeAccount {
    did: Did,
    handle: Handle,
    host: String,
    at: Datetime,
}

pub struct TapeCommit {
    did: Did,
    did_key: String,
    at: Datetime,
    writes: Vec<Write>,
}

pub enum TapeItem {
    Account(TapeAccount),
    Commit(TapeCommit),
}

/// What the fleet committed, in firehose order, with commit batching kept.
#[derive(Default)]
pub struct Tape {
    pub items: Vec<TapeItem>,
    /// Writes left off the tape because their repository no longer exists.
    pub writes_lost: u64,
}

impl TapeItem {
    /// Days since the Unix epoch.
    pub fn day(&self) -> i64 {
        match self {
            TapeItem::Account(account) => account.at.day_index(),
            TapeItem::Commit(commit) => commit.at.day_index(),
        }
    }
}

impl TapeCommit {
    pub fn did_key(&self) -> &str {
        &self.did_key
    }

    pub fn writes(&self) -> usize {
        self.writes.len()
    }

    /// `Record::to_cbor` for every write of the commit.
    pub fn encode_records(&self, out: &mut Vec<Vec<u8>>) {
        for write in &self.writes {
            if let Write::Create { record, .. } = write {
                out.push(record.to_cbor());
            }
        }
    }

    /// The MST key of every write, in write order.
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        self.writes.iter().filter_map(|write| match write {
            Write::Create {
                collection, rkey, ..
            } => Some(format!("{}/{rkey}", collection.as_str())),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Codecs over the tape's blocks
// ---------------------------------------------------------------------------

/// `Cid::for_cbor`: one SHA-256 over the block.
pub fn hash_block(bytes: &[u8]) -> BlockId {
    Cid::for_cbor(bytes)
}

/// `Record::from_cbor`; whether the block decoded.
pub fn decode_record(bytes: &[u8]) -> bool {
    black_box(Record::from_cbor(bytes)).is_ok()
}

/// One search tree per repository, as the PDS keeps them.
#[derive(Default)]
pub struct MstForest(BTreeMap<String, Mst>);

impl MstForest {
    /// What a commit asks of the tree: `Mst::insert` per key, then one
    /// `root_cid()`.
    pub fn commit(&mut self, did_key: &str, entries: &[(String, BlockId)]) -> BlockId {
        let tree = self.0.entry(did_key.to_string()).or_default();
        for (key, cid) in entries {
            tree.insert(key, *cid)
                .expect("tape keys are valid MST keys");
        }
        tree.root_cid()
    }
}

// ---------------------------------------------------------------------------
// Block stores
// ---------------------------------------------------------------------------

pub struct Store(Box<dyn BlockStore>);

/// What a store says about itself when asked.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreReadout {
    pub spilled_bytes: u64,
    pub corrupt_reads: u64,
    pub writeback_hits: u64,
    pub writeback_misses: u64,
    pub writeback_flushes: u64,
}

impl Store {
    pub fn mem() -> Store {
        Store(StoreConfig::mem().build())
    }

    pub fn paged(spill_root: &Path) -> Store {
        Store(paged_store(spill_root).build())
    }

    pub fn write_back_over_paged(spill_root: &Path) -> Store {
        Store(Box::new(WriteBackStore::new(
            paged_store(spill_root).build(),
        )))
    }

    pub fn put(&mut self, cid: BlockId, bytes: Vec<u8>) {
        self.0.put(cid, bytes);
    }

    /// Length of the block read, 0 when absent.
    pub fn get(&self, cid: &BlockId) -> usize {
        black_box(self.0.get(cid)).map_or(0, |bytes| bytes.len())
    }

    pub fn flush(&mut self) {
        self.0.flush();
    }

    pub fn readout(&self) -> StoreReadout {
        let stats = self.0.stats();
        StoreReadout {
            spilled_bytes: stats.spilled_bytes as u64,
            corrupt_reads: stats.corrupt_reads,
            writeback_hits: stats.writeback_hits,
            writeback_misses: stats.writeback_misses,
            writeback_flushes: stats.writeback_flushes,
        }
    }
}

// ---------------------------------------------------------------------------
// Tape replay: PDS fleet, relay, federation, AppView
// ---------------------------------------------------------------------------

/// A fresh PDS fleet the tape is replayed into, over the store backend of
/// the workload's spec.
pub struct ReplayFleet {
    fleet: PdsFleet,
}

impl ReplayFleet {
    /// Every host on the tape exists from the start, as in the world: a
    /// federation splits the fleet by hostname, so a host that appeared
    /// later would move others between regions.
    pub fn new(spec: &Spec, tape: &Tape) -> ReplayFleet {
        let hosts: BTreeSet<&str> = tape
            .items
            .iter()
            .filter_map(|item| match item {
                TapeItem::Account(account) => Some(account.host.as_str()),
                TapeItem::Commit(_) => None,
            })
            .collect();
        let mut fleet = PdsFleet::new();
        for host in hosts {
            fleet.add_server(Pds::with_store(
                host,
                PdsOperator::BlueskyPbc,
                spec.store.clone(),
            ));
        }
        ReplayFleet { fleet }
    }

    /// `PdsFleet::create_account_on`.
    pub fn create_account(&mut self, account: &TapeAccount) -> bool {
        self.fleet
            .create_account_on(
                &account.host,
                account.did.clone(),
                account.handle.clone(),
                account.at,
            )
            .is_ok()
    }

    /// `Pds::apply_writes` with the commit's whole batch.
    pub fn commit(&mut self, commit: &TapeCommit) -> bool {
        self.fleet.pds_for_mut(&commit.did).is_some_and(|pds| {
            pds.apply_writes(&commit.did, &commit.writes, commit.at)
                .is_ok()
        })
    }

    fn repos(&self) -> impl Iterator<Item = &Repository> {
        self.fleet.servers().flat_map(|pds| {
            pds.hosted_dids()
                .into_iter()
                .filter_map(|did| pds.repo(&did))
        })
    }

    /// Every hosted repository's DID and head revision.
    pub fn heads(&self) -> Vec<RepoHead> {
        self.repos()
            .filter_map(|repo| {
                Some(RepoHead {
                    did: repo.did().clone(),
                    rev: repo.rev()?,
                })
            })
            .collect()
    }

    fn repo(&self, did: &Did) -> Option<&Repository> {
        self.fleet.pds_for(did)?.repo(did)
    }

    /// `Repository::export_car`.
    pub fn export_car(&self, head: &RepoHead) -> Vec<u8> {
        self.repo(&head.did)
            .map_or_else(Vec::new, Repository::export_car)
    }

    /// `Repository::export_car_since` from `head.rev`, full scope.
    pub fn export_since(&self, head: &RepoHead) -> Option<Vec<u8>> {
        self.repo(&head.did)?
            .export_car_since(&head.rev, DeltaScope::Full)
            .ok()
    }

    /// `PdsFleet::compact_all` keeping the collector's two-week window
    /// before `day`; bytes reclaimed.
    pub fn compact(&mut self, day: i64) -> u64 {
        let cutoff_seconds = ((day - COMPACTION_WINDOW_DAYS) * 86_400).max(0) as u64;
        let cutoff = Tid::from_micros(cutoff_seconds * 1_000_000, 0);
        self.fleet.compact_all(&cutoff).bytes_reclaimed as u64
    }
}

/// A repository at one revision.
pub struct RepoHead {
    did: Did,
    rev: Tid,
}

/// `Repository::parse_car`; blocks parsed.
pub fn parse_car(car: &[u8]) -> usize {
    black_box(Repository::parse_car(car)).map_or(0, |(_, blocks)| blocks.len())
}

/// `Repository::apply_delta`; whether the delta applied.
pub fn apply_delta(base: &[u8], delta: &[u8]) -> bool {
    black_box(Repository::apply_delta(base, delta)).is_ok()
}

fn end_of_day(day: i64) -> Datetime {
    Datetime::from_ymd(1970, 1, 1)
        .expect("the epoch is a date")
        .plus_days(day)
        .plus_seconds(86_399)
}

/// A fresh single relay crawling the replayed fleet.
pub struct ReplayRelay {
    relay: Relay,
    cursor: u64,
}

impl ReplayRelay {
    pub fn new(spec: &Spec) -> ReplayRelay {
        ReplayRelay {
            relay: Relay::with_store("bsky.network", &spec.store),
            cursor: 0,
        }
    }

    /// `Relay::crawl` at the end of `day`; events ingested.
    pub fn crawl(&mut self, fleet: &ReplayFleet, day: i64) -> usize {
        self.relay.crawl(&fleet.fleet, end_of_day(day))
    }

    /// `Relay::subscribe` from the last cursor; events read.
    pub fn subscribe(&mut self) -> usize {
        let sub = self.relay.subscribe(self.cursor);
        self.cursor = sub.cursor;
        black_box(&sub.events).len()
    }

    /// `Relay::get_repo` through the mirror; bytes served.
    pub fn get_repo(&mut self, head: &RepoHead, fleet: &mut ReplayFleet, day: i64) -> usize {
        self.relay
            .get_repo(&head.did, &mut fleet.fleet, end_of_day(day))
            .map_or(0, |car| car.len())
    }
}

/// Two regional relays forwarding into a hub, over the replayed fleet.
pub struct ReplayFederation {
    regions: RelayFederation,
    hub: Relay,
}

impl ReplayFederation {
    pub fn new(spec: &Spec) -> ReplayFederation {
        ReplayFederation {
            regions: RelayFederation::new(2, &spec.store),
            hub: Relay::with_store("bsky.network", &spec.store),
        }
    }

    /// `RelayFederation::crawl_and_forward` at the end of `day`.
    pub fn crawl_and_forward(&mut self, fleet: &ReplayFleet, day: i64) -> usize {
        self.regions
            .crawl_and_forward(&mut self.hub, &fleet.fleet, end_of_day(day))
    }

    /// (forwarded, dedup tracked, duplicates dropped) at the hub.
    pub fn readout(&self) -> (u64, u64, u64) {
        let stats = self.hub.stats();
        (
            stats.events_forwarded(),
            stats.dedup_tracked(),
            stats.duplicates_dropped(),
        )
    }
}

/// A fresh AppView index set the tape is replayed into.
pub struct ReplayAppView(AppViewShards);

impl ReplayAppView {
    /// One in-memory shard, write-back on: the study's default.
    pub fn mem() -> ReplayAppView {
        ReplayAppView(AppViewShards::with_shards(1, &StoreConfig::mem(), true))
    }

    /// Four paged shards, write-back on: what `paged_fed` runs.
    pub fn paged4(spill_root: &Path) -> ReplayAppView {
        ReplayAppView(AppViewShards::with_shards(
            4,
            &paged_store(spill_root),
            true,
        ))
    }

    /// `AppViewShards::upsert_actor`.
    pub fn upsert_actor(&mut self, account: &TapeAccount) {
        self.0.upsert_actor(&account.did, &account.handle);
    }

    /// `AppViewShards::index_record` for every write of the commit.
    pub fn index_commit(&mut self, commit: &TapeCommit) {
        for write in &commit.writes {
            if let Write::Create {
                collection,
                rkey,
                record,
            } = write
            {
                self.0
                    .index_record(&commit.did, collection, rkey, record, commit.at);
            }
        }
    }

    /// `AppViewShards::flush`, the day-boundary flush.
    pub fn flush(&mut self) {
        self.0.flush();
    }

    pub fn records_indexed(&self) -> u64 {
        self.0.records_indexed()
    }

    pub fn coalesced_writes(&self) -> u64 {
        self.0.counter_coalesced_writes()
    }

    /// (hits, misses) of the write-back caches over the entity stores.
    pub fn writeback_reads(&self) -> (u64, u64) {
        let stats = self.0.store_stats();
        (stats.writeback_hits, stats.writeback_misses)
    }
}
