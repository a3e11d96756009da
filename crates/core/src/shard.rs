//! The sharded study engine: partition the population by DID hash, run one
//! producer + sink per shard on worker threads, and merge the per-shard
//! sink states into one result.
//!
//! The correctness contract is exact: because every stochastic decision in
//! the [`World`] derives from `(seed, DID, day)` and every sink implements
//! the merge law (see [`crate::pipeline`]), the merged result is
//! **byte-identical** to the serial run's for any shard count — pinned by
//! the golden test in `tests/pipeline_equivalence.rs`. Shards are merged in
//! shard-index order on the coordinating thread, so thread scheduling never
//! influences the result; [`RunSpec::jobs`] only bounds how many shards are
//! in flight at once.
//!
//! ## The intra-shard pipeline
//!
//! Sharding parallelizes *across* shards; `PipelinedSink`
//! ([`RunSpec::pipeline`], repro `--pipeline`) parallelizes *inside* one:
//! the producer materializes its borrowed bus items into sequence-numbered
//! [`ObservationBatch`]es and ships them over bounded channels to
//! [`RunSpec::analyzer_threads`] workers, each of which owns a disjoint
//! subset of the sink's [`ShardSink::fan_out_parts`] (the eight study
//! analyzers). Backpressure on the bounded channel preserves today's
//! memory bound; workers assert contiguous sequence order, so every part
//! folds the exact serial stream; and at shard end the parts are absorbed
//! back together in part order — exact by the merge law, because merging
//! a folded part into a default-state peer is the identity. Every
//! observation, the end-of-window snapshots included, folds on the workers:
//! no analyzer reads the world, because the collector takes §5's active
//! measurements itself and ships them on the DID documents. The result is
//! byte-identical for any `(shards, jobs, analyzer_threads)` — pinned by
//! the golden tests.
//!
//! Every run knob rides in on the [`RunSpec`]: the store backend changes
//! only where blocks reside, framing only the wire accounting, and fault
//! plans inject identically across shard counts — none of them moves a
//! byte of the merged report.

use crate::activity::{ActivityAnalyzer, Section4Analyzer};
use crate::collect::{Collector, DEFAULT_CHUNK_EVENTS};
use crate::identity::IdentityAnalyzer;
use crate::moderation::ModerationAnalyzer;
use crate::observatory::ObservatoryAnalyzer;
use crate::pipeline::{
    Analyzer, Observation, ObservationBatch, ObservationSink, OwnedObservation, StreamSummary,
    StudyCtx,
};
use crate::recommendation::RecommendationAnalyzer;
use crate::spec::RunSpec;
use crate::table1::{FirehoseVolumeAnalyzer, Table1Analyzer};
use bsky_workload::faults::FaultPlan;
use bsky_workload::{PopulationPlan, ShardSpec, World, WorldSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// An observation sink that can run sharded: each shard folds observations
/// into a fresh [`Default`] instance on its worker thread, and the
/// coordinating thread absorbs the per-shard states in shard-index order.
///
/// `absorb` must be associative and agree with serial observation order —
/// the same merge law every `Analyzer` obeys — so that the sharded result
/// is byte-identical to the serial one. (`'static` because shard workers
/// and the intra-shard pipeline move sink instances across threads.)
pub trait ShardSink: ObservationSink + Default + Send + 'static {
    /// Fold another instance's state into this one.
    fn absorb(&mut self, other: Self);

    /// How many independently foldable parts this sink splits into for
    /// analyzer fan-out (`PipelinedSink`). Each part must fold
    /// observations without reading any other part's state, so that a
    /// fresh instance folding only part `p` of the stream, absorbed into
    /// peers that folded the other parts, reassembles the serial fold
    /// exactly (the merge law, partwise). Sinks without internal structure
    /// keep the default single part.
    fn fan_out_parts() -> usize {
        1
    }

    /// Fold one observation into part `part` only (`0..fan_out_parts()`).
    /// The default forwards to [`ObservationSink::observe`], which is only
    /// correct for single-part sinks.
    fn observe_part(&mut self, part: usize, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
        debug_assert_eq!(part, 0, "multi-part sinks must override observe_part");
        self.observe(obs, ctx);
    }
}

/// The report's eight analyzers as one concrete, mergeable set.
#[derive(Debug, Default)]
pub struct StudyAnalyzers {
    /// Table 1.
    pub(crate) table1: Table1Analyzer,
    /// Figures 1–2, §4 totals.
    pub(crate) activity: ActivityAnalyzer,
    /// §4 popularity.
    pub(crate) section4: Section4Analyzer,
    /// §5 identity.
    pub(crate) identity: IdentityAnalyzer,
    /// §6 moderation.
    pub(crate) moderation: ModerationAnalyzer,
    /// §7 recommendation.
    pub(crate) recommendation: RecommendationAnalyzer,
    /// §9 firehose volume.
    pub(crate) volume: FirehoseVolumeAnalyzer,
    /// §10 wire-traffic observatory.
    pub(crate) observatory: ObservatoryAnalyzer,
    /// Bit `p` is set once fan-out part `p` has folded an observation or
    /// absorbed a part that had: while it is clear, that analyzer is in its
    /// default state.
    touched: u8,
}

impl StudyAnalyzers {
    /// Merge another set's state into this one (partwise). A part `other`
    /// never touched is left as it is, and a part this set never touched
    /// takes `other`'s whole: merging with the default state is the
    /// identity (the merge law), so both are exact, and they spare a serial
    /// run's one absorb, and a pipelined shard's end, from re-inserting
    /// every map entry.
    pub fn merge(&mut self, other: StudyAnalyzers) {
        let (mine, theirs) = (self.touched, other.touched);
        self.touched |= theirs;
        // Parts numbered as in `observe_part`.
        let part = |p: u8| (mine & 1 << p != 0, theirs & 1 << p != 0);
        merge_part(&mut self.table1, other.table1, part(0));
        merge_part(&mut self.activity, other.activity, part(1));
        merge_part(&mut self.section4, other.section4, part(2));
        merge_part(&mut self.identity, other.identity, part(3));
        merge_part(&mut self.moderation, other.moderation, part(4));
        merge_part(&mut self.recommendation, other.recommendation, part(5));
        merge_part(&mut self.volume, other.volume, part(6));
        merge_part(&mut self.observatory, other.observatory, part(7));
    }
}

/// Merge one fan-out part, given whether each side has touched it.
fn merge_part<A: Analyzer>(mine: &mut A, theirs: A, (have, got): (bool, bool)) {
    match (have, got) {
        (_, false) => {}
        (false, true) => *mine = theirs,
        (true, true) => mine.merge(theirs),
    }
}

impl ObservationSink for StudyAnalyzers {
    fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
        for part in 0..Self::fan_out_parts() {
            self.observe_part(part, obs, ctx);
        }
    }
}

impl ShardSink for StudyAnalyzers {
    fn absorb(&mut self, other: Self) {
        self.merge(other);
    }

    fn fan_out_parts() -> usize {
        8
    }

    fn observe_part(&mut self, part: usize, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        match part {
            0 => self.table1.observe(obs),
            1 => self.activity.observe(obs),
            2 => self.section4.observe(obs),
            3 => self.identity.observe(obs),
            4 => self.moderation.observe(obs),
            5 => self.recommendation.observe(obs),
            6 => self.volume.observe(obs),
            7 => self.observatory.observe(obs),
            _ => panic!("StudyAnalyzers has 8 fan-out parts, got part {part}"),
        }
        self.touched |= 1 << part;
    }
}

/// Capacity of one [`ObservationBatch`] before the producer flushes it to
/// the analyzer workers — one relay day-chunk's worth
/// ([`DEFAULT_CHUNK_EVENTS`]), so pipelining changes the
/// shipping granularity, not the producer's chunked cadence.
const PIPELINE_BATCH_ITEMS: usize = DEFAULT_CHUNK_EVENTS;

/// Bounded depth (in batches) of each analyzer worker's channel. The
/// producer blocks once a worker falls this far behind, so peak pipelined
/// memory is `workers × PIPELINE_CHANNEL_BATCHES` shared batches — the
/// same order as the serial path's one-chunk bound.
const PIPELINE_CHANNEL_BATCHES: usize = 4;

struct AnalyzerWorker<S> {
    tx: SyncSender<Arc<ObservationBatch>>,
    handle: JoinHandle<S>,
}

/// The intra-shard pipeline: an [`ObservationSink`] that materializes the
/// producer's borrowed bus items into sequence-numbered owned batches and
/// fans them out over bounded channels to analyzer worker threads, each
/// folding a disjoint subset of the inner sink's
/// [`ShardSink::fan_out_parts`].
///
/// Every observation, from the window start to the window end, folds on a
/// worker. [`PipelinedSink::finish`] returns a sink state byte-identical to
/// a plain serial fold — pinned by the golden tests in
/// `tests/pipeline_equivalence.rs`.
pub(crate) struct PipelinedSink<S: ShardSink> {
    workers: Vec<AnalyzerWorker<S>>,
    pending: Vec<OwnedObservation>,
    next_seq: u64,
    batches_sent: u64,
}

impl<S: ShardSink> PipelinedSink<S> {
    /// Spawn `analyzer_threads` workers, clamped to `1..=` the sink's part
    /// count; worker `w` owns every part `p` with `p % workers == w`.
    pub(crate) fn new(analyzer_threads: usize) -> PipelinedSink<S> {
        let total_parts = S::fan_out_parts();
        let workers = analyzer_threads.min(total_parts).max(1);
        let spawned = (0..workers)
            .map(|worker| {
                let (tx, rx): (_, Receiver<Arc<ObservationBatch>>) =
                    mpsc::sync_channel(PIPELINE_CHANNEL_BATCHES);
                let parts: Vec<usize> = (worker..total_parts).step_by(workers).collect();
                let handle = std::thread::spawn(move || {
                    let mut sink = S::default();
                    let ctx = StudyCtx::default();
                    let mut expected_seq = 0u64;
                    while let Ok(batch) = rx.recv() {
                        assert_eq!(
                            batch.seq, expected_seq,
                            "pipeline batches must arrive in sequence order"
                        );
                        expected_seq += 1;
                        for item in &batch.items {
                            let obs = item.as_observation();
                            for &part in &parts {
                                sink.observe_part(part, &obs, &ctx);
                            }
                        }
                    }
                    sink
                });
                AnalyzerWorker { tx, handle }
            })
            .collect();
        PipelinedSink {
            workers: spawned,
            pending: Vec::with_capacity(PIPELINE_BATCH_ITEMS),
            next_seq: 0,
            batches_sent: 0,
        }
    }

    /// Batches shipped to the workers so far (a [`StreamSummary`]
    /// diagnostic).
    pub(crate) fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = Arc::new(ObservationBatch {
            seq: self.next_seq,
            items: std::mem::take(&mut self.pending),
        });
        self.next_seq += 1;
        self.batches_sent += 1;
        self.pending = Vec::with_capacity(PIPELINE_BATCH_ITEMS);
        for worker in &self.workers {
            if worker.tx.send(batch.clone()).is_err() {
                // The worker is gone; join below surfaces its panic.
                break;
            }
        }
    }

    /// Close the pipeline and hand back the fully folded sink: flush, close
    /// the channels, join every worker, and absorb the per-part states in
    /// worker order (exact: each worker folded only its own parts of the
    /// identical stream, and absorbing into untouched peer parts is the
    /// identity).
    pub(crate) fn finish(mut self) -> S {
        self.flush();
        let mut merged = S::default();
        for AnalyzerWorker { tx, handle } in self.workers {
            drop(tx);
            merged.absorb(handle.join().expect("analyzer worker panicked"));
        }
        merged
    }
}

impl<S: ShardSink> ObservationSink for PipelinedSink<S> {
    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        self.pending.push(obs.to_owned_observation());
        if self.pending.len() >= PIPELINE_BATCH_ITEMS {
            self.flush();
        }
    }
}

/// Result of one shard's collection pass.
struct ShardResult<S> {
    sink: S,
    summary: StreamSummary,
    /// Only shard 0 returns its world, for [`collect_sharded`]'s caller.
    world: Option<World>,
}

/// A finished shard, or the message of the panic that ended it.
type ShardOutcome<S> = Result<ShardResult<S>, String>;

/// One single-use result channel per shard (send and receive halves).
type ResultChannels<S> = (
    Vec<SyncSender<ShardOutcome<S>>>,
    Vec<Receiver<ShardOutcome<S>>>,
);

/// Summary of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedSummary {
    /// Number of population shards.
    pub shards: usize,
    /// Worker threads used.
    pub(crate) jobs: usize,
    /// Per-shard producer summaries, in shard order.
    pub per_shard: Vec<StreamSummary>,
    /// The merged summary (counters added, peaks maxed).
    pub merged: StreamSummary,
}

impl ShardedSummary {
    /// Render a multi-line summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sharded run: {} shards on {} worker thread(s)\n",
            self.shards, self.jobs
        );
        for (index, summary) in self.per_shard.iter().enumerate() {
            out.push_str(&format!("  shard {index}: {}\n", summary.render()));
        }
        out.push_str(&format!("  merged:  {}\n", self.merged.render()));
        out
    }
}

/// Run one shard: build its world from the spec, stream it through a fresh
/// sink, and hand back the state.
fn run_shard<S: ShardSink>(
    spec: &RunSpec,
    plan: Arc<PopulationPlan>,
    index: usize,
    faults: Arc<FaultPlan>,
) -> ShardResult<S> {
    let mut world = World::from_spec(
        WorldSpec::new(spec.config)
            .plan(plan)
            .shard(ShardSpec {
                index,
                count: spec.shards,
            })
            .store(spec.store.clone())
            .relays(spec.relays)
            .faults(faults.clone()),
    );
    let mut collector = Collector::new().framing(spec.framing).faults(faults);
    let (sink, summary) = if spec.pipeline {
        let mut pipelined = PipelinedSink::<S>::new(spec.analyzer_threads);
        let mut summary = collector.stream(&mut world, &mut pipelined);
        summary.pipeline_batches = pipelined.batches_sent();
        (pipelined.finish(), summary)
    } else {
        let mut sink = S::default();
        let summary = collector.stream(&mut world, &mut sink);
        (sink, summary)
    };
    ShardResult {
        sink,
        summary,
        world: (index == 0).then_some(world),
    }
}

/// [`run_shard`] with a panic inside it caught and handed back as its
/// message, so the coordinator can say which shard it was. The shard's
/// half-built state is dropped with the unwind; nothing observes it.
fn run_shard_caught<S: ShardSink>(
    spec: &RunSpec,
    plan: Arc<PopulationPlan>,
    index: usize,
    faults: Arc<FaultPlan>,
) -> ShardOutcome<S> {
    catch_unwind(AssertUnwindSafe(|| run_shard(spec, plan, index, faults))).map_err(|payload| {
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a panic that carried no message".to_string())
    })
}

/// Run the full collection described by `spec` — [`RunSpec::shards`]
/// population shards on at most [`RunSpec::jobs`] worker threads — folding
/// each shard's observations into a fresh sink and absorbing the per-shard
/// states into `sink` in shard-index order. Returns the merged sink, shard
/// 0's world (no report reads it; the benchmark's surface spells the
/// return), and the run summary.
///
/// The fault plan is resolved here from [`RunSpec::faults`] over the
/// config's day window and shared by every shard's world and producer.
///
/// Panics on an invalid spec (see [`RunSpec::validate`]), and — whatever the
/// number of worker threads — with `shard {index} of {shards} panicked:
/// {message}` when a shard's world, collector or sink panics.
pub fn collect_sharded<S: ShardSink>(spec: &RunSpec, mut sink: S) -> (S, World, ShardedSummary) {
    if let Err(err) = spec.validate() {
        panic!("invalid RunSpec: {err}");
    }
    let config = spec.config;
    let shards = spec.shards;
    let jobs = spec.effective_jobs();
    let total_days = config.end.days_since(config.start).max(0) as usize;
    let faults = Arc::new(FaultPlan::build(
        config.seed,
        total_days,
        spec.faults.clone(),
    ));
    let plan = Arc::new(PopulationPlan::build(&config));

    // Deterministic reduction: absorb strictly in shard-index order.
    let mut world0: Option<World> = None;
    let mut per_shard = Vec::with_capacity(shards);
    let mut merged_summary = StreamSummary::default();
    let mut absorb_result = |outcome: ShardOutcome<S>, sink: &mut S| {
        let result = outcome.unwrap_or_else(|message| {
            let index = per_shard.len();
            panic!("shard {index} of {shards} panicked: {message}")
        });
        merged_summary.absorb(&result.summary);
        per_shard.push(result.summary);
        if let Some(world) = result.world {
            world0 = Some(world);
        }
        sink.absorb(result.sink);
    };
    if jobs == 1 {
        // Serial path: no threads, same code.
        for index in 0..shards {
            absorb_result(
                run_shard_caught(spec, plan.clone(), index, faults.clone()),
                &mut sink,
            );
        }
    } else {
        // One single-use result channel per shard: workers claim shard
        // indices from a shared counter (Relaxed is enough — the channel
        // send/recv pair orders the result handoff) and send each finished
        // shard into that shard's own channel. The coordinator receives
        // shard 0, 1, 2, … so the reduction stays in shard-index order
        // while overlapping with still-running shards — no result-slot
        // lock on the worker hot path.
        let (txs, rxs): ResultChannels<S> = (0..shards).map(|_| mpsc::sync_channel(1)).unzip();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let plan = plan.clone();
                let txs = txs.clone();
                let next = &next;
                let faults = faults.clone();
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= shards {
                        break;
                    }
                    let outcome = run_shard_caught(spec, plan.clone(), index, faults.clone());
                    txs[index]
                        .send(outcome)
                        .expect("coordinator outlives the shard workers");
                });
            }
            drop(txs);
            for rx in &rxs {
                let outcome = rx.recv().expect("every shard sends its outcome");
                if outcome.is_err() {
                    // No worker starts another shard of a run that is lost.
                    next.store(shards, Ordering::Relaxed);
                }
                absorb_result(outcome, &mut sink);
            }
        });
    }
    (
        sink,
        world0.expect("shard 0 returns its world"),
        ShardedSummary {
            shards,
            jobs,
            per_shard,
            merged: merged_summary,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::Datetime;
    use bsky_workload::ScenarioConfig;

    fn small_config(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(seed);
        config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 10).unwrap();
        config.scale = 40_000;
        config
    }

    #[test]
    fn sharded_collection_merges_summaries() {
        let spec = RunSpec::new(small_config(51)).shards(3).jobs(2);
        let (analyzers, world, summary) = collect_sharded(&spec, StudyAnalyzers::default());
        assert_eq!(summary.shards, 3);
        assert_eq!(summary.jobs, 2);
        assert_eq!(summary.per_shard.len(), 3);
        assert!(summary.merged.firehose_events > 0);
        assert_eq!(
            summary.merged.firehose_events,
            summary.per_shard.iter().map(|s| s.firehose_events).sum()
        );
        assert!(summary.render().contains("shard 0"));
        // The finish world is shard 0's.
        assert_eq!(world.shard.index, 0);
        let table1 = analyzers.table1.finish();
        assert!(table1.total > 0);
    }

    /// A `Did` is its canonical string — ordered, looked up and
    /// round-tripped as one — over PLC DIDs and `did:web` hosts that prefix
    /// one another, so every DID-keyed table iterates as the string-keyed
    /// table it replaced. And the commits the compaction passes drop are
    /// counted alike on one shard and on two.
    #[test]
    fn a_did_is_its_string_and_compaction_counts_alike_on_two_shards() {
        use bsky_atproto::Did;
        use std::collections::BTreeMap;
        let mut corpus: Vec<Did> = (0..64)
            .map(|i| Did::plc_from_seed(format!("user-{i}").as_bytes()))
            .collect();
        for host in [
            "a.com",
            "a.com.b",
            "a.com-b.c",
            "a.co",
            "a-b.com",
            "ab.com",
            "a.comb.org",
            "z.example",
            "0.example",
        ] {
            corpus.push(Did::web(host).unwrap());
        }
        let mut by_did = corpus.clone();
        by_did.sort();
        let mut by_str: Vec<&str> = corpus.iter().map(Did::as_str).collect();
        by_str.sort();
        assert_eq!(by_did.iter().map(Did::as_str).collect::<Vec<_>>(), by_str);
        let table: BTreeMap<Did, usize> = corpus.iter().cloned().zip(0..).collect();
        assert_eq!(table.len(), corpus.len());
        for (index, did) in corpus.iter().enumerate() {
            let text = did.to_string();
            assert_eq!(did.as_str(), text);
            assert_eq!(&Did::parse(&text).unwrap(), did);
            assert_eq!(table.get(text.as_str()), Some(&index));
        }

        let serial = RunSpec::new(small_config(51));
        let (_, _, one) = collect_sharded(&serial, StudyAnalyzers::default());
        let (_, _, two) = collect_sharded(&serial.shards(2).jobs(2), StudyAnalyzers::default());
        assert!(one.merged.commits_dropped > 0);
        assert_eq!(one.merged.commits_dropped, two.merged.commits_dropped);
    }

    #[test]
    #[should_panic(expected = "exceeds the shard count")]
    fn rejects_more_jobs_than_shards() {
        let spec = RunSpec::new(small_config(51)).shards(2).jobs(3);
        let _ = collect_sharded(&spec, StudyAnalyzers::default());
    }

    /// A sink that gives up at the first user identifier shard 1 of 3
    /// owns. A shard's relay lists only the DIDs its own world owns, so
    /// only shard 1's stream carries one.
    struct GivesUpInShardOne {
        shard_one: World,
    }

    impl Default for GivesUpInShardOne {
        fn default() -> Self {
            let shard = ShardSpec { index: 1, count: 3 };
            let shard_one = World::from_spec(WorldSpec::new(small_config(53)).shard(shard));
            GivesUpInShardOne { shard_one }
        }
    }

    impl ObservationSink for GivesUpInShardOne {
        fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
            if let Observation::UserIdentifier { did, .. } = obs {
                if self.shard_one.owns_did(did) {
                    panic!("sink gave up");
                }
            }
        }
    }

    impl ShardSink for GivesUpInShardOne {
        fn absorb(&mut self, _other: Self) {}
    }

    #[test]
    fn a_panicking_shard_is_named_whatever_the_job_count() {
        for jobs in [1, 2] {
            let spec = RunSpec::new(small_config(53)).shards(3).jobs(jobs);
            let run = || drop(collect_sharded(&spec, GivesUpInShardOne::default()));
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("shard 1 panics");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert_eq!(
                message, "shard 1 of 3 panicked: sink gave up",
                "jobs = {jobs}"
            );
        }
    }

    /// A two-part sink: part 0 counts marker observations, part 1 counts
    /// everything else. Exercises the fan-out dispatch without a world.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct PartCounts {
        markers: u64,
        others: u64,
    }

    impl ObservationSink for PartCounts {
        fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>) {
            self.observe_part(0, obs, ctx);
            self.observe_part(1, obs, ctx);
        }
    }

    impl ShardSink for PartCounts {
        fn absorb(&mut self, other: Self) {
            self.markers += other.markers;
            self.others += other.others;
        }

        fn fan_out_parts() -> usize {
            2
        }

        fn observe_part(&mut self, part: usize, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
            let is_marker = matches!(
                obs,
                Observation::WindowStart { .. }
                    | Observation::DayBoundary { .. }
                    | Observation::WindowEnd { .. }
            );
            match part {
                0 if is_marker => self.markers += 1,
                1 if !is_marker => self.others += 1,
                0 | 1 => {}
                _ => panic!("PartCounts has 2 parts"),
            }
        }
    }

    #[test]
    fn pipelined_sink_folds_identically_to_serial() {
        let ctx = StudyCtx::default();
        let day = Datetime::from_ymd(2024, 3, 6).unwrap();
        let did = bsky_atproto::Did::plc_from_seed(b"pipeline-test");
        // Enough observations to force several batch flushes plus a
        // sub-capacity tail flushed by finish().
        let total = super::PIPELINE_BATCH_ITEMS * 3 + 17;
        let mut serial = PartCounts::default();
        let mut pipelined = super::PipelinedSink::<PartCounts>::new(2);
        for i in 0..total {
            let obs = if i % 3 == 0 {
                Observation::DayBoundary {
                    day: day.plus_days((i / 3) as i64),
                }
            } else {
                Observation::UserIdentifier {
                    did: &did,
                    rev: None,
                }
            };
            serial.observe(&obs, &ctx);
            pipelined.observe(&obs, &ctx);
        }
        assert!(pipelined.batches_sent() >= 3);
        let folded = pipelined.finish();
        assert_eq!(folded, serial);
        assert_eq!(folded.markers + folded.others, total as u64);
    }

    #[test]
    fn pipelined_sharded_collection_matches_plain() {
        let base = RunSpec::new(small_config(52)).shards(2).jobs(2);
        let (plain, _, plain_summary) = collect_sharded(&base, StudyAnalyzers::default());
        let spec = base.pipeline(true).analyzer_threads(3);
        let (piped, _, summary) = collect_sharded(&spec, StudyAnalyzers::default());
        assert!(summary.merged.pipeline_batches > 0);
        assert_eq!(plain_summary.merged.pipeline_batches, 0);
        assert_eq!(
            summary.merged.firehose_events,
            plain_summary.merged.firehose_events
        );
        assert_eq!(piped.table1.finish().total, plain.table1.finish().total);
    }
}
