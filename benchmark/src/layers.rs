//! The traced pass, one phase per fresh process: the engine under the
//! traced sink, the producer alone, and the commit tape replayed layer by
//! layer. Every number here comes from timing calls into `surface.rs` from
//! outside; nothing inside the crates is instrumented.

use crate::surface::{
    self, BareWorld, BlockId, MstForest, ReplayAppView, ReplayFederation, ReplayFleet, ReplayRelay,
    Spec, Store, Tape, TapeCommit, TapeItem,
};
use crate::trace::{secs, Stopwatch, Trace};
use std::path::Path;

/// Named readings of one phase, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Readings(pub Vec<(String, f64)>);

impl Readings {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }
}

fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values.get(values.len() / 2).copied().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Phase: the engine under the traced sink
// ---------------------------------------------------------------------------

pub struct TracedPhase {
    pub readings: Readings,
    pub report: String,
    pub trace: Trace,
}

/// Run the real engine (`collect_sharded`) with the traced sink in place of
/// the plain analyzer set. The analyzer pipeline is switched off, so for a
/// pipelined workload this is also its unpipelined reference run.
pub fn traced_phase(spec: &Spec) -> TracedPhase {
    let outcome = surface::run_traced(&surface::unpipelined(spec));
    let wall_ns = outcome.collect_end_ns - outcome.collect_start_ns
        + outcome.finish.ns()
        + outcome.render.ns();
    let trace = Trace::assemble(
        outcome.collect_start_ns,
        outcome.collect_end_ns,
        outcome.shards,
    );
    let mut r = Readings::default();
    r.set("traced_wall_s", secs(wall_ns));
    r.set(
        "traced_collect_s",
        secs(outcome.collect_end_ns - outcome.collect_start_ns),
    );
    let mut total = 0u64;
    for name in surface::ANALYZERS {
        let busy = trace.total_ns(name);
        total += busy;
        r.set(&format!("{name}.busy_s"), secs(busy));
    }
    r.set("core.analysis.total_busy_s", secs(total));
    let shard_ns: Vec<u64> = trace.named("shard").map(|s| s.dur_ns()).collect();
    r.set(
        "core.shard.max_shard_s",
        secs(shard_ns.iter().copied().max().unwrap_or(0)),
    );
    r.set("core.shard.sum_shard_s", secs(shard_ns.iter().sum()));
    r.set("core.report.finish_s", outcome.finish.secs());
    r.set("core.report.render_s", outcome.render.secs());
    r.set("trace_spans", trace.spans.len() as f64);
    r.set("trace_nests", f64::from(u8::from(trace.nests())));
    r.set(
        "traced_firehose_events",
        outcome.counters.get("firehose_events") as f64,
    );
    TracedPhase {
        readings: r,
        report: outcome.report,
        trace,
    }
}

// ---------------------------------------------------------------------------
// Phase: the producer alone
// ---------------------------------------------------------------------------

/// `Collector::stream` over a serial whole-population world into a sink
/// that folds nothing. The sink makes the owned copy the analyzer pipeline
/// would make of every observation; that time is measured and taken back
/// out, so `stream_s` is the null-sink figure.
pub fn stream_phase(spec: &Spec) -> Readings {
    let mut wall = Stopwatch::default();
    let (sink, counters) = surface::stream_probe(&surface::serial_unpipelined(spec), &mut wall);
    let longest_day_ns = sink
        .day_marks_ns
        .windows(2)
        .map(|pair| pair[1] - pair[0])
        .max()
        .unwrap_or(0);
    let mut r = Readings::default();
    r.set(
        "core.datasets.stream_s",
        secs(wall.ns().saturating_sub(sink.to_owned.ns())),
    );
    r.set("core.pipeline.to_owned_s", sink.to_owned.secs());
    r.set(
        "core.datasets.observations",
        counters.get("observations") as f64,
    );
    r.set(
        "core.datasets.firehose_events",
        counters.get("firehose_events") as f64,
    );
    r.set(
        "core.datasets.peak_in_flight",
        counters.get("peak_in_flight_events") as f64,
    );
    r.set(
        "core.datasets.snapshot_day_ms_max",
        longest_day_ns as f64 / 1e6,
    );
    r
}

// ---------------------------------------------------------------------------
// Phase: the bare world, its commit tape, and the tape replayed
// ---------------------------------------------------------------------------

/// Step a bare world to the end of the window, recording the commit tape,
/// then replay the tape into fresh instances of every layer under it.
pub fn tape_phase(spec: &Spec, spill_root: &Path) -> Readings {
    let serial = surface::serial_unpipelined(spec);
    let mut r = Readings::default();

    let mut world = BareWorld::new(&serial);
    let mut busy = Stopwatch::default();
    let mut recording = Stopwatch::default();
    let mut day_ns = Vec::new();
    loop {
        let before = busy.ns();
        if !world.step_day(&mut busy, &mut recording) {
            break;
        }
        day_ns.push(busy.ns() - before);
    }
    let (posts, likes) = world.ground_truth();
    let tape = recording.time(|| world.into_tape());
    r.set("workload.world.busy_s", busy.secs());
    r.set(
        "workload.world.day_ms_max",
        day_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    r.set(
        "workload.world.day_ms_p50",
        median_u64(&mut day_ns) as f64 / 1e6,
    );
    r.set("bench.replay.record_s", recording.secs());
    r.set("world_posts", posts as f64);
    r.set("world_likes", likes as f64);
    r.set("tape_writes_lost", tape.writes_lost as f64);

    let commits: Vec<&TapeCommit> = tape
        .items
        .iter()
        .filter_map(|item| match item {
            TapeItem::Commit(commit) => Some(commit),
            TapeItem::Account(_) => None,
        })
        .collect();
    let records: usize = commits.iter().map(|c| c.writes()).sum();
    r.set("workload.world.commits", commits.len() as f64);
    r.set("workload.world.records", records as f64);

    let (blocks, cids) = codecs(&commits, &mut r);
    mst(&commits, &cids, &mut r);
    block_stores(&tape, &blocks, &cids, spill_root, &mut r);
    replay(&serial, &tape, spill_root, &mut r);
    r
}

/// `Record::to_cbor`, `Cid::for_cbor` and `Record::from_cbor` over every
/// record on the tape, each as one timed sweep.
fn codecs(commits: &[&TapeCommit], r: &mut Readings) -> (Vec<Vec<u8>>, Vec<BlockId>) {
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut encode = Stopwatch::default();
    encode.time(|| {
        for commit in commits {
            commit.encode_records(&mut blocks);
        }
    });
    let mut hash = Stopwatch::default();
    let cids: Vec<BlockId> = hash.time(|| blocks.iter().map(|b| surface::hash_block(b)).collect());
    let mut decode = Stopwatch::default();
    let decoded = decode.time(|| blocks.iter().filter(|b| surface::decode_record(b)).count());
    let bytes: usize = blocks.iter().map(Vec::len).sum();
    r.set("atproto.cbor.encode_s", encode.secs());
    r.set("atproto.cbor.decode_s", decode.secs());
    r.set("atproto.cbor.bytes", bytes as f64);
    r.set("atproto.sha256.hash_s", hash.secs());
    r.set("atproto.sha256.bytes", bytes as f64);
    r.set("cbor_decode_failed", (blocks.len() - decoded) as f64);
    (blocks, cids)
}

/// Per commit batch: `Mst::insert` for each key, then one `root_cid()`.
fn mst(commits: &[&TapeCommit], cids: &[BlockId], r: &mut Readings) {
    let mut forest = MstForest::default();
    let mut busy = Stopwatch::default();
    let mut next = 0usize;
    for commit in commits {
        let entries: Vec<(String, BlockId)> = commit
            .keys()
            .zip(&cids[next..next + commit.writes()])
            .map(|(key, cid)| (key, *cid))
            .collect();
        next += commit.writes();
        busy.time(|| forest.commit(commit.did_key(), &entries));
    }
    r.set("atproto.mst.insert_root_s", busy.secs());
    r.set("atproto.mst.keys", next as f64);
}

/// The tape's record blocks through each store backend: written in commit
/// order, read back in commit order (sequential) and in CID order (random
/// with respect to the pages they were written to).
fn block_stores(
    tape: &Tape,
    blocks: &[Vec<u8>],
    cids: &[BlockId],
    spill_root: &Path,
    r: &mut Readings,
) {
    let mut by_cid: Vec<BlockId> = cids.to_vec();
    by_cid.sort_unstable();
    by_cid.dedup();
    let mut missing = 0usize;

    let mut sweep = |store: &mut Store, prefix: &str, random: bool, r: &mut Readings| {
        let copies: Vec<(BlockId, Vec<u8>)> =
            cids.iter().copied().zip(blocks.iter().cloned()).collect();
        let mut put = Stopwatch::default();
        put.time(|| {
            for (cid, bytes) in copies {
                store.put(cid, bytes);
            }
        });
        let mut get = Stopwatch::default();
        missing += get.time(|| cids.iter().filter(|cid| store.get(cid) == 0).count());
        r.set(&format!("{prefix}.put_s"), put.secs());
        r.set(&format!("{prefix}.get_s"), get.secs());
        if random {
            let mut get_random = Stopwatch::default();
            missing += get_random.time(|| by_cid.iter().filter(|cid| store.get(cid) == 0).count());
            r.set(&format!("{prefix}.get_random_s"), get_random.secs());
        }
    };
    sweep(&mut Store::mem(), "atproto.blockstore.mem", false, r);
    let mut paged = Store::paged(spill_root);
    sweep(&mut paged, "atproto.blockstore.paged", true, r);
    let readout = paged.readout();
    drop(paged);
    r.set(
        "atproto.blockstore.paged.spilled_bytes",
        readout.spilled_bytes as f64,
    );
    r.set(
        "atproto.blockstore.paged.corrupt_reads",
        readout.corrupt_reads as f64,
    );

    // The write-back cache over a paged backend, a day at a time: the day's
    // blocks are written, then read back together with the day before's,
    // and the day boundary flushes. Reads of the current day are served
    // from the buffer; the day before's were flushed, unless a change of
    // flush policy keeps them.
    let mut cache = Store::write_back_over_paged(spill_root);
    let mut days: Vec<(i64, std::ops::Range<usize>)> = Vec::new();
    let mut next = 0usize;
    for item in &tape.items {
        if let TapeItem::Commit(commit) = item {
            let end = next + commit.writes();
            match days.last_mut() {
                Some((day, range)) if *day == item.day() => range.end = end,
                _ => days.push((item.day(), next..end)),
            }
            next = end;
        }
    }
    let mut yesterday = 0..0;
    for (_, today) in days {
        for i in today.clone() {
            cache.put(cids[i], blocks[i].clone());
        }
        missing += (yesterday.start..today.end)
            .filter(|&i| cache.get(&cids[i]) == 0)
            .count();
        cache.flush();
        yesterday = today;
    }
    let readout = cache.readout();
    let reads = readout.writeback_hits + readout.writeback_misses;
    r.set(
        "atproto.blockstore.writeback.hit_ratio",
        readout.writeback_hits as f64 / reads.max(1) as f64,
    );
    r.set(
        "atproto.blockstore.writeback.flushes",
        readout.writeback_flushes as f64,
    );
    r.set("blockstore_reads_missing", missing as f64);
}

/// The tape into a fresh PDS fleet, with a single relay, a two-region
/// federation and two AppView index sets riding along, each charged to its
/// own stopwatch; then the repository sync surface over the replayed fleet.
fn replay(serial: &Spec, tape: &Tape, spill_root: &Path, r: &mut Readings) {
    let mut fleet = ReplayFleet::new(serial, tape);
    let mut relay = ReplayRelay::new(serial);
    let mut federation = ReplayFederation::new(serial);
    let mut appview = ReplayAppView::mem();
    let mut appview4 = ReplayAppView::paged4(spill_root);

    let mut commit_sw = Stopwatch::default();
    let mut crawl_sw = Stopwatch::default();
    let mut subscribe_sw = Stopwatch::default();
    let mut forward_sw = Stopwatch::default();
    let mut index_sw = Stopwatch::default();
    let mut index4_sw = Stopwatch::default();
    let mut flush_sw = Stopwatch::default();
    let (mut commits, mut writes, mut failed, mut accounts_failed) = (0u64, 0u64, 0u64, 0u64);
    let (mut crawled, mut subscribed) = (0usize, 0usize);

    // Archives at the tape's midpoint: the bases the end-of-run deltas
    // apply to.
    let midpoint = tape.items.len() / 2;
    let mut bases = Vec::new();
    // `None` after the last item closes the last day like any other.
    let mut day: Option<i64> = None;
    for (position, item) in tape.items.iter().map(Some).chain([None]).enumerate() {
        let today = item.map(TapeItem::day);
        if let Some(ended) = day.filter(|_| today != day) {
            crawled += crawl_sw.time(|| relay.crawl(&fleet, ended));
            subscribed += subscribe_sw.time(|| relay.subscribe());
            forward_sw.time(|| federation.crawl_and_forward(&fleet, ended));
            flush_sw.time(|| appview.flush());
            index4_sw.time(|| appview4.flush());
        }
        let Some(item) = item else { break };
        day = today;
        if position == midpoint {
            bases = fleet
                .heads()
                .into_iter()
                .map(|head| (fleet.export_car(&head), head))
                .collect();
        }
        match item {
            TapeItem::Account(account) => {
                accounts_failed += u64::from(!fleet.create_account(account));
                appview.upsert_actor(account);
                appview4.upsert_actor(account);
            }
            TapeItem::Commit(commit) => {
                commits += 1;
                writes += commit.writes() as u64;
                failed += u64::from(!commit_sw.time(|| fleet.commit(commit)));
                index_sw.time(|| appview.index_commit(commit));
                index4_sw.time(|| appview4.index_commit(commit));
            }
        }
    }
    let last_day = day.unwrap_or(0);

    r.set("pds.commit.busy_s", commit_sw.secs());
    r.set("pds.commit.count", commits as f64);
    r.set("pds.commit.writes", writes as f64);
    r.set("pds.commit.failed", (failed + accounts_failed) as f64);
    r.set("relay.crawl.busy_s", crawl_sw.secs());
    r.set("relay.crawl.events", crawled as f64);
    r.set("relay.subscribe.busy_s", subscribe_sw.secs());
    r.set("relay_subscribed_events", subscribed as f64);
    let (forwarded, tracked, dropped) = federation.readout();
    r.set("relay.federation.forward_s", forward_sw.secs());
    r.set("relay.federation.forwarded", forwarded as f64);
    r.set("relay.federation.dedup_tracked", tracked as f64);
    r.set("relay.federation.duplicates_dropped", dropped as f64);
    r.set("appview.index.busy_s", index_sw.secs());
    r.set("appview.index.records", appview.records_indexed() as f64);
    r.set("appview.index_paged4.busy_s", index4_sw.secs());
    r.set("appview.flush_s", flush_sw.secs());
    r.set(
        "appview.index.coalesced_writes",
        appview.coalesced_writes() as f64,
    );
    let (hits, misses) = appview4.writeback_reads();
    r.set(
        "appview.writeback.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    drop((federation, appview, appview4));

    let heads = fleet.heads();
    let mut mirror_sw = Stopwatch::default();
    let mut mirror_bytes = 0usize;
    for head in &heads {
        mirror_bytes += mirror_sw.time(|| relay.get_repo(head, &mut fleet, last_day));
    }
    r.set("relay.mirror.get_repo_s", mirror_sw.secs());
    r.set("relay.mirror.bytes", mirror_bytes as f64);
    drop(relay);

    let mut export_sw = Stopwatch::default();
    let mut parse_sw = Stopwatch::default();
    let mut car_bytes = 0usize;
    for head in &heads {
        let car = export_sw.time(|| fleet.export_car(head));
        car_bytes += car.len();
        parse_sw.time(|| surface::parse_car(&car));
    }
    let mut since_sw = Stopwatch::default();
    let mut delta_sw = Stopwatch::default();
    let mut deltas_failed = 0u64;
    for (base, head) in &bases {
        match since_sw.time(|| fleet.export_since(head)) {
            Some(delta) => {
                deltas_failed += u64::from(!delta_sw.time(|| surface::apply_delta(base, &delta)));
            }
            None => deltas_failed += 1,
        }
    }
    let mut compact_sw = Stopwatch::default();
    let reclaimed = compact_sw.time(|| fleet.compact(last_day));
    r.set("atproto.repo.export_car_s", export_sw.secs());
    r.set("atproto.repo.car_bytes", car_bytes as f64);
    r.set("atproto.repo.parse_car_s", parse_sw.secs());
    r.set("atproto.repo.export_since_s", since_sw.secs());
    r.set("atproto.repo.apply_delta_s", delta_sw.secs());
    r.set("atproto.repo.compact_s", compact_sw.secs());
    r.set("atproto.repo.compact_reclaimed_bytes", reclaimed as f64);
    r.set("repo_deltas_failed", deltas_failed as f64);
}
