//! Dataset collection (§3 of the paper), as a streaming producer.
//!
//! [`Collector::stream`] drives a [`World`] day by day and *emits* the same
//! six datasets the study gathered — through the same service interfaces —
//! as [`Observation`]s into an [`ObservationSink`]:
//!
//! * **User Identifier Dataset** — weekly `sync.listRepos` snapshots from the
//!   Relay during March–April 2024, one observation per newly seen DID.
//! * **DID Documents** — a full PLC-directory export plus `did:web`
//!   documents fetched over HTTPS, each handle outside bsky.social with
//!   §5's active measurement of it (`bsky_workload::resolver::HandleProbe`).
//! * **Repositories Dataset** — a snapshot of every repository, downloaded as
//!   CAR archives through the Relay's `sync.getRepo`, decoded, emitted, and
//!   dropped.
//! * **Firehose Dataset** — a continuous subscription from 2024-03-06. The
//!   producer interleaves chunked day steps ([`World::step_chunk`]) with
//!   subscription reads, so it never holds more than one chunk's worth of
//!   events — peak in-flight is independent of the day's volume.
//! * **Labeling Services** — metadata when each service record is announced,
//!   then a daily `subscribeLabels` read per labeler (including rescinded
//!   labels), so labels stream out close to their publication time.
//! * **Feed Generators / Feed Posts** — one entry per generator: its
//!   declaration record (name, description, creation time) and the hosting
//!   platform it carries, as `getFeedGenerator` describes it, and its
//!   retained entries via `getFeed` hydration.
//!
//! The repositories dataset is kept current by the incremental mirror in
//! `mirror`; its module documents the snapshot protocol.

use crate::moderation::LabelerEntry;
use crate::observatory::{cell_trace, ActivityClass, TraceKind, WireTraceDay};
use crate::pipeline::{Observation, ObservationSink, StreamSummary, StudyCtx};
use crate::recommendation::{served_page, FeedGenEntry, FeedPost, GET_FEED_LIMIT};
use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::firehose::EventBody;
use bsky_atproto::framing::FramingPolicy;
use bsky_atproto::{Datetime, Did, Tid};
use bsky_workload::diddoc::DidDocument;
use bsky_workload::faults::{FaultPlan, RetryPolicy, TimeoutClass};
use bsky_workload::generator::RetentionPolicy;
use bsky_workload::http::HttpResponse;
use bsky_workload::route::FeedEntry;
use bsky_workload::World;
use mirror::{Cutoff, IncrementalRepoMirror};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub(crate) mod mirror;

/// Default number of pending relay events per producer chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 256;

/// Days of history the weekly compaction keeps in every repository's
/// delta-serving window. It runs every 7 days from the first simulated day:
/// before the collection window as a pass over the whole fleet, inside it
/// as each `listRepos` round's mirror sync retires the repositories it
/// lists. Two weekly `listRepos` snapshots fit comfortably, so the
/// incremental mirror's deltas (at most one week old) never hit the
/// fallback in steady state, and besides its head a repository holds at
/// most `COMPACTION_WINDOW_DAYS + 7` days of commits.
pub(crate) const COMPACTION_WINDOW_DAYS: i64 = 14;

/// The compaction cutoff on `today`: commits older than `today −
/// COMPACTION_WINDOW_DAYS` leave a repository's delta window.
fn compaction_cutoff(today: Datetime) -> Tid {
    let cutoff_day = today.plus_days(-COMPACTION_WINDOW_DAYS);
    Tid::from_micros(cutoff_day.timestamp().max(0) as u64 * 1_000_000, 0)
}

/// Drives a [`World`] and emits the datasets as observations.
#[derive(Debug)]
pub struct Collector {
    chunk_events: usize,
    mirror: IncrementalRepoMirror,
    firehose_cursor: u64,
    seen_identifiers: BTreeSet<Did>,
    identifier_order: Vec<Did>,
    /// Labeler registry entries already announced to the sink.
    labelers_emitted: usize,
    /// Per-labeler `subscribeLabels` cursors.
    label_cursors: Vec<usize>,
    observations: u64,
    /// Active wire framing policy (padding × batching) for this run's
    /// firehose wire. Accounted in the summary; the §10 report sweeps every
    /// mitigation cell counterfactually regardless of this setting.
    framing: FramingPolicy,
    /// Injected-fault plan for the client side of this run (flaky fetches,
    /// DNS failures, cursor gaps/rewinds). The quiet plan draws no
    /// randomness and counts nothing.
    faults: Arc<FaultPlan>,
    /// Retry/backoff policy per timeout class.
    retry_full: RetryPolicy,
    retry_delta: RetryPolicy,
    retry_dns: RetryPolicy,
    /// Observatory ground truth: DID → (handle, activity class), built from
    /// the population plan at stream start.
    identity_map: BTreeMap<Did, (String, ActivityClass)>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Create a collector with the default chunk size.
    pub fn new() -> Collector {
        Collector::with_chunk_size(DEFAULT_CHUNK_EVENTS)
    }

    /// Create a collector that crawls after every `chunk_events` pending
    /// relay events. Smaller chunks bound the in-flight batch tighter at
    /// the cost of more crawl round-trips.
    pub fn with_chunk_size(chunk_events: usize) -> Collector {
        Collector {
            chunk_events: chunk_events.max(1),
            mirror: IncrementalRepoMirror::new(),
            firehose_cursor: 0,
            seen_identifiers: BTreeSet::new(),
            identifier_order: Vec::new(),
            labelers_emitted: 0,
            label_cursors: Vec::new(),
            observations: 0,
            framing: FramingPolicy::default(),
            faults: Arc::new(FaultPlan::quiet()),
            retry_full: RetryPolicy::for_class(TimeoutClass::RepoFetch),
            retry_delta: RetryPolicy::for_class(TimeoutClass::DeltaFetch),
            retry_dns: RetryPolicy::for_class(TimeoutClass::DnsLookup),
            identity_map: BTreeMap::new(),
        }
    }

    /// Inert: the collector keeps no blocks, so it has no store to select.
    /// The stores of a run are the world's, chosen when the world is built
    /// — see [`bsky_workload::WorldSpec`] / [`crate::RunSpec::store`]. Kept
    /// because `benchmark/src/surface.rs` calls it.
    pub fn store(self, _store: StoreConfig) -> Collector {
        self
    }

    /// Select the active wire framing policy (builder style): the padding
    /// and batching mitigations applied to this run's own firehose wire
    /// (repro `--padding` / `--batch-window`). Deterministic functions of
    /// the frame content, accounted into the summary's wire counters; §4–§10
    /// report bytes are invariant under this knob by construction.
    pub fn framing(mut self, framing: FramingPolicy) -> Collector {
        self.framing = framing;
        self
    }

    /// Select the injected-fault plan driving the *client* side of this run
    /// (builder style): flaky/timed-out repo fetches, DNS failures on the
    /// identity path, firehose cursor gaps and rewinds. Every decision is a
    /// pure function of `(seed, key, day)` — recomputable on any shard —
    /// and every retry, give-up, or dropped event is a named counter in the
    /// [`StreamSummary`], never silent. The quiet plan leaves the stream
    /// byte-identical to a collector built without this call.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> Collector {
        self.faults = faults;
        self
    }

    fn emit<S: ObservationSink>(&mut self, sink: &mut S, obs: &Observation<'_>) {
        self.observations += 1;
        sink.observe(obs, &StudyCtx::default());
    }

    /// Run the world to its end date while streaming every observation to
    /// the sink, then emit the final snapshots. One pass; nothing is
    /// retained here beyond per-DID dedup state, and at most one chunk of
    /// firehose events is in flight at any time.
    ///
    /// The sink may itself be concurrent: under `--pipeline` this producer
    /// feeds a `crate::shard::PipelinedSink`, which materializes each
    /// borrowed [`Observation`] into an owned batch and ships it to analyzer
    /// worker threads. The bounded channel's backpressure transfers the
    /// one-chunk memory bound across the thread boundary unchanged.
    pub fn stream<S: ObservationSink>(&mut self, world: &mut World, sink: &mut S) -> StreamSummary {
        // Each stream is a complete, independent collection: reset the
        // per-run producer state so a reused collector starts fresh.
        self.firehose_cursor = 0;
        self.mirror = IncrementalRepoMirror::with_faults(
            self.faults.clone(),
            self.retry_full,
            self.retry_delta,
        );
        self.seen_identifiers.clear();
        self.identifier_order.clear();
        self.labelers_emitted = 0;
        self.label_cursors.clear();
        self.observations = 0;
        // Observatory ground truth: the plan's activity weights classify
        // every planned DID; labeler/feed-generator service DIDs fall back
        // to `Lurking` at lookup time.
        self.identity_map = (0..world.plan.len())
            .map(|index| {
                let profile = world.plan.profile(index);
                (
                    profile.did.clone(),
                    (
                        profile.handle.as_str().to_string(),
                        ActivityClass::of_weight(profile.activity_weight),
                    ),
                )
            })
            .collect();
        let mut summary = StreamSummary::default();
        let firehose_start = world.config.firehose_collection_start;
        let collection_end = world.config.end;
        self.emit(
            sink,
            &Observation::WindowStart {
                firehose_collection_start: firehose_start,
                collection_end,
            },
        );
        let mut last_listrepos: Option<Datetime> = None;
        let mut last_compaction: Option<Datetime> = None;
        while !world.finished() {
            let Some(mut cursor) = world.begin_day() else {
                break;
            };
            let today = cursor.day();
            let today_idx = cursor.day_idx();
            let day_abs = today.timestamp().div_euclid(86_400) as u64;
            let day_start_cursor = self.firehose_cursor;
            summary.days += 1;
            self.emit(sink, &Observation::DayBoundary { day: today });
            // Interleave chunked simulation with subscription reads: the
            // producer drains the relay continuously (discarding pre-window
            // events), so neither the relay backlog nor a heavy day ever
            // accumulates into one oversized batch.
            loop {
                let done = world.step_chunk(&mut cursor, self.chunk_events);
                let sub = world.relay.subscribe(self.firehose_cursor);
                self.firehose_cursor = sub.cursor;
                summary.peak_in_flight_events = summary.peak_in_flight_events.max(sub.events.len());
                for event in sub.events.iter().filter(|e| e.time >= firehose_start) {
                    // Injected cursor gap: the subscriber's cursor skips
                    // over this commit, so the event never reaches the
                    // analyzers. Counted, never silent; Table 1's
                    // firehose-event total counts only *observed* events,
                    // exactly like a real consumer that lost frames. A
                    // pure function of `(seed, DID, event-day)`, so every
                    // shard drops the same events.
                    if !self.faults.is_quiet() {
                        if let EventBody::Commit { did, .. } = &event.body {
                            let event_day = event.time.timestamp().div_euclid(86_400) as u64;
                            if self.faults.drops_commit(did.as_str(), event_day) {
                                summary.cursor_gap_drops += 1;
                                continue;
                            }
                        }
                    }
                    summary.firehose_events += 1;
                    self.emit(sink, &Observation::Firehose(event));
                }
                if done {
                    break;
                }
            }
            world.end_day(cursor);
            // Injected cursor rewind: the relay re-serves today's frames
            // from the day-start cursor (as a restarted subscriber would
            // request). The replayed events are counted — they model the
            // duplicate wire traffic a real rewind costs — but not
            // re-observed: the analyzers already consumed them, and
            // idempotent re-observation is exactly what a consumer's dedup
            // layer provides. The real cursor is untouched.
            if !self.faults.is_quiet() && self.faults.rewinds_cursor(day_abs) {
                let replay = world.relay.subscribe(day_start_cursor);
                summary.cursor_rewind_replays += replay
                    .events
                    .iter()
                    .filter(|e| e.time >= firehose_start)
                    .count() as u64;
            }
            // Drain the relay's passive wire tap at the day boundary: one
            // observatory record per traced connection per day. Day-end
            // flushing makes each record a pure function of the day's
            // (time, size) multiset — independent of chunking — and bounds
            // tap memory to a single day of connections.
            self.flush_wire_traces(world, sink, &mut summary, firehose_start);
            // Labeler metadata for services announced today (exactly one
            // shard owns each labeler DID), then today's label batches from
            // every stream.
            self.emit_new_labelers(world, sink);
            self.emit_new_labels(world, sink);
            // The collector is every label stream's only reader: what it
            // has read goes.
            world.trim_label_streams(&self.label_cursors);
            // Weekly compaction, from the first simulated day: repositories
            // drop commits that aged out of the delta window, never a
            // record block (see the `mirror` docs). Cadence and cutoff
            // derive only from simulated time, so every shard and backend
            // compacts identically. Before the window a pass walks the
            // whole fleet; nothing has been mirrored, so it drops no
            // revision a delta will ask for, and releases no record's
            // bytes: every DID's first full fetch reads stored bytes.
            if today < firehose_start {
                if last_compaction.is_none_or(|prev| today.days_since(prev) >= 7) {
                    let dropped = world.fleet.compact_all(&compaction_cutoff(today));
                    summary.commits_dropped += dropped.commits_dropped as u64;
                    last_compaction = Some(today);
                }
            } else if last_listrepos.is_none_or(|prev| today.days_since(prev) >= 7) {
                // Weekly listRepos snapshots during the collection window.
                self.snapshot_user_identifiers(world, sink, &mut summary);
                // The mirror rides along with the weekly identifier
                // snapshot: the revs just listed tell it which repos to
                // delta-sync now instead of re-fetching everything at the
                // window end. The sync is the round's whole weekly pass: it
                // compacts each listed repository to the cutoff right after
                // handling it, then releases the records the mirror now
                // holds (see the `mirror` docs, "When a repository
                // forgets").
                let cutoff_idx = today_idx.saturating_sub(COMPACTION_WINDOW_DAYS as usize);
                let cutoff = Cutoff {
                    rev: compaction_cutoff(today),
                    day: u16::try_from(cutoff_idx).unwrap_or(u16::MAX),
                };
                self.mirror.sync(
                    &mut world.relay,
                    &mut world.fleet,
                    today,
                    Some(cutoff),
                    &mut summary,
                );
                last_listrepos = Some(today);
                summary.listrepos_snapshots += 1;
            }
        }
        // Final snapshots at the end of the window.
        self.snapshot_user_identifiers(world, sink, &mut summary);
        self.snapshot_did_documents(world, sink, &mut summary);
        self.snapshot_feed_generators(world, sink);
        self.snapshot_repositories(world, sink, &mut summary);
        self.emit(sink, &Observation::WindowEnd { at: collection_end });
        summary.observations = self.observations;
        // End-of-run storage accounting: the fleet's repository stores, the
        // only block stores of a run.
        let store_stats = world.fleet.store_stats();
        summary.resident_block_bytes = store_stats.resident_bytes as u64;
        summary.spilled_block_bytes = store_stats.spilled_bytes as u64;
        // Corrupt spill-file blocks read as absent (the store verifies
        // every read-back by CID); any such loss would make the repositories
        // the fleet serves incomplete, so the count is surfaced — never
        // silent.
        summary.store_corrupt_reads = store_stats.corrupt_reads;
        // Released blocks re-drawn for exports, and any that failed their
        // CID check (such an export fails, and the repo is a counted skip).
        let redraws = world.fleet.redraws();
        summary.blocks_redrawn = redraws.blocks;
        summary.subtrees_rederived = redraws.subtrees;
        summary.redraw_mismatches = redraws.mismatches;
        // Workload-side injected-fault accounting (outage migrations, spam
        // waves, label/tombstone storms) flows into the same summary so
        // every injected fault in a scenario run shows up as a named
        // counter. All zero under the quiet plan.
        let fault_counters = world.fault_counters();
        summary.outage_migrations = fault_counters.outage_migrations;
        summary.spam_posts_injected = fault_counters.spam_posts_injected;
        summary.storm_labels_applied = fault_counters.storm_labels_applied;
        summary.storm_tombstones = fault_counters.storm_tombstones;
        // Federation accounting: frames the super-relay accepted from the
        // regional tier and cross-relay dedup activity (all zero in a
        // single-relay run). Diagnostics only — the report stays
        // byte-identical to the single-relay topology.
        let relay_stats = world.relay.stats();
        summary.relay_events_forwarded = relay_stats.events_forwarded();
        summary.relay_duplicates_dropped = relay_stats.duplicates_dropped();
        summary.relay_dedup_tracked = relay_stats.dedup_tracked();
        summary
    }

    fn emit_new_labelers<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        while self.labelers_emitted < world.labelers.all().len() {
            let index = self.labelers_emitted;
            self.labelers_emitted += 1;
            self.label_cursors.push(0);
            let labeler = &world.labelers.all()[index];
            let entry = LabelerEntry {
                did: labeler.did().clone(),
                name: labeler.display_name().to_string(),
                operator: labeler.operator(),
                hosting: labeler.hosting(),
                functional: labeler.is_functional(),
            };
            // Every shard instantiates every labeler, but the metadata is a
            // global singleton: only the shard owning the labeler's DID
            // announces it. (Label batches, by contrast, flow from every
            // shard — each shard's labeler copy labels that shard's posts.)
            if world.owns_did(&entry.did) {
                self.emit(sink, &Observation::Labeler(&entry));
            }
        }
    }

    fn emit_new_labels<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        for index in 0..self.labelers_emitted {
            let labeler = &world.labelers.all()[index];
            let (labels, next) = labeler.subscribe_labels(self.label_cursors[index]);
            if !labels.is_empty() {
                let src = labeler.did();
                self.emit(sink, &Observation::Labels { src, labels });
            }
            self.label_cursors[index] = next;
        }
    }

    /// Drain the relay's passive wire tap and emit one
    /// [`Observation::WireTrace`] per connection that carried in-window
    /// traffic today. Also accounts the *active* framing policy's wire into
    /// the summary — the one knob-dependent surface; the §10 report itself
    /// sweeps every mitigation cell from the raw captures.
    fn flush_wire_traces<S: ObservationSink>(
        &mut self,
        world: &mut World,
        sink: &mut S,
        summary: &mut StreamSummary,
        firehose_start: Datetime,
    ) {
        let start = firehose_start.timestamp();
        for (did, trace) in world.relay.take_wire_traces() {
            // Dropped frames are surfaced even when the day itself falls
            // outside the collection window — never silent.
            summary.observer_trace_drops += trace.dropped;
            // Warmup traffic before the firehose window is not collected;
            // drop it exactly as the firehose reader does.
            let frames: Vec<(i64, u64)> = trace
                .frames
                .iter()
                .copied()
                .filter(|&(time, _)| time >= start)
                .collect();
            if frames.is_empty() {
                continue;
            }
            let day = frames[0].0.div_euclid(86_400);
            let class = self
                .identity_map
                .get(&did)
                .map(|(_, class)| *class)
                .unwrap_or(ActivityClass::Lurking);
            let record =
                WireTraceDay::from_frames(TraceKind::Repo, did, day, class, &frames, trace.dropped);
            let active = cell_trace(
                &frames,
                self.framing.padding,
                self.framing.batch.window_secs,
            );
            summary.wire_frames += active.frames;
            summary.padding_overhead_bytes +=
                active.wire_bytes.saturating_sub(record.payload_bytes);
            self.emit(sink, &Observation::WireTrace(&record));
        }
    }

    fn snapshot_user_identifiers<S: ObservationSink>(
        &mut self,
        world: &World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        // Identity resolution rides along with the listRepos snapshot: for
        // each newly listed planned DID the study client resolves the
        // `_atproto.<handle>` TXT record, like the paper's handle-ownership
        // checks. The lookups form one DNS wire trace per snapshot.
        let mut lookup_frames: Vec<(i64, u64)> = Vec::new();
        let when = world.today.timestamp();
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = world.relay.list_repos(cursor.as_deref(), 500);
            for (did, rev) in page {
                // Every snapshot lists every DID again: only a new one is
                // cloned into the set or rendered for the lookup.
                if !self.seen_identifiers.contains(&did) {
                    self.seen_identifiers.insert(did.clone());
                    if let Some((handle, _)) = self.identity_map.get(&did) {
                        // Injected DNS flakiness: transient SERVFAILs are
                        // retried under the DnsLookup policy, and every
                        // retry and give-up is counted. The counters are
                        // all a give-up changes: nothing is verified per
                        // snapshot, and §5's proof count comes from the
                        // end-of-window probe (`World::probe_handle`),
                        // which does not consult the fault plan.
                        let day = when.div_euclid(86_400) as u64;
                        let failures = self.faults.dns_failures(handle, day);
                        if failures > 0 {
                            let mut rng = self.faults.retry_rng("dns", handle, day);
                            let outcome = self.retry_dns.outcome(failures, &mut rng);
                            summary.retry_attempts += u64::from(outcome.retries);
                            summary.retry_backoff_ms += outcome.backoff_ms;
                            summary.dns_servfails += u64::from(outcome.retries);
                            if outcome.gave_up {
                                summary.dns_servfails += 1;
                                summary.dns_retry_giveups += 1;
                            }
                        }
                        summary.identity_lookups += 1;
                        // Modeled DNS query + response bytes for the
                        // `_atproto.<handle>` TXT lookup (one frame per
                        // lookup regardless of injected retries: the
                        // retried queries are simulated-time stalls, not
                        // extra observed wire records).
                        lookup_frames.push((when, 64 + 9 + handle.len() as u64));
                    }
                    self.identifier_order.push(did.clone());
                    let rev = rev.map(|t| t.to_string_form());
                    self.emit(
                        sink,
                        &Observation::UserIdentifier {
                            did: &did,
                            rev: rev.as_deref(),
                        },
                    );
                }
            }
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        if !lookup_frames.is_empty() {
            let record = WireTraceDay::from_frames(
                TraceKind::Dns,
                Did::plc_from_seed(b"dns-resolver-client"),
                when.div_euclid(86_400),
                ActivityClass::Lurking,
                &lookup_frames,
                0,
            );
            self.emit(sink, &Observation::WireTrace(&record));
        }
    }

    fn snapshot_did_documents<S: ObservationSink>(
        &mut self,
        world: &World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        // Full PLC export (paginated).
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = world.plc.export(cursor.as_deref(), 1_000);
            for doc in page {
                self.emit_did_document(world, sink, doc, false);
            }
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        // did:web documents: fetch /.well-known/did.json for did:web users.
        for index in 0..world.users.len() {
            let Some(domain) = world.users[index].did.web_domain() else {
                continue;
            };
            let url = format!("https://{domain}/.well-known/did.json");
            // A non-OK response or an unparseable document leaves this
            // did:web user without a document in the dataset — counted,
            // never a silent `if let` fall-through.
            match world.web.get(&url) {
                HttpResponse::Ok(body) => match DidDocument::from_wire(&body) {
                    Ok(doc) => self.emit_did_document(world, sink, &doc, true),
                    Err(_) => summary.did_doc_fetch_failures += 1,
                },
                _ => summary.did_doc_fetch_failures += 1,
            }
        }
    }

    /// Emit one DID document with §5's active measurement of its handle,
    /// unless the handle is under bsky.social.
    fn emit_did_document<S: ObservationSink>(
        &mut self,
        world: &World,
        sink: &mut S,
        doc: &DidDocument,
        via_web: bool,
    ) {
        let probe = (!doc.handle.is_bsky_social()).then(|| world.probe_handle(&doc.handle));
        let obs = Observation::DidDocument {
            doc,
            via_web,
            probe: probe.as_ref(),
        };
        self.emit(sink, &obs);
    }

    /// Emit the §3 repositories dataset at the window end: one snapshot per
    /// collected DID in first-seen order, served from the mirror.
    fn snapshot_repositories<S: ObservationSink>(
        &mut self,
        world: &mut World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        let end = world.config.end;
        // Catch-up sync for anything that changed since the last weekly
        // snapshot, then serve every emission from mirrored state.
        self.mirror
            .sync(&mut world.relay, &mut world.fleet, end, None, summary);
        // Take the order list out of `self` for the duration of the loop
        // (the body needs `&mut self` to emit) instead of cloning one DID
        // per collected user.
        let order = std::mem::take(&mut self.identifier_order);
        for did in &order {
            let Some(snapshot) = self.mirror.take_snapshot(did, summary) else {
                continue; // deleted mid-window; skip counted at sync
            };
            self.emit(sink, &Observation::Repo(&snapshot));
        }
        self.identifier_order = order;
    }

    fn snapshot_feed_generators<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        // Hydrate each route's list once, as `getFeed` does on the live
        // network, which silently drops posts its index no longer holds.
        // Every entry is a post its author committed, and the index forgets
        // a post only when its author's `#tombstone` arrives over the relay
        // — the event that also drops the author from the relay's
        // `listRepos`. So an entry hydrates while the relay lists its
        // author, and every feed on a route reads the same checks.
        let routes = world.feed_routes();
        let lists: Vec<&[FeedEntry]> = routes.lists().collect();
        let listed: Vec<Vec<bool>> = lists
            .iter()
            .map(|list| {
                let authors = list.iter().map(|e| world.relay.lists_repo(e.uri.did()));
                authors.collect()
            })
            .collect();
        for generator in &world.feedgens {
            // A feed retains a suffix of its route's list. Personalised
            // (and manual) feeds are on no route: they serve the study's
            // anonymous crawler nothing.
            let posts: Vec<FeedPost> = match routes.view(generator) {
                None => Vec::new(),
                Some((route, start)) => {
                    let hydrated: Vec<FeedPost> = lists[route][start..]
                        .iter()
                        .zip(&listed[route][start..])
                        .filter(|(_, listed)| **listed)
                        .map(|(entry, _)| FeedPost {
                            uri: Arc::clone(&entry.uri),
                            created_at: entry.post_created_at,
                            curated_at: entry.curated_at,
                        })
                        .collect();
                    debug_assert!(
                        !matches!(generator.retention(), RetentionPolicy::Count(n) if n >= GET_FEED_LIMIT),
                        "a Count feed retains more than a page"
                    );
                    served_page(hydrated)
                }
            };
            let record = generator.record();
            let entry = FeedGenEntry {
                uri: generator.uri().clone(),
                creator: generator.creator().clone(),
                display_name: record.display_name.clone(),
                description: record.description.clone(),
                platform: generator.platform().to_string(),
                created_at: record.created_at,
                retention: generator.retention(),
                like_count: generator.like_count(),
                posts,
            };
            self.emit(sink, &Observation::FeedGenerator(&entry));
        }
    }
}

// Production collects under the default policy of every timeout class;
// a test overrides one.
#[cfg(test)]
impl Collector {
    /// Override the retry/backoff policy for one timeout class (builder
    /// style). Defaults come from [`RetryPolicy::for_class`].
    pub(crate) fn retry(mut self, class: TimeoutClass, policy: RetryPolicy) -> Collector {
        match class {
            TimeoutClass::RepoFetch => self.retry_full = policy,
            TimeoutClass::DeltaFetch => self.retry_delta = policy,
            TimeoutClass::DnsLookup => self.retry_dns = policy,
        }
        self
    }
}

#[cfg(test)]
pub(crate) mod tests;
