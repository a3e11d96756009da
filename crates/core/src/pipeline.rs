//! The streaming measurement pipeline: an observation bus plus incremental,
//! *mergeable* analyzers.
//!
//! The real study consumed the firehose as a *stream* over weeks; this
//! module reproduces that consumption model:
//!
//! * [`Observation`] — one item on the bus: a firehose event, a snapshot row
//!   of one of the §3 datasets, a batch of freshly published labels, or a
//!   collection-window marker. Observations borrow their payloads, so
//!   producers can emit and immediately drop them.
//! * `Analyzer` (crate-internal) — an incremental consumer: `observe` folds one observation
//!   into internal accumulators, `merge` combines two independently folded
//!   states, and `finish` computes the final result struct.
//! * [`ObservationSink`] — anything a producer can emit into: the report's
//!   concrete analyzer set ([`crate::shard::StudyAnalyzers`]), a custom
//!   probe, or a plain
//!   `Vec<OwnedObservation>` for a caller that wants to keep the stream.
//! * [`StudyCtx`] — empty; analyzers read observations only. The study's
//!   active measurements (DNS, well-known, WHOIS, Tranco, PSL) are taken by
//!   the collector and ride on each [`Observation::DidDocument`].
//!
//! ## The merge law
//!
//! `Analyzer::merge` is the primitive behind the sharded engine
//! ([`crate::shard`]): the population is partitioned by DID hash, one
//! producer + analyzer set runs per shard, and the per-shard states are
//! merged in shard order before a single `finish`. Implementations must be
//! **associative and order-insensitive over stream splits**: for any split
//! of an observation stream into a prefix and a suffix folded by two fresh
//! analyzers, `merge(prefix_state, suffix_state)` must equal the state of
//! one analyzer that folded the whole stream. The property test in
//! `report.rs` pins exactly this for every built-in analyzer, and the
//! golden test in `tests/pipeline_equivalence.rs` pins the end-to-end
//! consequence: a 4-shard run renders a byte-identical report to the serial
//! run.
//!
//! The full study report is computed in **one pass** without retaining the
//! firehose: events are folded as they arrive (the producer reads the relay
//! in constant-size chunks, so peak in-flight is one chunk, independent of
//! daily volume), and only per-entity aggregates survive between
//! observations. The moderation analyzer's post-creation index is aged out
//! past the labelers' bounded reaction window at every day boundary.

use crate::collect::mirror::RepoSnapshot;
use crate::moderation::LabelerEntry;
use crate::observatory::WireTraceDay;
use crate::recommendation::FeedGenEntry;
use bsky_atproto::firehose::Event;
use bsky_atproto::label::Label;
use bsky_atproto::{Datetime, Did};
use bsky_workload::diddoc::DidDocument;
use bsky_workload::resolver::HandleProbe;
use std::marker::PhantomData;

/// One item on the observation bus.
///
/// Variants borrow their payloads from the producer: the engine dispatches a
/// shared reference to every analyzer and the producer drops the value right
/// after, so nothing is retained unless an analyzer copies it on purpose.
#[derive(Debug, Clone, Copy)]
pub enum Observation<'a> {
    /// Collection is starting. Carries the window boundaries so analyzers
    /// need not reach into the world configuration.
    WindowStart {
        /// When the continuous firehose subscription begins.
        firehose_collection_start: Datetime,
        /// Day after the last collected day.
        collection_end: Datetime,
    },
    /// A new simulated day is about to be observed. Analyzers use this to
    /// age out time-bounded indices.
    DayBoundary {
        /// Start of the day.
        day: Datetime,
    },
    /// One firehose event (already filtered to the collection window).
    Firehose(&'a Event),
    /// One row of the user-identifier dataset (`sync.listRepos`), emitted at
    /// most once per DID across all weekly snapshots.
    UserIdentifier {
        /// The account DID.
        did: &'a Did,
        /// Latest repo revision, if any.
        rev: Option<&'a str>,
    },
    /// One DID document (PLC export or did:web fetch).
    DidDocument {
        /// The document.
        doc: &'a DidDocument,
        /// Whether it was fetched over HTTPS as a did:web document.
        via_web: bool,
        /// The collector's active measurement of the document's handle;
        /// `None` exactly for handles under bsky.social, which §5 does not
        /// probe.
        probe: Option<&'a HandleProbe>,
    },
    /// One labeling service's metadata, emitted when its service record is
    /// announced — always before any of its labels.
    Labeler(&'a LabelerEntry),
    /// A batch of label interactions freshly published on one labeler's
    /// stream (the daily `subscribeLabels` read). Includes negations.
    Labels {
        /// The issuing labeler.
        src: &'a Did,
        /// The new stream entries, in publication order.
        labels: &'a [Label],
    },
    /// One feed generator with its curated posts.
    FeedGenerator(&'a FeedGenEntry),
    /// One repository snapshot: what the study reads of each record.
    Repo(&'a RepoSnapshot),
    /// One day of passively observed wire traffic on one connection (a
    /// per-DID firehose subscription or the identity-resolution client),
    /// with every §10 mitigation cell evaluated counterfactually.
    WireTrace(&'a WireTraceDay),
    /// Collection has ended; `finish` will be called next.
    WindowEnd {
        /// The end of the collection window.
        at: Datetime,
    },
}

impl Observation<'_> {
    /// Copy this borrowed bus item into its owned form so it can cross a
    /// thread boundary (see [`OwnedObservation`]).
    pub fn to_owned_observation(&self) -> OwnedObservation {
        match *self {
            Observation::WindowStart {
                firehose_collection_start,
                collection_end,
            } => OwnedObservation::WindowStart {
                firehose_collection_start,
                collection_end,
            },
            Observation::DayBoundary { day } => OwnedObservation::DayBoundary { day },
            Observation::Firehose(event) => OwnedObservation::Firehose(event.clone()),
            Observation::UserIdentifier { did, rev } => OwnedObservation::UserIdentifier {
                did: did.clone(),
                rev: rev.map(str::to_owned),
            },
            Observation::DidDocument {
                doc,
                via_web,
                probe,
            } => OwnedObservation::DidDocument {
                doc: doc.clone(),
                via_web,
                probe: probe.cloned(),
            },
            Observation::Labeler(entry) => OwnedObservation::Labeler(entry.clone()),
            Observation::Labels { src, labels } => OwnedObservation::Labels {
                src: src.clone(),
                labels: labels.to_vec(),
            },
            Observation::FeedGenerator(entry) => OwnedObservation::FeedGenerator(entry.clone()),
            Observation::Repo(snapshot) => OwnedObservation::Repo(snapshot.clone()),
            Observation::WireTrace(trace) => OwnedObservation::WireTrace(trace.clone()),
            Observation::WindowEnd { at } => OwnedObservation::WindowEnd { at },
        }
    }
}

/// The owned counterpart of [`Observation`]: every payload materialized so
/// a bus item can outlive its producer and cross a thread boundary.
///
/// The intra-shard pipeline (`crate::shard::PipelinedSink`) batches these
/// per day-chunk and ships them over a bounded channel to the analyzer
/// workers; [`OwnedObservation::as_observation`] re-borrows the exact bus
/// item on the receiving side, so analyzers never see the difference — the
/// round-trip is pinned by the property test in
/// `tests/pipeline_equivalence.rs`.
#[derive(Debug, Clone)]
pub enum OwnedObservation {
    /// See [`Observation::WindowStart`].
    WindowStart {
        /// When the continuous firehose subscription begins.
        firehose_collection_start: Datetime,
        /// Day after the last collected day.
        collection_end: Datetime,
    },
    /// See [`Observation::DayBoundary`].
    DayBoundary {
        /// Start of the day.
        day: Datetime,
    },
    /// See [`Observation::Firehose`].
    Firehose(Event),
    /// See [`Observation::UserIdentifier`].
    UserIdentifier {
        /// The account DID.
        did: Did,
        /// Latest repo revision, if any.
        rev: Option<String>,
    },
    /// See [`Observation::DidDocument`].
    DidDocument {
        /// The document.
        doc: DidDocument,
        /// Whether it was fetched over HTTPS as a did:web document.
        via_web: bool,
        /// The collector's active measurement of the document's handle.
        probe: Option<HandleProbe>,
    },
    /// See [`Observation::Labeler`].
    Labeler(LabelerEntry),
    /// See [`Observation::Labels`].
    Labels {
        /// The issuing labeler.
        src: Did,
        /// The new stream entries, in publication order.
        labels: Vec<Label>,
    },
    /// See [`Observation::FeedGenerator`].
    FeedGenerator(FeedGenEntry),
    /// See [`Observation::Repo`].
    Repo(RepoSnapshot),
    /// See [`Observation::WireTrace`].
    WireTrace(WireTraceDay),
    /// See [`Observation::WindowEnd`].
    WindowEnd {
        /// The end of the collection window.
        at: Datetime,
    },
}

impl OwnedObservation {
    /// Re-borrow this owned item as the bus [`Observation`] it was
    /// materialized from.
    pub fn as_observation(&self) -> Observation<'_> {
        match self {
            OwnedObservation::WindowStart {
                firehose_collection_start,
                collection_end,
            } => Observation::WindowStart {
                firehose_collection_start: *firehose_collection_start,
                collection_end: *collection_end,
            },
            OwnedObservation::DayBoundary { day } => Observation::DayBoundary { day: *day },
            OwnedObservation::Firehose(event) => Observation::Firehose(event),
            OwnedObservation::UserIdentifier { did, rev } => Observation::UserIdentifier {
                did,
                rev: rev.as_deref(),
            },
            OwnedObservation::DidDocument {
                doc,
                via_web,
                probe,
            } => Observation::DidDocument {
                doc,
                via_web: *via_web,
                probe: probe.as_ref(),
            },
            OwnedObservation::Labeler(entry) => Observation::Labeler(entry),
            OwnedObservation::Labels { src, labels } => Observation::Labels { src, labels },
            OwnedObservation::FeedGenerator(entry) => Observation::FeedGenerator(entry),
            OwnedObservation::Repo(snapshot) => Observation::Repo(snapshot),
            OwnedObservation::WireTrace(trace) => Observation::WireTrace(trace),
            OwnedObservation::WindowEnd { at } => Observation::WindowEnd { at: *at },
        }
    }
}

/// One sequence-numbered batch of owned observations — the unit the
/// intra-shard pipeline ships from the producer thread to its analyzer
/// workers. Workers assert they fold batches in contiguous `seq` order, so
/// channel scheduling can never reorder the stream an analyzer sees.
#[derive(Debug, Clone)]
pub struct ObservationBatch {
    /// Position of this batch in the shard's stream (0-based, contiguous).
    pub seq: u64,
    /// The materialized bus items, in emission order.
    pub items: Vec<OwnedObservation>,
}

/// The second argument of [`ObservationSink::observe`] and
/// [`crate::ShardSink::observe_part`]. It carries nothing: every input of an
/// analysis arrives as an [`Observation`]. It stays, empty, while the
/// benchmark's sinks spell it.
#[derive(Clone, Copy, Default)]
pub struct StudyCtx<'a> {
    _marker: PhantomData<&'a ()>,
}

/// An incremental analysis: folds observations as they arrive, merges with
/// independently folded peers, and produces its result struct once the
/// collection window closes.
pub(crate) trait Analyzer {
    /// The analysis result (one of the report's table/figure structs).
    type Output;

    /// Fold one observation into the accumulators.
    fn observe(&mut self, obs: &Observation<'_>);

    /// Combine another analyzer's independently accumulated state into this
    /// one. Must satisfy the merge law documented at the module level:
    /// splitting a stream anywhere and merging the two halves' states is
    /// equivalent to folding the whole stream.
    fn merge(&mut self, other: Self);

    /// Compute the final result. Called exactly once, after the last
    /// observation (and after all merges).
    fn finish(self) -> Self::Output;
}

/// Anything a producer can emit observations into.
///
/// [`crate::Collector::stream`] is generic over this, so the same
/// producer drives the sharded runner's concrete analyzer set, bespoke
/// probes (e.g. the bench's bounded-index watcher), and a recording `Vec`.
pub trait ObservationSink {
    /// Receive one observation.
    fn observe(&mut self, obs: &Observation<'_>, ctx: &StudyCtx<'_>);
}

/// Keep the stream: every observation is pushed in its owned form, in
/// emission order. Unbounded by construction — for tests and tooling that
/// need the tape, never for the report path.
impl ObservationSink for Vec<OwnedObservation> {
    fn observe(&mut self, obs: &Observation<'_>, _ctx: &StudyCtx<'_>) {
        self.push(obs.to_owned_observation());
    }
}

/// Statistics of one producer run over the bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Days the producer drove the world.
    pub days: u32,
    /// Observations emitted (including markers).
    pub observations: u64,
    /// Firehose events emitted (none retained by the producer).
    pub firehose_events: u64,
    /// Largest subscription batch held at once on the producer side. The
    /// producer interleaves chunked day steps with firehose reads, so this
    /// is bounded by the chunk size plus one user's commit burst —
    /// independent of the day's total event volume.
    pub peak_in_flight_events: usize,
    /// Weekly `sync.listRepos` snapshots taken inside the collection window
    /// (the final end-of-window sweep is not counted, matching the study's
    /// weekly cadence).
    pub listrepos_snapshots: u32,
    /// Bytes of repository data fetched for the §3 repositories dataset —
    /// full CARs plus `getRepo(since)` deltas: O(changed bytes) across the
    /// window.
    pub snapshot_bytes_fetched: u64,
    /// Full repository CARs fetched (new, rewound or re-homed DIDs, and
    /// failed deltas).
    pub repo_full_fetches: u64,
    /// `getRepo(since)` delta fetches.
    pub repo_delta_fetches: u64,
    /// Repositories skipped because `getRepo` failed mid-snapshot (account
    /// deleted or migrated away); surfaced in the report footer so silent
    /// dataset gaps are visible.
    pub repo_snapshot_skips: u64,
    /// Delta syncs that fell back to a full CAR fetch because the PDS
    /// compacted the mirror's revision out of its delta-serving window —
    /// surfaced here, never silent.
    pub(crate) repo_compaction_fallbacks: u64,
    /// Mirrored record blocks left out of the emitted repository snapshots
    /// because they claimed a `$type` and then failed their lexicon's
    /// decode. A visible dataset gap, never a silent drop; zero in every
    /// clean run.
    pub repo_records_undecodable: u64,
    /// Record payload bytes the in-window syncs let go as they retired each
    /// repository: the bytes of user-day record blocks the mirror already
    /// holds, which the fleet draws again for a later full export.
    /// Compaction before the collection window releases nothing.
    pub store_bytes_reclaimed: u64,
    /// MST subtrees the in-window syncs collapsed to their CIDs, summed
    /// over every sync: the frozen parts of the fleet's trees whose records
    /// the mirror holds.
    pub(crate) subtrees_collapsed: u64,
    /// Collapsed subtrees the fleet drew again, for full exports and for
    /// writes that landed in one; each is checked against its CID, and one
    /// that fails counts in [`StreamSummary::redraw_mismatches`]. Zero in a
    /// quiet run.
    pub(crate) subtrees_rederived: u64,
    /// Commits (with their log entries) the weekly compaction dropped from
    /// the fleet's repositories, before the collection window and in it.
    pub(crate) commits_dropped: u64,
    /// Block bytes resident in memory at the end of the run, in the PDS
    /// fleet's repository stores (the collector keeps no blocks).
    pub resident_block_bytes: u64,
    /// Block bytes the fleet's repository stores spilled to disk by the end
    /// of the run (paged stores only; zero for the in-memory backend).
    pub spilled_block_bytes: u64,
    /// Blocks that failed CID verification when paged back in from disk,
    /// across the fleet's repository stores. Corrupt blocks read as absent
    /// — any non-zero count here means data was lost to spill-file
    /// corruption and the run's snapshots may be incomplete; surfaced so
    /// that loss is never silent.
    pub store_corrupt_reads: u64,
    /// Released record blocks the fleet drew again for an export, each
    /// checked against the CID its repository's tree holds.
    pub(crate) blocks_redrawn: u64,
    /// Re-drawn records that failed that check, and released blocks a
    /// re-draw did not yield. Each fails its export; zero in every run.
    pub(crate) redraw_mismatches: u64,
    /// Always 0, like the three `writeback_*` counters: the study runs no
    /// AppView and no write-back cache. The four stay because
    /// `benchmark/src/surface.rs` reads them.
    pub counter_coalesced_writes: u64,
    /// Always 0; see [`StreamSummary::counter_coalesced_writes`].
    pub writeback_flushes: u64,
    /// Always 0; see [`StreamSummary::counter_coalesced_writes`].
    pub writeback_hits: u64,
    /// Always 0; see [`StreamSummary::counter_coalesced_writes`].
    pub writeback_misses: u64,
    /// Identity-resolution lookups the producer issued against the DNS
    /// zone store (`_atproto.<handle>` TXT) while riding the weekly
    /// `sync.listRepos` snapshots.
    pub identity_lookups: u64,
    /// Frames put on the firehose wire under the run's *active* framing
    /// policy (`--padding` / `--batch-window`). The §10 report sweeps all
    /// mitigation cells counterfactually; these counters describe the one
    /// wire this run actually produced.
    pub wire_frames: u64,
    /// Bytes the active framing policy spent above the raw event payload
    /// (frame headers plus padding, minus what batching reclaimed).
    pub padding_overhead_bytes: u64,
    /// Frames dropped by full per-connection capture buffers — a visible
    /// trace truncation, never silent.
    pub observer_trace_drops: u64,
    /// Retries the producer's [`bsky_workload::faults::RetryPolicy`] issued
    /// beyond first attempts (repo fetches, delta fetches, DNS lookups).
    pub retry_attempts: u64,
    /// Total simulated milliseconds spent in per-attempt timeouts and
    /// exponential backoff across those retries.
    pub retry_backoff_ms: u64,
    /// Repo/delta fetch sequences abandoned after the retry budget was
    /// exhausted — each a permanent, counted give-up (the repo is skipped
    /// or falls back to a full fetch), never a silent drop.
    pub fetch_retry_giveups: u64,
    /// DNS resolutions abandoned after the retry budget was exhausted.
    pub dns_retry_giveups: u64,
    /// `_atproto.` TXT resolutions that returned SERVFAIL — the injected
    /// flaps, retried or not — counted distinctly from generic lookup
    /// failure.
    pub dns_servfails: u64,
    /// Mirror repos re-fetched in full because their hosting PDS changed
    /// (mass migration after a host outage, or organic churn migration).
    pub backfill_full_fetches: u64,
    /// Commit events lost to injected firehose cursor gaps (the slow
    /// consumer missed them); a visible stream gap, never silent.
    pub cursor_gap_drops: u64,
    /// Events re-read after injected cursor rewinds (the consumer replays
    /// from the day-start cursor without re-observing).
    pub cursor_rewind_replays: u64,
    /// did:web documents whose well-known fetch failed or did not parse
    /// during the end-of-window DID-document sweep.
    pub(crate) did_doc_fetch_failures: u64,
    /// Accounts mass-migrated by the injected PDS host outage.
    pub outage_migrations: u64,
    /// Spam-wave posts injected on top of planned content.
    pub spam_posts_injected: u64,
    /// Posts flagged by the injected label storm.
    pub storm_labels_applied: u64,
    /// Accounts deleted by the injected tombstone storm.
    pub storm_tombstones: u64,
    /// Observation batches the intra-shard pipeline shipped from the
    /// producer thread to its analyzer workers (zero when the pipeline is
    /// off). Diagnostics only — never rendered into the report, so
    /// pipelined reports stay byte-identical.
    pub pipeline_batches: u64,
    /// Frames the super-relay accepted from the regional relay tier (zero
    /// outside `--relays N` federation). Diagnostics only — never rendered
    /// into the report, which stays byte-identical to a single-relay run.
    pub relay_events_forwarded: u64,
    /// Frames the super-relay dropped as cross-relay duplicates (zero in a
    /// clean-partition federated run: each region owns a disjoint PDS
    /// slice, so nothing arrives twice).
    pub relay_duplicates_dropped: u64,
    /// Frame identities admitted into the cross-relay dedup index.
    pub relay_dedup_tracked: u64,
}

impl StreamSummary {
    /// Render a one-line summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "pipeline: {} days, {} observations, {} firehose events streamed, peak {} in flight; repo snapshots: {} bytes fetched ({} full, {} delta), {} skipped, {} compaction fallback(s); store: {} bytes resident, {} spilled, {} commit(s) dropped and {} bytes reclaimed by compaction, {} block(s) re-drawn, {} subtree(s) collapsed, {} re-derived, {} CID mismatch(es)",
            self.days,
            self.observations,
            self.firehose_events,
            self.peak_in_flight_events,
            self.snapshot_bytes_fetched,
            self.repo_full_fetches,
            self.repo_delta_fetches,
            self.repo_snapshot_skips,
            self.repo_compaction_fallbacks,
            self.resident_block_bytes,
            self.spilled_block_bytes,
            self.commits_dropped,
            self.store_bytes_reclaimed,
            self.blocks_redrawn,
            self.subtrees_collapsed,
            self.subtrees_rederived,
            self.redraw_mismatches,
        );
        out.push_str(&format!(
            "; observatory: {} frames on the wire, {} overhead bytes, {} identity lookups",
            self.wire_frames, self.padding_overhead_bytes, self.identity_lookups
        ));
        if self.observer_trace_drops > 0 {
            out.push_str(&format!(
                ", {} trace frame(s) dropped by full capture buffers",
                self.observer_trace_drops
            ));
        }
        if self.store_corrupt_reads > 0 {
            out.push_str(&format!(
                ", {} corrupt read(s) — snapshots may be incomplete",
                self.store_corrupt_reads
            ));
        }
        if self.repo_records_undecodable > 0 {
            out.push_str(&format!(
                "; repo records: {} mirrored block(s) undecodable, left out of the snapshots",
                self.repo_records_undecodable
            ));
        }
        if self.retry_attempts > 0 || self.fetch_retry_giveups > 0 || self.dns_retry_giveups > 0 {
            out.push_str(&format!(
                "; retries: {} attempts over {} ms backoff, {} fetch give-up(s), {} dns give-up(s)",
                self.retry_attempts,
                self.retry_backoff_ms,
                self.fetch_retry_giveups,
                self.dns_retry_giveups
            ));
        }
        if self.dns_servfails > 0 {
            out.push_str(&format!("; dns: {} servfail(s)", self.dns_servfails));
        }
        if self.backfill_full_fetches > 0 {
            out.push_str(&format!(
                "; backfill: {} host-change full fetch(es)",
                self.backfill_full_fetches
            ));
        }
        if self.cursor_gap_drops > 0 || self.cursor_rewind_replays > 0 {
            out.push_str(&format!(
                "; cursor: {} commit(s) lost to gaps, {} event(s) replayed on rewinds",
                self.cursor_gap_drops, self.cursor_rewind_replays
            ));
        }
        if self.pipeline_batches > 0 {
            out.push_str(&format!(
                "; pipeline: {} observation batch(es) to analyzer workers",
                self.pipeline_batches
            ));
        }
        if self.relay_events_forwarded > 0 || self.relay_duplicates_dropped > 0 {
            out.push_str(&format!(
                "; federation: {} frame(s) forwarded to the super-relay, {} tracked, {} duplicate(s) dropped",
                self.relay_events_forwarded,
                self.relay_dedup_tracked,
                self.relay_duplicates_dropped
            ));
        }
        if self.did_doc_fetch_failures > 0 {
            out.push_str(&format!(
                "; did docs: {} fetch failure(s)",
                self.did_doc_fetch_failures
            ));
        }
        if self.outage_migrations > 0
            || self.spam_posts_injected > 0
            || self.storm_labels_applied > 0
            || self.storm_tombstones > 0
        {
            out.push_str(&format!(
                "; injected: {} outage migration(s), {} spam post(s), {} storm label(s), {} storm tombstone(s)",
                self.outage_migrations,
                self.spam_posts_injected,
                self.storm_labels_applied,
                self.storm_tombstones
            ));
        }
        out
    }

    /// Fold another producer's summary into this one (used when merging
    /// per-shard runs: counters add, peaks take the max, per-run constants
    /// take the max so identical values pass through).
    pub(crate) fn absorb(&mut self, other: &StreamSummary) {
        self.days = self.days.max(other.days);
        self.observations += other.observations;
        self.firehose_events += other.firehose_events;
        self.peak_in_flight_events = self.peak_in_flight_events.max(other.peak_in_flight_events);
        self.listrepos_snapshots = self.listrepos_snapshots.max(other.listrepos_snapshots);
        self.snapshot_bytes_fetched += other.snapshot_bytes_fetched;
        self.repo_full_fetches += other.repo_full_fetches;
        self.repo_delta_fetches += other.repo_delta_fetches;
        self.repo_snapshot_skips += other.repo_snapshot_skips;
        self.repo_compaction_fallbacks += other.repo_compaction_fallbacks;
        self.repo_records_undecodable += other.repo_records_undecodable;
        self.store_bytes_reclaimed += other.store_bytes_reclaimed;
        self.commits_dropped += other.commits_dropped;
        self.resident_block_bytes += other.resident_block_bytes;
        self.spilled_block_bytes += other.spilled_block_bytes;
        self.store_corrupt_reads += other.store_corrupt_reads;
        self.blocks_redrawn += other.blocks_redrawn;
        self.subtrees_collapsed += other.subtrees_collapsed;
        self.subtrees_rederived += other.subtrees_rederived;
        self.redraw_mismatches += other.redraw_mismatches;
        self.identity_lookups += other.identity_lookups;
        self.wire_frames += other.wire_frames;
        self.padding_overhead_bytes += other.padding_overhead_bytes;
        self.observer_trace_drops += other.observer_trace_drops;
        self.retry_attempts += other.retry_attempts;
        self.retry_backoff_ms += other.retry_backoff_ms;
        self.fetch_retry_giveups += other.fetch_retry_giveups;
        self.dns_retry_giveups += other.dns_retry_giveups;
        self.dns_servfails += other.dns_servfails;
        self.backfill_full_fetches += other.backfill_full_fetches;
        self.cursor_gap_drops += other.cursor_gap_drops;
        self.cursor_rewind_replays += other.cursor_rewind_replays;
        self.did_doc_fetch_failures += other.did_doc_fetch_failures;
        self.outage_migrations += other.outage_migrations;
        self.spam_posts_injected += other.spam_posts_injected;
        self.storm_labels_applied += other.storm_labels_applied;
        self.storm_tombstones += other.storm_tombstones;
        self.pipeline_batches += other.pipeline_batches;
        self.relay_events_forwarded += other.relay_events_forwarded;
        self.relay_duplicates_dropped += other.relay_duplicates_dropped;
        self.relay_dedup_tracked += other.relay_dedup_tracked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts observations by coarse kind.
    #[derive(Default)]
    struct CountingAnalyzer {
        firehose: u64,
        snapshots: u64,
        markers: u64,
    }

    #[derive(Debug, PartialEq, Eq)]
    struct Counts {
        firehose: u64,
        snapshots: u64,
        markers: u64,
    }

    impl Analyzer for CountingAnalyzer {
        type Output = Counts;

        fn observe(&mut self, obs: &Observation<'_>) {
            match obs {
                Observation::Firehose(_) => self.firehose += 1,
                Observation::WindowStart { .. }
                | Observation::DayBoundary { .. }
                | Observation::WindowEnd { .. } => self.markers += 1,
                _ => self.snapshots += 1,
            }
        }

        fn merge(&mut self, other: Self) {
            self.firehose += other.firehose;
            self.snapshots += other.snapshots;
            self.markers += other.markers;
        }

        fn finish(self) -> Counts {
            Counts {
                firehose: self.firehose,
                snapshots: self.snapshots,
                markers: self.markers,
            }
        }
    }

    #[test]
    fn merged_counting_analyzers_equal_one() {
        let day = Datetime::from_ymd(2024, 3, 6).unwrap();
        let mut whole = CountingAnalyzer::default();
        let mut a = CountingAnalyzer::default();
        let mut b = CountingAnalyzer::default();
        for i in 0..5 {
            let obs = Observation::DayBoundary {
                day: day.plus_days(i),
            };
            whole.observe(&obs);
            if i < 2 {
                a.observe(&obs);
            } else {
                b.observe(&obs);
            }
        }
        a.merge(b);
        assert_eq!(a.finish(), whole.finish());
    }
}
