//! # bluesky-repro
//!
//! Umbrella crate for the reproduction of *Looking AT the Blue Skies of
//! Bluesky* (IMC 2024). It re-exports the workspace crates so the examples
//! and integration tests have a single import surface:
//!
//! * [`bsky_atproto`] — the AT Protocol data model.
//! * [`bsky_simnet`] — the deterministic simulation substrate.
//! * [`bsky_identity`], [`bsky_pds`], [`bsky_relay`], [`bsky_labeler`],
//!   [`bsky_feedgen`], [`bsky_appview`] — the network services.
//! * [`bsky_workload`] — the calibrated synthetic ecosystem.
//! * [`bsky_study`] — the streaming measurement pipeline and analyses.
//!
//! ## The streaming study pipeline
//!
//! The measurement pipeline mirrors how the real study consumed the network:
//! as a continuous stream, not a batch scan. `bsky_study` is built around an
//! *observation bus*:
//!
//! * `bsky_study::Observation` — one bus item per §3 dataset element
//!   (firehose event, repo snapshot, user-identifier row, DID document,
//!   feed-generator entry, labeler entry) plus day-boundary and
//!   collection-window markers.
//! * the study's `Analyzer`s — incremental consumers: `observe` folds one
//!   observation into accumulators, `merge` combines two folded states,
//!   `finish` emits the section's tables and figures.
//! * `bsky_study::ObservationSink` — what a producer emits into (the
//!   report's analyzer set, a probe, or a `Vec<OwnedObservation>` that
//!   keeps the stream); `bsky_study::Collector::stream` is the producer,
//!   driving a [`bsky_workload::World`] day by day through the public
//!   service interfaces.
//!
//! `bsky_study::StudyReport::run` computes the entire report in a single
//! pass with bounded memory — firehose events are never retained; the
//! producer reads the relay in constant-size chunks
//! ([`bsky_workload::World::step_chunk`]) so peak in-flight is independent
//! of daily volume. One call is one run; a sweep over seeds or scales is a
//! loop over specs.
//!
//! ## Run configuration: one `RunSpec`, two entry points
//!
//! Every knob a study run has — seed and scale, engine shards and worker
//! threads, block-store backend, wire framing, relay topology, fault
//! scenario — lives on one struct, `bsky_study::RunSpec`, with builder methods for the knobs
//! callers chain:
//!
//! ```ignore
//! let mut spec = RunSpec::new(config)
//!     .jobs(4)
//!     .shards(8)
//!     .store(StoreConfig::paged().page_size(4096));
//! spec.faults = FaultSpec::scenario("pds-migration").unwrap();
//! spec.scenario = Some("pds-migration".into());
//! let (report, summary) = StudyReport::run(&spec);
//! ```
//!
//! The entry points are `bsky_study::StudyReport::run` (sharded across
//! worker threads) and `run_serial` (the same call coerced to one shard on
//! one thread); there is no other way a report is computed, and the repro
//! CLI maps its flags onto the same struct. `RunSpec::validate` rejects
//! out-of-range values up front with an actionable message instead of a
//! mid-run panic.
//!
//! ## The sharded engine
//!
//! Every stochastic decision in the workload derives from `(seed, DID,
//! day)` ([`bsky_workload::PopulationPlan`]), so the population partitions
//! exactly by DID hash: `bsky_study::StudyReport::run` (repro
//! `--jobs N [--shards S]`) runs one producer + analyzer set per shard on
//! worker threads and merges the per-shard states through the associative
//! `Analyzer::merge` — producing a report **byte-identical** to
//! the serial run for any shard count (see
//! `tests/pipeline_equivalence.rs`; the serial bytes themselves are stored
//! hashes in `tests/runspec_golden.rs`).
//!
//! ## The intra-shard pipeline
//!
//! Sharding parallelizes across shards; `RunSpec::pipeline` (repro
//! `--pipeline --analyzer-threads N`) parallelizes *inside* each one. The
//! shard's producer materializes its borrowed bus items into owned,
//! sequence-numbered `bsky_study::ObservationBatch`es and ships them over
//! bounded channels to N analyzer workers
//! (`bsky_study::shard::PipelinedSink`), each folding a disjoint subset of the
//! eight analyzers; the bounded channel's backpressure preserves the
//! one-chunk memory bound, the sequence numbers guarantee every part folds
//! the exact serial stream, and the per-part states reassemble through the
//! same associative merge at shard end. Observations whose analyzers run
//! active measurements against the live world (the end-of-window DID
//! documents) drain the workers and fold inline on the producer thread.
//! The report stays byte-identical for any `(shards, jobs,
//! analyzer_threads)` — pinned by the golden and property tests. (All it
//! can overlap with the producer is analyzer CPU, 7 % of the stream in the
//! benchmark's traced pass, and an alternating A/B measures no gain; see
//! `bsky_study`'s crate docs.) `jobs` defaults to the machine's available
//! parallelism clamped to the shard count (`--jobs auto`).
//!
//! ## Incremental repository snapshots
//!
//! The §3 repositories dataset is collected incrementally: repositories
//! log the blocks each commit introduces, the PDS and relay serve
//! `com.atproto.sync.getRepo(did, since=rev)` deltas, and
//! the incremental mirror in `bsky_study::collect` rides the weekly
//! `sync.listRepos` snapshots — fetching full CARs only for new or rewound
//! DIDs and record-scoped deltas otherwise. The window-end full download of
//! every CAR is not a mode; it is the oracle a test of the mirror holds the
//! emitted `Observation::Repo` snapshots equal to, record for record.
//!
//! ## Pluggable block storage and compaction
//!
//! Every stored CID-addressed byte blob — a repository's record blocks —
//! lives behind the `bsky_atproto::blockstore::BlockStore` trait. (The
//! study's repository mirror keeps no blocks: it decodes each record once,
//! on arrival, and keeps a fixed-size projection of what the analyzers
//! read.) Two backends, built from
//! a `StoreConfig` and not nameable otherwise: the in-memory store (the
//! default; one buffer per store packs each block behind a header holding
//! its CID and length, found through an open-addressed table of 4-byte
//! offsets into that buffer, so a CID is kept once, beside its bytes) and
//! the paged store
//! (fixed-size pages with an LRU of resident pages; cold pages are
//! appended to one segment file per spill root, shared by every store of
//! the process and removed with the last of them, a page-in is one
//! positioned read, and every block that comes back from disk is
//! re-hashed against its CID before it is returned). The backend is
//! chosen when a world is built (`bsky_workload::WorldSpec::store`, repro
//! `--store mem|paged --page-size N --spill-dir DIR`) and changes only
//! *where* blocks reside — the golden equivalence test pins mem == paged
//! byte-identical, serial and sharded.
//!
//! On the wire, MST node entries are prefix-compressed exactly like the
//! reference implementation (`p` shared-prefix length + `k` suffix),
//! shrinking full CARs and structural deltas alike. On the storage side,
//! a repository's block store holds record blocks only: the in-memory MST
//! is the one copy of the tree, encoded while a CAR is written (deltas
//! ship only current nodes), and it keeps all its keys in one buffer that
//! its entries index by offset. A repository only creates records: a
//! write batch is validated whole (keys valid, absent, named once) and then
//! applied with no failure path, so the store holds exactly the tree's
//! values and nothing ever needs a reference count or a rollback. The
//! study producer runs a weekly compaction
//! pass (`bsky_atproto::repo::Repository::compact_before`): commits that
//! aged out of the delta-serving window are dropped, and no record block
//! goes with them. A delta
//! requested since a compacted revision fails with
//! `AtError::RevisionCompacted`, and the incremental mirror falls back to
//! a full fetch *visibly* — the fallback count is
//! surfaced in `bsky_study::StreamSummary`, never swallowed.
//!
//! ## The AppView the study sees
//!
//! The study never acts as an AppView's client. What an AppView knows
//! reaches the report through one read: `getFeed` hydration, which drops
//! the posts its index no longer holds. A post leaves that index only when
//! its author's `#tombstone` arrives over the relay — the event that also
//! drops the author from the relay's `listRepos` — so the collector
//! hydrates a feed entry while `bsky_relay::Relay::lists_repo` holds for
//! its author, and the world runs no AppView. `bsky_appview::AppViewShards`
//! (an entity-sharded index whose counters flush daily into counter blocks
//! behind a `WriteBackStore`) remains for the benchmark, which replays the
//! world's records into it; `RunSpec::{appview_shards, write_back}` are
//! inert.
//!
//! ## The wire-level traffic observatory
//!
//! A passive adversary watching the encrypted links sees only frame sizes
//! and inter-arrival gaps — and, per the FOCI'20 encrypted-DNS
//! fingerprinting literature, that is often enough. The observatory models
//! this end to end:
//!
//! * **Capture** — `bsky_simnet::observer::WireObserver` is a bounded
//!   per-connection tap (overflow counted, never silent); the relay feeds
//!   it every firehose frame from `Event::wire_size` and the simulated
//!   clock, and the collector's identity snapshots route handle resolution
//!   through the simulated DNS (`bsky_simnet::dns`), producing a
//!   resolver-side lookup trace.
//! * **Mitigation** — `bsky_atproto::framing::FramingPolicy` shapes the
//!   wire: `PaddingPolicy` pads frames to 128-byte buckets or a constant
//!   size, and a batching window coalesces a connection's events into one
//!   frame per window. Framing derives purely from (event bytes, event
//!   time), so the sharded engine splits and merges it exactly (repro
//!   `--padding none|buckets|constant --batch-window SECS`).
//! * **Study** — `bsky_study`'s observatory analyzer folds the traces into
//!   the §10 report section: a closed-world 1-NN classifier over
//!   per-(DID, week) (size, gap) features, trained on even weeks and
//!   tested on odd weeks with class-balanced sampling, against ground
//!   truth from the `bsky_workload::PopulationPlan` activity weights. The
//!   whole mitigation sweep is evaluated *counterfactually* from the raw
//!   captured traces, so every cell — accuracy × bandwidth overhead for
//!   none / bucketed / batched / constant-size framing — appears in one
//!   report, and the report stays byte-identical whatever policy is
//!   active on the wire (the golden tests pin this, serial and sharded,
//!   mem and paged stores).
//!
//! The active policy's real cost *is* visible where it belongs:
//! `bsky_study::StreamSummary` counts wire frames, padding overhead
//! bytes, identity lookups, and observer drops.
//!
//! ## Hierarchical relay federation
//!
//! One relay crawling every PDS is the million-DID bottleneck: its
//! firehose retention, known-DID index and crawl cursors all grow with
//! the fleet. `bsky_relay::RelayFederation` (repro `--relays N`,
//! `RunSpec::relays`) splits the crawl hierarchically:
//!
//! ```text
//!   PDS fleet (hostname-sorted)          regional relays      super-relay
//!   [pds00 pds01 | pds02 pds03]  --->  relay00  relay01  --->    hub
//!        region 0      region 1         (crawl)  (crawl)      (collector)
//! ```
//!
//! Each regional relay owns a *contiguous slice* of the hostname-sorted
//! fleet and crawls only that slice; the super-relay never talks to a PDS
//! for its firehose — regions forward their streams through
//! cursor-resumable subscriptions (`Relay::subscribe` from the last
//! forwarded seq, so a region outage resumes without loss) into the hub,
//! which re-sequences them densely. A cross-relay dedup index drops
//! commits by `(did, rev)` — the rev is a monotonic per-repo TID, so the
//! pair names one commit globally — and revision-less frames (identity,
//! handle change, tombstone) by their crawl provenance `(host,
//! outbox_seq)`; a commit reaching the hub via two regions is emitted
//! exactly once, and the index ages out with the firehose retention
//! window. Because region 0..N−1 forward in the same order a single
//! relay's sorted crawl would visit, the hub's stream is **byte-identical**
//! to the classic single-relay firehose — seqs, wire sizes, stats, known
//! DIDs — pinned by `tests/federation_golden.rs` across engines, stores
//! and seeds against the pre-federation goldens. Forwarding volume,
//! dedup admissions and duplicate drops are `RelayStats` /
//! `bsky_study::StreamSummary` counters. The
//! streaming bench (`crates/bench/benches/streaming.rs`, run by
//! `cargo test`) asserts the scale-out claim: resident block bytes per DID
//! at two population scales, the larger population strictly cheaper.
//!
//! ## Deterministic fault injection & scenarios
//!
//! `bsky_simnet::faults` extends determinism-by-derivation to failure:
//! a `FaultPlan` derives every injected fault — PDS host outages with
//! mass account re-homing, flaky or timed-out `getRepo`/`getRepoSince`
//! calls, DNS lookup failures, firehose cursor gaps and rewinds, spam
//! waves, label storms, tombstone storms — as a pure function of
//! `(seed, key, day)` from dedicated RNG forks, so an injected outage
//! hits the same DIDs on the same day in every shard layout and store
//! backend. The collector recovers through
//! `bsky_simnet::faults::RetryPolicy` (bounded retries, deterministic
//! exponential backoff, per-class timeouts), and the established
//! never-silent rule applies to recovery too: every retry, backoff,
//! give-up, host-change backfill, dropped event, and replayed event is
//! a named `bsky_study::StreamSummary` counter, rolled up into a
//! `Scenario impact` section of `bsky_study::StudyReport::render`.
//! Scenarios are selected with repro `--scenario NAME` (pds-migration,
//! flaky-fetch, dns-flap, cursor-gap, spam-wave, label-storm,
//! tombstone-storm) or composed ad hoc with `--faults SPEC`; the
//! golden tests in `tests/fault_scenarios.rs` pin every scenario
//! byte-identical serial vs. sharded and mem vs. paged, and the quiet
//! plan byte-inert against the plain streaming path.

pub use bsky_appview;
pub use bsky_atproto;
pub use bsky_feedgen;
pub use bsky_identity;
pub use bsky_labeler;
pub use bsky_pds;
pub use bsky_relay;
pub use bsky_simnet;
pub use bsky_study;
pub use bsky_workload;
