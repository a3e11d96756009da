//! # bsky-study
//!
//! The paper's primary contribution, reproduced as a *streaming* measurement
//! pipeline: the real study consumed the firehose continuously over weeks,
//! and this crate mirrors that consumption model instead of batch-scanning
//! materialized vectors.
//!
//! The architecture is an observation bus with incremental analyzers:
//!
//! * [`pipeline`] — the core abstractions: [`pipeline::Observation`] (one
//!   variant per §3 dataset item plus collection-window markers),
//!   the crate's `Analyzer` trait (`observe` folds one observation,
//!   `merge` combines two folded states, `finish` produces the result),
//!   and [`pipeline::ObservationSink`] (what a producer emits into).
//!   Analyzers read observations only, never the world.
//! * [`collect`] — the §3 *producer*: [`Collector::stream`] drives a
//!   simulated [`bsky_workload::World`] day by day through the same service
//!   interfaces the real study used and emits every dataset item exactly
//!   once. It also takes §5's active measurements (DNS TXT and well-known
//!   proofs, WHOIS, Tranco, the public suffix list) and attaches them to
//!   each DID document it emits. The repositories dataset is kept current by the rev-aware
//!   incremental mirror in `collect::mirror`, and §10's passive `observer`
//!   taps the collector's own firehose subscription.
//!
//! One module per section of the paper, each owning its analyzers, their
//! merge, its output structs with their rendering, and its slice of the
//! JSON export:
//!
//! * `table1` — Table 1's firehose event types and §9's firehose volume.
//! * `activity` — §4: Figures 1–2, the operation totals, account
//!   popularity and non-Bluesky content.
//! * `identity` — §5: handles, Figure 3, Table 2 and ownership proofs.
//! * `moderation` — §6: labelers and labels, Tables 3, 4 and 6, Figures
//!   4–6.
//! * `recommendation` — §7: feed generators, Table 5, Figures 7–12.
//! * `observatory` — §10, the wire-level traffic observatory: the
//!   observer's per-connection `(size, gap)` capture feeds a closed-world 1-NN
//!   activity classifier, swept across padding/batching mitigation cells
//!   evaluated counterfactually from the raw traces.
//!
//! Around them:
//!
//! * [`shard`] — the sharded engine: the population is partitioned by DID
//!   hash, one producer + analyzer set runs per shard on worker threads,
//!   and the per-shard states are merged (every analyzer implements an
//!   associative `merge`) into a report byte-identical to the serial run's.
//! * [`spec`] — [`RunSpec`], the one builder every run flows through:
//!   seed and scale, engine shards and worker threads, block-store backend,
//!   relay topology and fault scenario all live on it, and
//!   [`RunSpec::validate`] rejects out-of-range values up front. One spec
//!   describes one run.
//! * [`report`] — the entry points, both taking a `&RunSpec`:
//!   [`StudyReport::run`] computes the full report across worker threads
//!   in **one pass with bounded memory** (firehose events are never
//!   retained) and [`StudyReport::run_serial`] is the same call on one
//!   shard and one thread. The report renders and serialises one section
//!   at a time, in paper order. A sweep over seeds or scales is a loop over
//!   them.
//! * [`stats`] — quantiles, Pearson correlation, share tables.
//! * [`langdetect`] — the language detector used on feed descriptions.
//! * [`json`] — a dependency-free JSON tree for the headline-number export.
//!
//! ## The intra-shard pipeline
//!
//! Sharding parallelizes across shards; [`RunSpec::pipeline`] (repro
//! `--pipeline`) parallelizes *inside* each one. The producer materializes
//! its borrowed bus items into owned, sequence-numbered
//! [`pipeline::ObservationBatch`]es and ships them over bounded channels
//! to [`RunSpec::analyzer_threads`] workers, each folding a disjoint
//! subset of the eight analyzers ([`shard::ShardSink::fan_out_parts`]).
//! Backpressure preserves the one-chunk memory bound, sequence assertions
//! make every part fold the exact serial stream, and the parts reassemble
//! through the same merge law at shard end — so the report stays
//! byte-identical for any `(shards, jobs, analyzer_threads)`. What it
//! can overlap with the producer is analyzer CPU only, and the benchmark
//! puts that at 0.079 s of a 1.09 s stream (the traced
//! `fullwindow_pipelined` pass, seed 7): a 7 % ceiling, and ten alternating
//! pipelined / unpipelined pairs on two cores measured no difference.
//! Every observation folds on the workers, the end-of-window snapshots
//! included. `RunSpec::jobs` defaults to the machine's available
//! parallelism clamped to the shard count ([`RunSpec::effective_jobs`]).
//!
//! ## Faults & scenarios
//!
//! The pipeline composes with the deterministic fault-injection layer in
//! [`bsky_workload::faults`] (re-exported here as [`faults`]). A
//! [`faults::FaultSpec`] — one of the named scenarios (`repro --scenario
//! pds-migration`, `label-storm`, `cursor-gap`, …) or a custom
//! `key=value` spec (`repro --faults flaky=0.2,gap=0.05`) — is attached
//! via [`RunSpec::scenario`] / [`RunSpec::faults`], compiled into a
//! [`faults::FaultPlan`] for the run's day window, and shared by every
//! shard's world and producer.
//!
//! Two invariants make faulted runs first-class citizens of the
//! equivalence suite rather than a separate mode:
//!
//! 1. **Determinism by derivation** — every injected failure (host
//!    outages and mass migrations, flaky `getRepo`/`getRepoSince`, DNS
//!    SERVFAILs, firehose cursor gaps and rewinds, spam waves, label and
//!    tombstone storms) is a pure function of `(seed, key, day)` drawn
//!    from dedicated RNG forks. Fault placement never consumes workload
//!    randomness, so the quiet plan is byte-inert, and every shard
//!    recomputes the same decisions — faulted reports are byte-identical
//!    serial vs. sharded and mem vs. paged (pinned by
//!    `tests/fault_scenarios.rs`).
//! 2. **Never silent** — every retry, backoff, give-up, fallback, and
//!    dropped event lands in a named [`pipeline::StreamSummary`] counter,
//!    and scenario runs render a dedicated `Scenario impact` report
//!    section. Graceful degradation is always visible in the output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod collect;
mod identity;
pub mod json;
pub mod langdetect;
mod moderation;
mod observatory;
mod observer;
pub mod pipeline;
mod recommendation;
pub mod report;
pub mod shard;
pub mod spec;
pub mod stats;
mod table1;

pub use bsky_workload::faults;
pub use collect::Collector;
pub use pipeline::{
    Observation, ObservationBatch, ObservationSink, OwnedObservation, StreamSummary, StudyCtx,
};
pub use report::StudyReport;
pub use shard::{collect_sharded, ShardSink, ShardedSummary, StudyAnalyzers};
pub use spec::RunSpec;
