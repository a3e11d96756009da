//! [`RunSpec`]: one declarative description of a study run.
//!
//! Every knob the pipeline understands — scenario seed/scale, engine
//! shards and worker threads, block-store backend, relay topology and
//! fault injection — lives in one struct, and a spec
//! describes exactly one run. The entry points
//! ([`crate::report::StudyReport::run`],
//! [`crate::report::StudyReport::run_serial`],
//! [`crate::shard::collect_sharded`]) all take a `&RunSpec`, so a new knob
//! is one field (a builder method only where an outside caller chains it) —
//! never a new suffix-combinated function variant. A sweep over seeds or
//! scales is a loop over specs (or a shell loop over `repro --seed` /
//! `--scale`), which composes with every other knob.
//!
//! Three fields are inert: `appview_shards` and `write_back` configured an
//! AppView the study no longer runs, and `framing` a wire no run shapes
//! (§10 sweeps every cell counterfactually). They stay only because
//! `benchmark/src/surface.rs` sets and reads them.
//!
//! [`RunSpec::validate`] holds the range rules (positive scale, shard and
//! relay counts; `1 <= jobs <= shards`;
//! `1 <= analyzer_threads <= 8`). The CLI maps a `validate()` error to exit
//! code 2; library callers get the same checks for free.

use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::framing::FramingPolicy;
use bsky_workload::faults::FaultSpec;
use bsky_workload::ScenarioConfig;

/// A full, validated-on-demand description of one study run. Construct
/// with [`RunSpec::new`], refine with the builder methods or by setting the
/// fields, hand to an entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The scenario (seed, dates, scale, mix).
    pub config: ScenarioConfig,
    /// Engine shards: the population is partitioned by DID hash into this
    /// many independently simulated shards.
    pub shards: usize,
    /// Worker threads simulating shards concurrently (`1..=shards`).
    /// `None` (the default, repro `--jobs auto`) resolves to
    /// [`std::thread::available_parallelism`] clamped to the shard count —
    /// see [`RunSpec::effective_jobs`].
    pub jobs: Option<usize>,
    /// Decouple each shard's producer from its analyzers: the producer
    /// pushes owned observation batches into a bounded channel while
    /// [`RunSpec::analyzer_threads`] workers fold disjoint subsets of the
    /// analyzer set (repro `--pipeline`). Observationally transparent —
    /// reports are byte-identical either way.
    pub pipeline: bool,
    /// Analyzer worker threads per shard when [`RunSpec::pipeline`] is on
    /// (clamped to the sink's fan-out part count at run time; inert when
    /// the pipeline is off).
    pub analyzer_threads: usize,
    /// Block-store backend for every repository of the PDS fleet.
    pub store: StoreConfig,
    /// Inert, kept for `benchmark/src/surface.rs`; deleted by ROADMAP
    /// item 3 step 1.
    pub appview_shards: usize,
    /// Relay tiers: `1` (the default) runs the classic single relay; `N > 1`
    /// runs a federated hierarchy of N regional relays forwarding into one
    /// super-relay with cross-relay dedup (repro `--relays N`). Federated
    /// runs are byte-identical to single-relay runs by construction — see
    /// `bsky_relay::federation`.
    pub relays: usize,
    /// Inert, kept for `benchmark/src/surface.rs`; deleted by ROADMAP
    /// item 3 step 1.
    pub write_back: bool,
    /// Inert, kept for `benchmark/src/surface.rs`; deleted by ROADMAP
    /// item 3 step 1.
    pub framing: FramingPolicy,
    /// Fault injection spec (quiet by default).
    pub faults: FaultSpec,
    /// Scenario label for the report's fault-impact section (`None` renders
    /// a non-quiet custom spec as `custom`).
    pub scenario: Option<String>,
}

impl RunSpec {
    /// A single serial run of `config` with every default: one shard, auto
    /// jobs (which one shard clamps to one worker), in-memory store, no
    /// intra-shard pipeline, a single relay, quiet faults.
    pub fn new(config: ScenarioConfig) -> RunSpec {
        RunSpec {
            config,
            shards: 1,
            jobs: None,
            pipeline: false,
            analyzer_threads: 2,
            store: StoreConfig::default(),
            appview_shards: 1,
            relays: 1,
            write_back: true,
            framing: FramingPolicy::default(),
            faults: FaultSpec::default(),
            scenario: None,
        }
    }

    /// Partition the population into `shards` engine shards.
    pub fn shards(mut self, shards: usize) -> RunSpec {
        self.shards = shards;
        self
    }

    /// Simulate up to `jobs` shards concurrently.
    pub fn jobs(mut self, jobs: usize) -> RunSpec {
        self.jobs = Some(jobs);
        self
    }

    /// Toggle the intra-shard producer/analyzer pipeline.
    pub fn pipeline(mut self, pipeline: bool) -> RunSpec {
        self.pipeline = pipeline;
        self
    }

    /// Set the analyzer worker-thread count used when the pipeline is on.
    pub fn analyzer_threads(mut self, threads: usize) -> RunSpec {
        self.analyzer_threads = threads;
        self
    }

    /// The worker-thread count this spec resolves to: the explicit
    /// [`RunSpec::jobs`] value, or — for auto — the machine's
    /// [`std::thread::available_parallelism`] clamped to
    /// [`RunSpec::shards`] (at least 1).
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            Some(jobs) => jobs,
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, self.shards.max(1)),
        }
    }

    /// Select the block-store backend.
    pub fn store(mut self, store: StoreConfig) -> RunSpec {
        self.store = store;
        self
    }

    /// Sets the inert [`RunSpec::appview_shards`]; kept for
    /// `benchmark/src/surface.rs`, deleted by ROADMAP item 3 step 1.
    pub fn appview_shards(mut self, shards: usize) -> RunSpec {
        self.appview_shards = shards;
        self
    }

    /// Select the relay topology: `1` for the classic single relay, `N > 1`
    /// for N regional relays federated under one super-relay.
    pub fn relays(mut self, relays: usize) -> RunSpec {
        self.relays = relays;
        self
    }

    /// Check every range rule and the one cross-knob rule (`jobs <=
    /// shards`). The repro CLI maps an error to exit code 2 (the messages
    /// name the CLI flags); library callers get the identical rules. Entry
    /// points assert a valid spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.config.scale == 0 {
            return Err("--scale must be positive".into());
        }
        if self.jobs == Some(0) {
            return Err("--jobs must be at least 1 (or auto)".into());
        }
        if self.shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if let Some(jobs) = self.jobs {
            if jobs > self.shards {
                return Err(format!(
                    "--jobs ({}) exceeds the shard count ({}); use --shards {} or fewer jobs",
                    jobs, self.shards, jobs
                ));
            }
        }
        if self.analyzer_threads == 0 {
            return Err("--analyzer-threads must be at least 1".into());
        }
        if self.analyzer_threads > 8 {
            return Err(format!(
                "--analyzer-threads ({}) exceeds the analyzer fan-out limit (8)",
                self.analyzer_threads
            ));
        }
        if self.relays == 0 {
            return Err("--relays must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> RunSpec {
        RunSpec::new(ScenarioConfig::test_scale(7))
    }

    #[test]
    fn defaults_are_valid_and_serial() {
        let spec = base();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.shards, 1);
        assert_eq!(spec.jobs, None);
        // Auto jobs clamp to the shard count, so the default stays serial.
        assert_eq!(spec.effective_jobs(), 1);
        assert!(!spec.pipeline);
        assert!(spec.faults.is_quiet());
    }

    #[test]
    fn auto_jobs_resolve_to_available_parallelism_clamped_to_shards() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let spec = base().shards(4);
        assert_eq!(spec.effective_jobs(), cores.clamp(1, 4));
        // An explicit value always wins over auto resolution.
        assert_eq!(base().shards(4).jobs(2).effective_jobs(), 2);
        // Auto never resolves above the shard count or below one worker.
        let wide = base().shards(1024);
        assert_eq!(wide.effective_jobs(), cores.clamp(1, 1024));
        assert!(base().effective_jobs() >= 1);
    }

    #[test]
    fn pipeline_knobs_are_validated() {
        assert!(base().pipeline(true).validate().is_ok());
        assert!(base().pipeline(true).analyzer_threads(8).validate().is_ok());
        let err = base().analyzer_threads(0).validate().unwrap_err();
        assert!(err.contains("--analyzer-threads"), "{err}");
        let err = base()
            .pipeline(true)
            .analyzer_threads(9)
            .validate()
            .unwrap_err();
        assert!(err.contains("fan-out limit"), "{err}");
        // Pipelined sharded runs are a supported combination.
        assert!(base()
            .shards(4)
            .jobs(4)
            .pipeline(true)
            .analyzer_threads(2)
            .validate()
            .is_ok());
    }

    #[test]
    fn sharding_bounds_are_enforced() {
        assert!(base().shards(4).jobs(2).validate().is_ok());
        assert!(base().shards(2).jobs(2).validate().is_ok());
        let err = base().shards(2).jobs(4).validate().unwrap_err();
        assert!(err.contains("exceeds the shard count"), "{err}");
        assert!(base().jobs(0).validate().is_err());
        assert!(base().shards(0).jobs(0).validate().is_err());
        assert!(base().relays(0).validate().is_err());
        let mut spec = base();
        spec.config.scale = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn relay_topology_knob() {
        assert_eq!(base().relays, 1, "single relay by default");
        let fed = base().relays(2);
        assert_eq!(fed.relays, 2);
        assert!(fed.validate().is_ok());
        assert!(base().relays(2).shards(4).jobs(4).validate().is_ok());
    }
}
