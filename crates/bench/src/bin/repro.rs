//! Reproduction harness: regenerates every table and figure of the paper from
//! a seeded simulation run.
//!
//! Usage:
//!   repro [--seed N] [--scale N]
//!         [--jobs auto|N] [--shards N] [--pipeline] [--analyzer-threads N]
//!         [--relays N] [--json] [--stream] [--store mem|paged] [--page-size BYTES]
//!         [--spill-dir DIR]
//!         [--padding none|buckets|constant] [--batch-window SECS]
//!         [--scenario NAME] [--faults SPEC]
//!
//! Every flag maps onto one field of [`bsky_study::RunSpec`] — the single
//! run description all library entry points take — except the two output
//! modes: `--json` additionally prints the headline numbers as JSON (the
//! format EXPERIMENTS.md records) and `--stream` prints the streaming
//! pipeline's summary (observations, peak in-flight events) after the
//! report.
//!
//! `--scale` is the denominator applied to the live network's size
//! (default 2000 ⇒ ≈2,760 users). `--jobs N` runs the collection sharded:
//! the population is partitioned by DID hash into `--shards` shards
//! (default: one per job) simulated on `N` worker threads and merged — the
//! report is byte-identical to the serial run. `--jobs auto` (the default
//! when only `--shards` is given) resolves to the machine's available
//! parallelism clamped to the shard count. `--pipeline` decouples each
//! shard's producer from its analyzers over a bounded channel and fans the
//! analyzer set across `--analyzer-threads N` workers (default 2) — same
//! bytes, more threads. One invocation is one run; a sweep is a shell loop,
//! which composes with every flag:
//! `for s in 1 2; do repro --seed $s --scale 40000 > report-$s.txt; done`.
//! `--store paged` backs every repository of the PDS fleet with the paged
//! disk-spill block store (`--page-size` sets the page capacity in bytes,
//! `--spill-dir` the spill root, created before the run starts).
//! `--relays N` federates the crawl across `N` regional relays, each
//! owning a contiguous slice of the PDS fleet and forwarding its firehose
//! (cursor-resumable, `(did, rev)`-deduplicated) into the super-relay the
//! collector subscribes to.
//! `--padding` and `--batch-window` select the wire framing mitigations
//! (§10). `--scenario NAME` runs one of the named fault scenarios;
//! `--faults SPEC` injects a custom `key=value,...` specification. The two
//! compose: the scenario preset is applied first and the spec's keys
//! overlay it, so `--scenario dns-flap --faults flaky=0.1` adds flakiness
//! on top of the preset. Giving the *same* key two different values in one
//! spec is a contradiction and exits 2.
//!
//! All of these knobs are observationally transparent: stores, relays and
//! framing move only the `--stream` summary's accounting, and fault placement is a pure function of
//! `(seed, DID, day)` — the rendered report is byte-identical across every
//! combination (scenario runs add an impact section).
//!
//! Unknown flags, missing/malformed values, conflicting flags and an
//! unusable `--spill-dir` are errors (exit code 2); value ranges and
//! `jobs <= shards` are checked centrally by [`RunSpec::validate`].

use bsky_atproto::blockstore::{StoreConfig, StoreKind};
use bsky_atproto::framing::{FramingPolicy, PaddingPolicy};
use bsky_study::faults::{FaultSpec, SCENARIO_NAMES};
use bsky_study::{RunSpec, StudyReport};
use bsky_workload::ScenarioConfig;

const USAGE: &str = "usage: repro [--seed N] [--scale N] [--jobs auto|N] [--shards N] [--pipeline] [--analyzer-threads N] [--relays N] [--json] [--stream] [--store mem|paged] [--page-size BYTES] [--spill-dir DIR] [--padding none|buckets|constant] [--batch-window SECS] [--scenario NAME] [--faults SPEC]\n  one invocation is one run; sweep with a shell loop: for s in 1 2; do repro --seed $s ...; done";

/// Parsed command line: the library [`RunSpec`] plus the CLI-only output
/// modes.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    spec: RunSpec,
    json: bool,
    stream: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            spec: RunSpec::new(ScenarioConfig::repro_scale(42)),
            json: false,
            stream: false,
        }
    }
}

/// Parse the value following a flag.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let Some(raw) = value else {
        return Err(format!("{flag} requires a value"));
    };
    raw.parse()
        .map_err(|_| format!("invalid value for {flag}: {raw:?}"))
}

/// Parse and validate the full argument list (everything after `argv[0]`).
/// Returns `Ok(None)` for `--help`. Flag syntax (unknown flags, malformed
/// values, flags requiring other flags) is checked here; value ranges are
/// delegated to [`RunSpec::validate`].
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut shards: Option<usize> = None;
    let mut analyzer_threads: Option<usize> = None;
    let mut store_kind: Option<StoreKind> = None;
    let mut page_size: Option<usize> = None;
    let mut spill_dir: Option<String> = None;
    let mut padding: Option<PaddingPolicy> = None;
    let mut batch_window: Option<u64> = None;
    let mut scenario: Option<String> = None;
    let mut faults_spec: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                opts.spec.config.seed = parse_value("--seed", args.get(i + 1))?;
                i += 1;
            }
            "--scale" => {
                opts.spec.config.scale = parse_value("--scale", args.get(i + 1))?;
                i += 1;
            }
            "--jobs" => {
                let raw: String = parse_value("--jobs", args.get(i + 1))?;
                if raw == "auto" {
                    opts.spec.jobs = None;
                } else {
                    opts.spec.jobs = Some(
                        raw.parse()
                            .map_err(|_| format!("invalid value for --jobs: {raw:?}"))?,
                    );
                }
                i += 1;
            }
            "--pipeline" => opts.spec.pipeline = true,
            "--analyzer-threads" => {
                analyzer_threads = Some(parse_value("--analyzer-threads", args.get(i + 1))?);
                i += 1;
            }
            "--shards" => {
                shards = Some(parse_value("--shards", args.get(i + 1))?);
                i += 1;
            }
            "--relays" => {
                opts.spec.relays = parse_value("--relays", args.get(i + 1))?;
                i += 1;
            }
            "--store" => {
                let value: String = parse_value("--store", args.get(i + 1))?;
                store_kind = Some(match value.as_str() {
                    "mem" => StoreKind::Mem,
                    "paged" => StoreKind::Paged,
                    other => {
                        return Err(format!(
                            "invalid value for --store: {other:?} (expected mem or paged)"
                        ))
                    }
                });
                i += 1;
            }
            "--page-size" => {
                page_size = Some(parse_value("--page-size", args.get(i + 1))?);
                i += 1;
            }
            "--spill-dir" => {
                spill_dir = Some(parse_value("--spill-dir", args.get(i + 1))?);
                i += 1;
            }
            "--padding" => {
                let value: String = parse_value("--padding", args.get(i + 1))?;
                padding = Some(PaddingPolicy::parse(&value).ok_or_else(|| {
                    format!(
                        "invalid value for --padding: {value:?} (expected none, buckets or constant)"
                    )
                })?);
                i += 1;
            }
            "--batch-window" => {
                batch_window = Some(parse_value("--batch-window", args.get(i + 1))?);
                i += 1;
            }
            "--scenario" => {
                scenario = Some(parse_value("--scenario", args.get(i + 1))?);
                i += 1;
            }
            "--faults" => {
                faults_spec = Some(parse_value("--faults", args.get(i + 1))?);
                i += 1;
            }
            "--json" => opts.json = true,
            "--stream" => opts.stream = true,
            "--help" | "-h" => return Ok(None),
            unknown => return Err(format!("unknown argument {unknown:?}")),
        }
        i += 1;
    }
    // The shard count defaults to one shard per explicit worker (auto jobs
    // keep the default single shard); an explicit `--shards` may exceed
    // the worker count (more shards than threads is fine — they queue) but
    // never the other way around (validate checks).
    opts.spec.shards = shards.unwrap_or(opts.spec.jobs.unwrap_or(1));
    if let Some(threads) = analyzer_threads {
        if !opts.spec.pipeline {
            return Err("--analyzer-threads requires --pipeline".into());
        }
        opts.spec.analyzer_threads = threads;
    }
    // Block-store selection: page geometry only makes sense for the paged
    // backend.
    let kind = store_kind.unwrap_or(StoreKind::Mem);
    if kind == StoreKind::Mem && (page_size.is_some() || spill_dir.is_some()) {
        return Err("--page-size/--spill-dir require --store paged".into());
    }
    if let Some(bytes) = page_size {
        if bytes == 0 {
            return Err("--page-size must be positive".into());
        }
    }
    opts.spec.framing = FramingPolicy::new(padding.unwrap_or_default(), batch_window.unwrap_or(0));
    // Fault injection: the scenario preset (if any) is parsed first, then
    // the `--faults` spec overlays it key by key — preset knobs the spec
    // doesn't name survive, named keys override. Only a self-contradictory
    // spec (one key, two values) is an error.
    if let Some(name) = &scenario {
        opts.spec.faults = FaultSpec::scenario(name).ok_or_else(|| {
            format!(
                "unknown scenario {name:?} (expected one of: {})",
                SCENARIO_NAMES.join(", ")
            )
        })?;
        opts.spec.scenario = Some(name.clone());
    }
    if let Some(spec) = &faults_spec {
        opts.spec.faults = FaultSpec::parse_onto(opts.spec.faults.clone(), spec)
            .map_err(|e| format!("invalid --faults spec: {e}"))?;
    }
    opts.spec.store = match kind {
        StoreKind::Mem => StoreConfig::mem(),
        StoreKind::Paged => {
            let mut store = StoreConfig::paged();
            if let Some(bytes) = page_size {
                store = store.page_size(bytes);
            }
            if let Some(dir) = spill_dir {
                store = store.spill_dir(dir);
            }
            store
        }
    };
    // The range rules live in one place for the CLI and library callers
    // alike.
    opts.spec.validate()?;
    Ok(Some(opts))
}

/// Create (or check) the `--spill-dir` root before the run starts, so that
/// a path that is a regular file or cannot be created is a usage error
/// here and not a panic at the first eviction.
fn prepare_spill_dir(store: &StoreConfig) -> Result<(), String> {
    let Some(dir) = &store.spill_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)
        .map_err(|err| format!("--spill-dir {dir:?} is not a usable directory: {err}"))
}

fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            eprintln!("{USAGE}");
            return;
        }
        Err(message) => usage_error(&message),
    };
    let spec = &opts.spec;
    if let Err(message) = prepare_spill_dir(&spec.store) {
        usage_error(&message);
    }

    eprintln!(
        "running study: seed {}, scale 1:{} (≈{} users, {} simulated days, {} shard(s) on {} thread(s){})...",
        spec.config.seed,
        spec.config.scale,
        spec.config.target_users(),
        spec.config.total_days(),
        spec.shards,
        spec.effective_jobs(),
        if spec.pipeline {
            format!(", pipelined × {} analyzer thread(s)", spec.analyzer_threads)
        } else {
            String::new()
        },
    );
    let (report, summary) = StudyReport::run(spec);
    if opts.stream {
        eprint!("{}", summary.render());
    }
    println!("{}", report.render());
    if opts.json {
        println!("{}", report.to_json().to_string_pretty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert_eq!(opts, Options::default());
        assert_eq!(opts.spec.config.seed, 42);
        assert_eq!(opts.spec.config.scale, 2_000);
    }

    #[test]
    fn jobs_and_shards_parse() {
        let opts = parse_args(&args(&["--jobs", "4"])).unwrap().unwrap();
        assert_eq!(opts.spec.jobs, Some(4));
        assert_eq!(opts.spec.shards, 4, "shards default to one per job");
        let opts = parse_args(&args(&["--jobs", "2", "--shards", "8"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.jobs, Some(2));
        assert_eq!(opts.spec.shards, 8);
    }

    #[test]
    fn auto_jobs_parse() {
        // The default is auto: one shard, so the run stays serial.
        let opts = parse_args(&[]).unwrap().unwrap();
        assert_eq!(opts.spec.jobs, None);
        assert_eq!(opts.spec.shards, 1);
        assert_eq!(opts.spec.effective_jobs(), 1);
        // An explicit `--jobs auto` with `--shards` resolves to the
        // machine's parallelism clamped to the shard count.
        let opts = parse_args(&args(&["--jobs", "auto", "--shards", "8"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.jobs, None);
        assert_eq!(opts.spec.shards, 8);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(opts.spec.effective_jobs(), cores.clamp(1, 8));
        assert!(parse_args(&args(&["--jobs", "many"])).is_err());
    }

    #[test]
    fn pipeline_flags_parse() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert!(!opts.spec.pipeline);
        let opts = parse_args(&args(&["--pipeline"])).unwrap().unwrap();
        assert!(opts.spec.pipeline);
        assert_eq!(opts.spec.analyzer_threads, 2, "default worker count");
        let opts = parse_args(&args(&["--pipeline", "--analyzer-threads", "4"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.analyzer_threads, 4);
        // Composes with sharding, stores and scenarios.
        assert!(parse_args(&args(&[
            "--pipeline",
            "--analyzer-threads",
            "2",
            "--jobs",
            "2",
            "--store",
            "paged",
            "--scenario",
            "label-storm",
        ]))
        .is_ok());
        // Errors: worker count without the pipeline, zero/over-limit
        // counts.
        let err = parse_args(&args(&["--analyzer-threads", "2"])).unwrap_err();
        assert!(err.contains("requires --pipeline"), "{err}");
        assert!(parse_args(&args(&["--pipeline", "--analyzer-threads", "0"])).is_err());
        assert!(parse_args(&args(&["--pipeline", "--analyzer-threads", "9"])).is_err());
        assert!(parse_args(&args(&["--pipeline", "--analyzer-threads"])).is_err());
    }

    #[test]
    fn zero_jobs_is_an_error() {
        let err = parse_args(&args(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn jobs_exceeding_shards_is_an_error() {
        let err = parse_args(&args(&["--jobs", "4", "--shards", "2"])).unwrap_err();
        assert!(err.contains("exceeds the shard count"), "{err}");
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        assert!(parse_args(&args(&["--frobnicate"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--seed", "abc"])).is_err());
        assert!(parse_args(&args(&["--scale", "0"])).is_err());
    }

    #[test]
    fn grid_flags_are_unknown_arguments() {
        // A sweep is a shell loop over --seed / --scale; the list flags
        // exit 2 like any other unknown argument. So do the AppView flags
        // of older command lines: the study runs no AppView.
        for flag in [
            ["--seeds", "1,2"],
            ["--scales", "40000"],
            ["--appview-shards", "4"],
            ["--writeback", "off"],
        ] {
            let err = parse_args(&args(&flag)).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
            assert!(err.contains(flag[0]), "{err}");
        }
    }

    #[test]
    fn store_flags_parse() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert_eq!(opts.spec.store.kind, StoreKind::Mem);
        let opts = parse_args(&args(&["--store", "paged"])).unwrap().unwrap();
        assert_eq!(opts.spec.store.kind, StoreKind::Paged);
        let opts = parse_args(&args(&[
            "--store",
            "paged",
            "--page-size",
            "4096",
            "--spill-dir",
            "/tmp/spill",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(opts.spec.store.page_size, 4096);
        assert_eq!(opts.spec.store.spill_dir.as_deref(), Some("/tmp/spill"));
        // The store composes with sharding.
        assert!(parse_args(&args(&["--store", "paged", "--jobs", "2"])).is_ok());
    }

    #[test]
    fn spill_dir_must_be_a_usable_directory() {
        let dir = std::env::temp_dir().join(format!("repro-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A regular file where the spill root should be: refused up front,
        // naming the flag.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let store = StoreConfig::paged().spill_dir(file.to_string_lossy());
        let err = prepare_spill_dir(&store).unwrap_err();
        assert!(err.contains("--spill-dir"), "{err}");
        // Nor can a root be created underneath it.
        let nested = StoreConfig::paged().spill_dir(file.join("below").to_string_lossy());
        assert!(prepare_spill_dir(&nested).is_err());
        // A missing directory is created; an existing one is accepted; no
        // spill dir at all is nothing to check.
        let fresh = dir.join("fresh");
        let store = StoreConfig::paged().spill_dir(fresh.to_string_lossy());
        assert_eq!(prepare_spill_dir(&store), Ok(()));
        assert!(fresh.is_dir());
        assert_eq!(prepare_spill_dir(&store), Ok(()));
        assert_eq!(prepare_spill_dir(&StoreConfig::paged()), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_store_flags_are_errors() {
        assert!(parse_args(&args(&["--store", "redis"])).is_err());
        assert!(parse_args(&args(&["--store"])).is_err());
        assert!(parse_args(&args(&["--page-size", "4096"])).is_err());
        assert!(parse_args(&args(&["--spill-dir", "/tmp/x"])).is_err());
        assert!(parse_args(&args(&["--store", "paged", "--page-size", "0"])).is_err());
        assert!(parse_args(&args(&["--store", "mem", "--page-size", "4096"])).is_err());
    }

    #[test]
    fn framing_flags_parse() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert_eq!(opts.spec.framing, FramingPolicy::default());
        let opts = parse_args(&args(&["--padding", "buckets", "--batch-window", "60"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.framing.padding, PaddingPolicy::Buckets);
        assert_eq!(opts.spec.framing.batch.window_secs, 60);
        let opts = parse_args(&args(&["--padding", "constant"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.framing.padding, PaddingPolicy::Constant);
        assert_eq!(opts.spec.framing.batch.window_secs, 0);
        // Composes with sharding and stores.
        assert!(parse_args(&args(&[
            "--padding",
            "buckets",
            "--batch-window",
            "2",
            "--jobs",
            "2",
            "--store",
            "paged",
        ]))
        .is_ok());
        // Errors: bad/missing values.
        assert!(parse_args(&args(&["--padding", "bubblewrap"])).is_err());
        assert!(parse_args(&args(&["--padding"])).is_err());
        assert!(parse_args(&args(&["--batch-window", "x"])).is_err());
        assert!(parse_args(&args(&["--batch-window"])).is_err());
    }

    #[test]
    fn scenario_and_faults_flags_parse() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert!(opts.spec.faults.is_quiet());
        assert_eq!(opts.spec.scenario, None);
        let opts = parse_args(&args(&["--scenario", "pds-migration"]))
            .unwrap()
            .unwrap();
        assert!(!opts.spec.faults.is_quiet());
        assert_eq!(opts.spec.scenario.as_deref(), Some("pds-migration"));
        let opts = parse_args(&args(&["--faults", "flaky=0.2,gap=0.05"]))
            .unwrap()
            .unwrap();
        assert!(!opts.spec.faults.is_quiet());
        assert_eq!(opts.spec.scenario, None);
        // Composes with sharding and stores.
        assert!(parse_args(&args(&[
            "--scenario",
            "label-storm",
            "--jobs",
            "2",
            "--store",
            "paged",
        ]))
        .is_ok());
        // Errors: unknown scenario (must list the valid names), bad spec,
        // missing values.
        let err = parse_args(&args(&["--scenario", "earthquake"])).unwrap_err();
        assert!(err.contains("pds-migration"), "{err}");
        assert!(parse_args(&args(&["--scenario"])).is_err());
        assert!(parse_args(&args(&["--faults", "flaky=2.0"])).is_err());
        assert!(parse_args(&args(&["--faults", "frobnicate=1"])).is_err());
        assert!(parse_args(&args(&["--faults"])).is_err());
    }

    #[test]
    fn faults_compose_additively_onto_scenario_presets() {
        // A spec on top of a scenario adds fault axes the preset leaves
        // quiet while the preset's own knobs survive.
        let opts = parse_args(&args(&["--scenario", "dns-flap", "--faults", "flaky=0.1"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.scenario.as_deref(), Some("dns-flap"));
        assert_eq!(opts.spec.faults.dns_flap, 0.3, "preset knob survives");
        assert_eq!(opts.spec.faults.flaky_fetch, 0.1, "spec knob added");
        // A spec key the preset also sets overrides the preset value.
        let opts = parse_args(&args(&["--scenario", "dns-flap", "--faults", "dns=0.9"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.faults.dns_flap, 0.9, "spec overrides preset");
        // Flag order doesn't matter: the preset is always the base layer.
        let opts = parse_args(&args(&["--faults", "dns=0.9", "--scenario", "dns-flap"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.faults.dns_flap, 0.9);
        // A bare `--faults` without a scenario still works as before.
        let opts = parse_args(&args(&["--faults", "dns=0.9"]))
            .unwrap()
            .unwrap();
        assert_eq!(opts.spec.faults.dns_flap, 0.9);
        assert_eq!(opts.spec.scenario, None);
        // Contradictory keys inside one spec are an error (exit 2 in main);
        // repeating the same key=value is harmless.
        let err = parse_args(&args(&[
            "--scenario",
            "dns-flap",
            "--faults",
            "dns=0.9,dns=0.1",
        ]))
        .unwrap_err();
        assert!(err.contains("contradictory"), "{err}");
        assert!(parse_args(&args(&["--faults", "dns=0.9,dns=0.9"])).is_ok());
    }

    #[test]
    fn relays_flag_parses() {
        let opts = parse_args(&[]).unwrap().unwrap();
        assert_eq!(opts.spec.relays, 1, "classic single relay by default");
        let opts = parse_args(&args(&["--relays", "3"])).unwrap().unwrap();
        assert_eq!(opts.spec.relays, 3);
        // Composes with sharding, stores and scenarios.
        assert!(parse_args(&args(&[
            "--relays",
            "2",
            "--jobs",
            "4",
            "--store",
            "paged",
            "--scenario",
            "dns-flap",
        ]))
        .is_ok());
        // Errors: zero relays, bad/missing values.
        assert!(parse_args(&args(&["--relays", "0"])).is_err());
        assert!(parse_args(&args(&["--relays", "two"])).is_err());
        assert!(parse_args(&args(&["--relays"])).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse_args(&args(&["--help"])).unwrap(), None);
        assert_eq!(parse_args(&args(&["-h"])).unwrap(), None);
    }
}
