//! The run protocol. A study is a batch job, so the load is a closed loop
//! with one client: the harness starts a child, waits for its complete
//! result, and starts the next. The harness itself is single-threaded; the
//! only other threads are the engine's, and no workload asks for more than
//! two.

use crate::child::Phase;
use crate::contract::{Contract, MetricDef};
use crate::surface::Json;
use crate::workloads::{self, Workload, WORKLOADS};
use crate::{paths, proc};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One verdict of a correctness check, computed from the run itself.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("ok", self.ok)
            .with("detail", self.detail.as_str())
    }
}

fn all_ok(checks: &[Check]) -> bool {
    checks.iter().all(|c| c.ok)
}

/// Start `run-one` for one phase and wait for its result. The child is this
/// same executable, so its code is already in the page cache.
pub fn spawn_child(
    workload: &Workload,
    phase: Phase,
    seed: u64,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run-one", "--workload", workload.name])
        .args(["--phase", phase.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn run-one: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run-one {} {} ended with {}",
            workload.name,
            phase.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run-one printed no result")?;
    Json::parse(last).map_err(|e| format!("run-one result does not parse: {e}"))
}

/// How many untraced runs a workload gets.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start runs until this many seconds have passed (the driver's mode).
    Seconds(u64),
    /// Discarded warm-ups, then timed runs (the ledger's mode).
    Runs { warmups: usize, timed: usize },
}

/// The untraced runs of one workload, warm-ups dropped. A failed child is
/// an `Err` entry: the run counts, its operations all count as failed.
pub fn untraced_runs(
    workload: &Workload,
    seed: u64,
    quick: bool,
    budget: Budget,
) -> Vec<Result<Json, String>> {
    let mut runs = Vec::new();
    match budget {
        Budget::Seconds(seconds) => {
            let started = Instant::now();
            loop {
                runs.push(spawn_child(workload, Phase::Study, seed, quick));
                if started.elapsed().as_secs_f64() >= seconds as f64 {
                    break;
                }
            }
        }
        Budget::Runs { warmups, timed } => {
            for index in 0..warmups + timed {
                let run = spawn_child(workload, Phase::Study, seed, quick);
                if index >= warmups {
                    runs.push(run);
                }
            }
        }
    }
    runs
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn metric_values(runs: &[&Json], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|run| run[name].as_f64()).collect()
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(min, max), v| {
            (min.min(*v), max.max(*v))
        })
}

fn summary_json(values: &[f64], unit: &str) -> Json {
    let (min, max) = min_max(values);
    Json::object()
        .with("median", median(values))
        .with("min", min)
        .with("max", max)
        .with("n", values.len())
        .with("unit", unit)
        .with("values", values.to_vec())
}

/// Checks on the untraced runs of one workload.
fn study_checks(runs: &[Result<Json, String>]) -> Vec<Check> {
    let mut checks = Vec::new();
    let errors: Vec<&String> = runs.iter().filter_map(|r| r.as_ref().err()).collect();
    checks.push(Check::new(
        "runs_end_clean",
        errors.is_empty(),
        format!("{} of {} runs failed {errors:?}", errors.len(), runs.len()),
    ));
    let good: Vec<&Json> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    let Some(first) = good.first() else {
        return checks;
    };
    let same = |key: &str| good.iter().all(|run| run[key] == first[key]);
    checks.push(Check::new(
        "report_repeats",
        same("report_fnv") && same("report_bytes"),
        format!(
            "fnv {} over {} runs",
            first["report_fnv"].as_str().unwrap_or("?"),
            good.len()
        ),
    ));
    checks.push(Check::new(
        "counts_repeat",
        [
            "counters",
            "resident_block_mb",
            "stored_block_mb",
            "snapshot_fetched_mb",
            "attempted",
        ]
        .iter()
        .all(|key| same(key)),
        "every counter and byte count is identical across runs".into(),
    ));
    let events = first["counters"]["firehose_events"].as_u64();
    checks.push(Check::new(
        "table1_counts_the_stream",
        events.is_some() && events == first["table1_events"].as_u64(),
        format!(
            "table 1 {:?} = streamed {events:?}",
            first["table1_events"].as_u64()
        ),
    ));
    checks.push(Check::new(
        "window_complete",
        first["counters"]["days"].as_u64() == first["expected_days"].as_u64(),
        format!("{:?} days streamed", first["counters"]["days"].as_u64()),
    ));
    let failed: u64 = good.iter().filter_map(|run| run["failed"].as_u64()).sum();
    checks.push(Check::new(
        "no_operation_failed",
        failed == 0,
        format!("{failed} failed"),
    ));
    checks
}

fn fnv_of(run: &Json) -> &str {
    run["report_fnv"].as_str().unwrap_or("")
}

fn twin_check(workload: &Workload, own: &Json, twin: &Json) -> Check {
    Check::new(
        "twin_report_identical",
        !fnv_of(own).is_empty() && fnv_of(own) == fnv_of(twin),
        format!(
            "{} {} = {} {}",
            workload.name,
            fnv_of(own),
            workload.twin,
            fnv_of(twin)
        ),
    )
}

// ---------------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------------

pub struct TracedPass {
    /// Every per-layer metric of the contract, in contract order.
    pub layers: Vec<(String, f64)>,
    pub checks: Vec<Check>,
    pub phases: Json,
}

/// Run the three traced phases of one workload, each in its own process,
/// and assemble the per-layer metrics. `study` is an untraced run of the
/// same workload and seed and `study_wall` the median `study_wall_s` of all
/// of them: the traced figures are read against these.
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    quick: bool,
    study: &Json,
    study_wall: f64,
    contract: &Contract,
) -> Result<TracedPass, String> {
    let traced = spawn_child(workload, Phase::Traced, seed, quick)?;
    let stream = spawn_child(workload, Phase::Stream, seed, quick)?;
    let tape = spawn_child(workload, Phase::Tape, seed, quick)?;
    let reading = |name: &str| -> Option<f64> {
        [&traced, &stream, &tape]
            .iter()
            .find_map(|phase| phase["readings"][name].as_f64())
    };
    let need = |name: &str| reading(name).ok_or_else(|| format!("no reading of {name}"));

    let world = need("workload.world.busy_s")?;
    let stream_s = need("core.datasets.stream_s")?;
    let analysis = need("core.analysis.total_busy_s")?;
    let report = need("core.report.finish_s")? + need("core.report.render_s")?;
    let traced_wall = need("traced_wall_s")?;
    let collect = need("traced_collect_s")?;
    let max_shard = need("core.shard.max_shard_s")?;
    let derived = |name: &str| -> Option<f64> {
        Some(match name {
            "core.datasets.collector_self_s" => stream_s - world,
            "core.shard.duplication" => need("core.shard.sum_shard_s").ok()? / stream_s,
            "core.shard.merge_s" => collect - max_shard,
            "core.pipeline.batches" => study["counters"]["pipeline_batches"].as_f64()?,
            "core.store.spilled_block_mb" => study["spilled_block_mb"].as_f64()?,
            "bench.proc.user_s" => study["user_s"].as_f64()?,
            "bench.proc.sys_s" => study["sys_s"].as_f64()?,
            "bench.proc.minor_faults" => study["minor_faults"].as_f64()?,
            "bench.replay.coverage" => {
                (need("pds.commit.busy_s").ok()?
                    + need("relay.crawl.busy_s").ok()?
                    + need("appview.index.busy_s").ok()?)
                    / world
            }
            "bench.trace.overhead_pct" => (traced_wall - study_wall) / study_wall * 100.0,
            "bench.trace.attributed_share" => (stream_s + analysis + report) / traced_wall,
            _ => return None,
        })
    };
    let layers = contract
        .per_layer
        .iter()
        .map(|metric| {
            reading(&metric.name)
                .or_else(|| derived(&metric.name))
                .map(|value| (metric.name.clone(), value))
                .ok_or_else(|| format!("nothing measures {}", metric.name))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let count = |name: &str| reading(name).unwrap_or(f64::NAN);
    let zero = |check: &str, name: &str| {
        Check::new(
            check,
            count(name) == 0.0,
            format!("{name} = {}", count(name)),
        )
    };
    let events = study["counters"]["firehose_events"]
        .as_f64()
        .unwrap_or(f64::NAN);
    let checks = vec![
        Check::new(
            "traced_report_identical",
            !fnv_of(study).is_empty() && fnv_of(study) == fnv_of(&traced),
            format!("untraced {} = traced {}", fnv_of(study), fnv_of(&traced)),
        ),
        Check::new(
            "spans_nest",
            count("trace_nests") == 1.0,
            format!(
                "{} spans in {}",
                count("trace_spans"),
                traced["span_dump"].as_str().unwrap_or("?")
            ),
        ),
        Check::new(
            "analyzers_within_stream",
            analysis <= collect,
            format!("analyzers {analysis} s of {collect} s"),
        ),
        Check::new(
            "slowest_shard_within_wall",
            max_shard <= traced_wall,
            format!("slowest shard {max_shard} s of {traced_wall} s"),
        ),
        Check::new(
            "event_counts_repeat",
            count("traced_firehose_events") == events
                && count("core.datasets.firehose_events") == events,
            format!(
                "untraced {events}, traced {}, null-sink stream {}",
                count("traced_firehose_events"),
                count("core.datasets.firehose_events")
            ),
        ),
        zero("every_commit_replays", "pds.commit.failed"),
        Check::new(
            "tape_writes_all_indexed",
            count("pds.commit.writes") == count("appview.index.records")
                && count("pds.commit.writes") == count("workload.world.records"),
            format!(
                "{} written, {} indexed",
                count("pds.commit.writes"),
                count("appview.index.records")
            ),
        ),
        Check::new(
            "relay_sees_every_commit",
            count("relay.crawl.events") >= count("pds.commit.count")
                && count("relay_subscribed_events") == count("relay.crawl.events"),
            format!(
                "{} crawled, {} commits",
                count("relay.crawl.events"),
                count("pds.commit.count")
            ),
        ),
        Check::new(
            "federation_equals_single_relay",
            count("relay.federation.forwarded") == count("relay.crawl.events"),
            format!(
                "{} forwarded, {} crawled",
                count("relay.federation.forwarded"),
                count("relay.crawl.events")
            ),
        ),
        zero(
            "federation_drops_nothing",
            "relay.federation.duplicates_dropped",
        ),
        zero("records_decode", "cbor_decode_failed"),
        zero("stores_return_every_block", "blockstore_reads_missing"),
        zero(
            "paged_reads_verify",
            "atproto.blockstore.paged.corrupt_reads",
        ),
        zero("deltas_apply", "repo_deltas_failed"),
    ];
    Ok(TracedPass {
        layers,
        checks,
        phases: Json::object()
            .with("traced", traced)
            .with("stream", stream)
            .with("tape", tape),
    })
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

fn print_checks(checks: &[Check]) {
    for check in checks {
        let verdict = if check.ok { "ok  " } else { "FAIL" };
        println!("  {verdict} {:<32} {}", check.name, check.detail);
    }
}

fn print_layers(layers: &[(String, f64)], contract: &Contract) {
    for (name, value) in layers {
        let unit = contract.per_layer(name).map_or("", |m| m.unit.as_str());
        println!("  {name:<46} {value:>16.6} {unit}");
    }
}

fn print_end_to_end(good: &[&Json], contract: &Contract) {
    for metric in &contract.end_to_end {
        let values = metric_values(good, &metric.name);
        let (min, max) = min_max(&values);
        println!(
            "  {:<24} median {:>12.6}  min {:>12.6}  max {:>12.6}  n {}  {}",
            metric.name,
            median(&values),
            min,
            max,
            values.len(),
            metric.unit
        );
    }
}

pub fn one_line(json: &Json) -> String {
    // The pretty printer puts every line break outside string literals
    // (inside them it writes `\n`), so joining the trimmed lines is safe.
    json.to_string_pretty()
        .lines()
        .map(str::trim_start)
        .collect()
}

fn metric_entry(value: f64, metric: &MetricDef) -> Json {
    Json::object()
        .with("value", value)
        .with("unit", metric.unit.as_str())
}

fn layers_json(layers: &[(String, f64)], contract: &Contract) -> Json {
    let mut out = Json::object();
    for (name, value) in layers {
        let metric = contract
            .per_layer(name)
            .expect("layers come from the contract");
        out.set(name, metric_entry(*value, metric));
    }
    out
}

fn runs_json(runs: &[&Json]) -> Json {
    Json::Arr(runs.iter().map(|run| (*run).clone()).collect())
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(checks.iter().map(Check::to_json).collect())
}

fn noisy_runs(runs: &[&Json]) -> usize {
    runs.iter()
        .filter(|run| run["noisy"].as_bool() == Some(true))
        .count()
}

// ---------------------------------------------------------------------------
// `bench`: one workload, the driver's contract
// ---------------------------------------------------------------------------

/// One workload as the driver runs it. Prints every metric by name with
/// its unit, then the result object as the last line. With `trace` off the
/// metrics are the end-to-end ones over `seconds` of untraced runs; with it
/// on they are the per-layer ones from one traced pass (a fixed job, so
/// `seconds` does not apply).
pub fn bench(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<bool, String> {
    let contract = Contract::load()?;
    let budget = if trace {
        Budget::Runs {
            warmups: 0,
            timed: 1,
        }
    } else {
        Budget::Seconds(seconds)
    };
    let runs = untraced_runs(workload, seed, quick, budget);
    let mut checks = study_checks(&runs);
    let good: Vec<&Json> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut metrics = Json::object();
    let mut detail = Json::object();

    println!("== {} (seed {seed}) ==", workload.name);
    if trace {
        if let Some(study) = good.first() {
            if workload.twin != workload.name {
                let twin = workloads::find(workload.twin).expect("twins are workloads");
                let twin_run = spawn_child(twin, Phase::Study, seed, quick)?;
                checks.push(twin_check(workload, study, &twin_run));
            }
            let wall = median(&metric_values(&good, "study_wall_s"));
            let pass = traced_pass(workload, seed, quick, study, wall, &contract)?;
            print_layers(&pass.layers, &contract);
            metrics = layers_json(&pass.layers, &contract);
            checks.extend(pass.checks);
            detail.set("phases", pass.phases);
        }
    } else {
        print_end_to_end(&good, &contract);
        for metric in &contract.end_to_end {
            let values = metric_values(&good, &metric.name);
            metrics.set(&metric.name, metric_entry(median(&values), metric));
        }
    }
    print_checks(&checks);

    let correct = all_ok(&checks);
    let attempted: u64 = good
        .iter()
        .filter_map(|run| run["attempted"].as_u64())
        .sum::<u64>()
        .max(1);
    let failed: u64 = if correct {
        good.iter().filter_map(|run| run["failed"].as_u64()).sum()
    } else {
        // A run that fails a check has produced nothing that can be used.
        attempted
    };
    let result = Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);

    detail.set("workload", workload.name);
    detail.set("seed", seed);
    detail.set("trace", trace);
    detail.set("nproc", proc::nproc());
    detail.set("profile", proc::build_profile());
    detail.set("noisy_runs", noisy_runs(&good));
    detail.set("runs", runs_json(&good));
    detail.set("checks", checks_json(&checks));
    detail.set("result", result.clone());
    let file = paths::results_dir().join(format!(
        "bench-{}-seed{seed}-trace{}.json",
        workload.name,
        u8::from(trace)
    ));
    std::fs::write(&file, detail.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", file.display()))?;

    println!("{}", one_line(&result));
    Ok(correct)
}

// ---------------------------------------------------------------------------
// `run`: every workload, the whole ledger
// ---------------------------------------------------------------------------

/// Every workload untraced for the end-to-end metrics, then a separate
/// traced pass each for the per-layer metrics; prints all of them, checks
/// the reports against each other, and writes the results file `compare`
/// reads. Returns whether every check passed.
pub fn run_all(seed: u64, quick: bool, timed: usize) -> Result<bool, String> {
    let contract = Contract::load()?;
    let budget = Budget::Runs {
        warmups: usize::from(!quick),
        timed,
    };
    let mut all_checks_ok = true;
    let mut entries: Vec<Json> = Vec::new();
    let mut representative: Vec<Option<Json>> = Vec::new();
    let mut check_lists: Vec<Vec<Check>> = Vec::new();

    for workload in &WORKLOADS {
        println!("== {} (seed {seed}) ==", workload.name);
        println!("  why: {}", workload.why);
        let runs = untraced_runs(workload, seed, quick, budget);
        let mut checks = study_checks(&runs);
        let good: Vec<&Json> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
        print_end_to_end(&good, &contract);

        let mut entry = Json::object();
        let mut end_to_end = Json::object();
        for metric in &contract.end_to_end {
            let values = metric_values(&good, &metric.name);
            end_to_end.set(&metric.name, summary_json(&values, &metric.unit));
        }
        entry.set("end_to_end", end_to_end);
        let attempted: u64 = good.iter().filter_map(|r| r["attempted"].as_u64()).sum();
        let failed: u64 = good.iter().filter_map(|r| r["failed"].as_u64()).sum();
        entry.set("attempted", attempted);
        entry.set("failed", failed);
        entry.set("noisy_runs", noisy_runs(&good));

        if let Some(study) = good.last() {
            let wall = median(&metric_values(&good, "study_wall_s"));
            let pass = traced_pass(workload, seed, quick, study, wall, &contract)?;
            print_layers(&pass.layers, &contract);
            entry.set("per_layer", layers_json(&pass.layers, &contract));
            checks.extend(pass.checks);
            entry.set("phases", pass.phases);
        }
        entry.set("runs", runs_json(&good));
        representative.push(good.last().map(|run| (*run).clone()));
        check_lists.push(checks);
        entries.push(entry);
    }

    // Reports of twin workloads are compared once every workload has run.
    let mut results = Json::object();
    for (index, (workload, mut entry)) in WORKLOADS.iter().zip(entries).enumerate() {
        let twin = WORKLOADS.iter().position(|w| w.name == workload.twin);
        if let (Some(own), Some(Some(twin))) =
            (&representative[index], twin.map(|t| &representative[t]))
        {
            if workload.twin != workload.name {
                check_lists[index].push(twin_check(workload, own, twin));
            }
        }
        let checks = &check_lists[index];
        println!("== checks: {} ==", workload.name);
        print_checks(checks);
        all_checks_ok &= all_ok(checks);
        entry.set("checks", checks_json(checks));
        if !all_ok(checks) {
            // A run that fails a check has produced nothing usable.
            let attempted = entry["attempted"].as_u64().unwrap_or(0).max(1);
            entry.set("attempted", attempted);
            entry.set("failed", attempted);
        }
        results.set(workload.name, entry);
    }

    let summary = Json::object()
        .with("schema", 1u64)
        .with("seed", seed)
        .with("quick", quick)
        .with("timed_runs", timed)
        .with("nproc", proc::nproc())
        .with("profile", proc::build_profile())
        .with("correct", all_checks_ok)
        .with("workloads", results)
        // This benchmark defines the baseline; it compares nothing.
        .with("claim", Json::Null);
    let file = paths::results_dir().join(format!(
        "run-seed{seed}{}.json",
        if quick { "-quick" } else { "" }
    ));
    std::fs::write(&file, summary.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("results: {}", file.display());
    println!("\"correct\": {all_checks_ok}, \"claim\": null");
    Ok(all_checks_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_result_line_is_one_line_of_json() {
        let json = Json::object()
            .with("correct", true)
            .with("metrics", Json::object().with("a", "x\ny"));
        let line = one_line(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn a_failed_child_fails_the_clean_exit_check() {
        let checks = study_checks(&[Err("boom".into())]);
        assert!(!all_ok(&checks));
        assert_eq!(checks[0].name, "runs_end_clean");
    }
}
