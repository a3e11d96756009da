//! `run-one`: one phase of one workload in a fresh process. Allocator state
//! leaks between studies run in one process (a study after three earlier
//! worlds measured 7.3 s against 5.1–5.9 s fresh), so the harness never
//! measures two things in one process. The result is one JSON object on the
//! last line of standard output.

use crate::layers::{self, Readings};
use crate::surface::{self, Json, Spec};
use crate::trace::Stopwatch;
use crate::workloads::Workload;
use crate::{harness, paths, proc};
use std::path::{Path, PathBuf};

/// Set-ups per child; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Study,
    Traced,
    Stream,
    Tape,
}

impl Phase {
    pub fn parse(name: &str) -> Option<Phase> {
        match name {
            "study" => Some(Phase::Study),
            "traced" => Some(Phase::Traced),
            "stream" => Some(Phase::Stream),
            "tape" => Some(Phase::Tape),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Study => "study",
            Phase::Traced => "traced",
            Phase::Stream => "stream",
            Phase::Tape => "tape",
        }
    }
}

/// This run's spill root: a directory of its own under the results
/// directory (the driver allows no writes outside the checkout), removed
/// when the run ends, also when it ends by a panic.
struct SpillRoot(PathBuf);

impl SpillRoot {
    fn create() -> Result<SpillRoot, String> {
        let dir = paths::results_dir()
            .join("spill")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(SpillRoot(dir))
    }
}

impl Drop for SpillRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_facts(out: &mut Json, report: &str) {
    out.set(
        "report_fnv",
        format!("{:016x}", fnv1a_64(report.as_bytes())),
    );
    out.set("report_bytes", report.len());
}

fn readings_json(readings: &Readings) -> Json {
    let mut out = Json::object();
    for (name, value) in &readings.0 {
        out.set(name, *value);
    }
    out
}

/// Run one phase and return its result object.
pub fn run(workload: &Workload, phase: Phase, seed: u64, quick: bool) -> Result<Json, String> {
    let load_before = proc::loadavg();
    let spill = SpillRoot::create()?;
    let knobs = workload.knobs(quick);
    let mut out = Json::object()
        .with("phase", phase.name())
        .with("workload", workload.name)
        .with("seed", seed)
        .with("quick", quick);
    let spec = || surface::build_spec(seed, &knobs, &spill.0);
    match phase {
        Phase::Study => study(&mut out, seed, &knobs, &spill.0)?,
        Phase::Traced => {
            let traced = layers::traced_phase(&spec()?);
            report_facts(&mut out, &traced.report);
            let dump = paths::results_dir().join(format!("trace-{}.jsonl", workload.name));
            std::fs::write(&dump, traced.trace.to_jsonl(workload.name))
                .map_err(|e| format!("write {}: {e}", dump.display()))?;
            out.set("span_dump", dump.to_string_lossy().into_owned());
            let mut own = Json::object();
            for (name, ns) in traced.trace.self_by_name() {
                own.set(name, ns as f64 / 1e9);
            }
            out.set("self_s", own);
            out.set("readings", readings_json(&traced.readings));
        }
        Phase::Stream => {
            out.set("readings", readings_json(&layers::stream_phase(&spec()?)));
        }
        Phase::Tape => {
            out.set(
                "readings",
                readings_json(&layers::tape_phase(&spec()?, &spill.0)),
            );
        }
    }
    drop(spill);
    let load_after = proc::loadavg();
    let nproc = proc::nproc();
    out.set("nproc", nproc);
    out.set("profile", proc::build_profile());
    out.set("load_before", load_before);
    out.set("load_after", load_after);
    out.set("noisy", load_before.max(load_after) > nproc as f64);
    out.set("peak_rss_mb", proc::peak_rss_mb());
    Ok(out)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// The untraced study: set-up several times, then the program under test
/// once, with the process's CPU time read on both sides of it.
fn study(out: &mut Json, seed: u64, knobs: &surface::Knobs, spill: &Path) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut spec: Option<Spec> = None;
    for _ in 0..SETUP_REPEATS {
        let mut setup = Stopwatch::default();
        spec = Some(setup.time(|| -> Result<Spec, String> {
            std::fs::create_dir_all(spill).map_err(|e| e.to_string())?;
            let spec = surface::build_spec(seed, knobs, spill)?;
            surface::setup_probe(&spec);
            Ok(spec)
        })?);
        setups.push(setup.secs());
    }
    let spec = spec.expect("at least one set-up ran");

    let cpu_before = proc::stat();
    let mut wall = Stopwatch::default();
    let outcome = wall.time(|| surface::run_study(&spec));
    let cpu = proc::stat().since(&cpu_before);

    let c = &outcome.counters;
    let attempted = c.get("repo_full_fetches")
        + c.get("repo_delta_fetches")
        + c.get("repo_snapshot_skips")
        + c.get("identity_lookups");
    // A snapshot skip is a repository whose account the workload deleted:
    // the collector tried and, correctly, got nothing. It is a property of
    // the seed's input, so it counts as attempted and not as failed. With
    // quiet faults every counter below is zero unless a layer is broken.
    let failed = c.get("fetch_retry_giveups")
        + c.get("dns_retry_giveups")
        + c.get("store_corrupt_reads")
        + c.get("relay_duplicates_dropped");
    let resident = c.get("resident_block_bytes");
    let spilled = c.get("spilled_block_bytes");

    out.set("setup_s", harness::median(&setups));
    out.set("study_wall_s", wall.secs());
    out.set("study_cpu_s", cpu.cpu_s());
    out.set("resident_block_mb", mb(resident));
    out.set("stored_block_mb", mb(resident + spilled));
    out.set("spilled_block_mb", mb(spilled));
    out.set("snapshot_fetched_mb", mb(c.get("snapshot_bytes_fetched")));
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("user_s", cpu.user_s);
    out.set("sys_s", cpu.sys_s);
    out.set("minor_faults", cpu.minor_faults);
    report_facts(out, &outcome.report);
    out.set("table1_events", outcome.table1_events);
    out.set("expected_days", surface::total_days(&spec));
    out.set("planned_users", surface::planned_users(&spec));
    let mut counters = Json::object();
    for (name, value) in &c.0 {
        counters.set(name, *value);
    }
    out.set("counters", counters);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn phases_round_trip_through_their_names() {
        for phase in [Phase::Study, Phase::Traced, Phase::Stream, Phase::Tape] {
            assert_eq!(Phase::parse(phase.name()), Some(phase));
        }
        assert_eq!(Phase::parse("warmup"), None);
    }
}
