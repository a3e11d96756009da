//! A dependency-free micro-benchmark harness for the workspace's
//! `harness = false` bench targets.
//!
//! Each bench target is a plain binary: it builds groups with
//! [`BenchGroup`], times closures with `std::time::Instant`, and prints
//! `name ... median time/iter` lines. `cargo bench` invokes the binary with
//! `--bench`, which selects full measurement; any other invocation — in
//! particular `cargo test`, which runs each `test = true` bench target with
//! no arguments — is a smoke run where every benchmark body executes exactly
//! once, so regressions in the bench code (and its assertions) are caught
//! without paying for full measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Whether this is a smoke run: anything but `cargo bench` (which passes
/// `--bench`).
pub fn smoke_mode() -> bool {
    !std::env::args().any(|arg| arg == "--bench")
}

/// A named group of benchmarks with a shared sample count.
pub struct BenchGroup {
    name: String,
    samples: u32,
    smoke: bool,
}

impl BenchGroup {
    /// A group with the default of 10 samples per benchmark.
    pub fn new(name: &str) -> BenchGroup {
        BenchGroup {
            name: name.to_string(),
            samples: 10,
            smoke: smoke_mode(),
        }
    }

    /// Override the number of measured samples.
    pub fn sample_size(&mut self, samples: u32) -> &mut BenchGroup {
        self.samples = samples.max(1);
        self
    }

    /// Measure one closure: runs it `samples` times (once in smoke mode) and
    /// prints the median wall-clock duration. The closure's return value is
    /// passed through `std::hint::black_box` so the work is not optimised
    /// away.
    pub fn bench_function<F, R>(&mut self, name: &str, f: F) -> &mut BenchGroup
    where
        F: FnMut() -> R,
    {
        self.measure(name, f);
        self
    }

    /// Like [`BenchGroup::bench_function`], but also returns the median
    /// duration so callers can compute derived figures (speedups,
    /// per-iteration rates, machine-readable exports).
    pub fn measure<F, R>(&mut self, name: &str, mut f: F) -> Duration
    where
        F: FnMut() -> R,
    {
        let runs = if self.smoke { 1 } else { self.samples };
        let mut timings: Vec<Duration> = Vec::with_capacity(runs as usize);
        for _ in 0..runs {
            let start = Instant::now();
            std::hint::black_box(f());
            timings.push(start.elapsed());
        }
        timings.sort();
        let median = timings[timings.len() / 2];
        println!(
            "{}/{name}{}: median {median:?} over {runs} run(s)",
            self.name,
            if self.smoke { " [smoke]" } else { "" },
        );
        median
    }

    /// No-op, for call-site compatibility with criterion-style code.
    pub fn finish(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_and_report() {
        let mut group = BenchGroup::new("unit");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("counts_calls", || {
            calls += 1;
            calls
        });
        assert!(calls >= 1);
    }
}
