//! The five workloads. Each is the paper's full 2022-11-17 → 2024-05-01
//! window over `ScenarioConfig::repro_scale(seed)` with only the knobs
//! below changed. `BENCHMARK.json` carries the same names and reasons.

use crate::surface::Knobs;

/// Scale denominator of the 1× population (≈276 DIDs); the 2× workloads
/// halve it. Sized so that the driver's 114 runs fit its time limit.
const FULL_SCALE: u64 = 20_000;
/// `--quick`: the smallest population the generator makes distinct (≈138
/// DIDs at 1×), for the package's own test.
const QUICK_SCALE: u64 = 40_000;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Population as a multiple of the 1× workloads'.
    pub population: u64,
    pub shards: usize,
    pub paged_federated: bool,
    pub full_window_pipelined: bool,
    /// The workload that runs the same input through another configuration
    /// and must therefore render a byte-identical report.
    pub twin: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serial_mem",
        why: "One shard, one thread, in-memory stores, one relay: the single-threaded baseline every other workload is read against.",
        population: 1,
        shards: 1,
        paged_federated: false,
        full_window_pipelined: false,
        twin: "paged_fed",
    },
    Workload {
        name: "serial_mem_2x",
        why: "Twice the DIDs of serial_mem, otherwise identical: population is the working-set dimension, so superlinear per-DID cost shows here.",
        population: 2,
        shards: 1,
        paged_federated: false,
        full_window_pipelined: false,
        twin: "sharded_mem_2x",
    },
    Workload {
        name: "sharded_mem_2x",
        why: "The input of serial_mem_2x on 2 shards and 2 threads: isolates the sharded engine, its speed-up and its duplicated CPU work.",
        population: 2,
        shards: 2,
        paged_federated: false,
        full_window_pipelined: false,
        twin: "serial_mem_2x",
    },
    Workload {
        name: "paged_fed",
        why: "The input of serial_mem over paged stores (8 KiB pages, 2 resident), 4 AppView shards, write-back on and 2 federated relays: the layers the in-memory workloads bypass.",
        population: 1,
        shards: 1,
        paged_federated: true,
        full_window_pipelined: false,
        twin: "serial_mem",
    },
    Workload {
        name: "fullwindow_pipelined",
        why: "serial_mem collecting the firehose from day one through the analyzer pipeline: every event reaches the analyzers as owned batches and the weekly snapshot round runs about ten times as often.",
        population: 1,
        shards: 1,
        paged_federated: false,
        full_window_pipelined: true,
        // Its own traced run is the unpipelined reference.
        twin: "fullwindow_pipelined",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn knobs(&self, quick: bool) -> Knobs {
        let base = if quick { QUICK_SCALE } else { FULL_SCALE };
        Knobs {
            scale: base / self.population,
            shards: self.shards,
            paged: self.paged_federated,
            appview_shards: if self.paged_federated { 4 } else { 1 },
            relays: if self.paged_federated { 2 } else { 1 },
            full_window: self.full_window_pipelined,
            pipeline: self.full_window_pipelined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twins_name_each_other_and_share_their_input() {
        for workload in &WORKLOADS {
            let twin = find(workload.twin).expect("twin exists");
            assert_eq!(find(twin.twin).unwrap().name, workload.name);
            let (a, b) = (workload.knobs(false), twin.knobs(false));
            assert_eq!((a.scale, a.full_window), (b.scale, b.full_window));
        }
    }

    #[test]
    fn no_workload_asks_for_more_than_two_threads() {
        for workload in &WORKLOADS {
            assert!(workload.shards <= 2);
        }
    }
}
