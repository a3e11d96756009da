//! The study benchmark. See `README.md` for the workloads, the metrics and
//! what each is predicted to move. The program is `src/main.rs`; the
//! modules live in a library so that the package's own test can read the
//! files the program writes.
//!
//! ```text
//! bsky-benchmark bench --workload W --seed N --seconds S --trace 0|1   the driver's contract
//! bsky-benchmark run [--seed N] [--runs N] [--quick]                   every workload, the whole ledger
//! bsky-benchmark compare A.json B.json                                 two results files of `run`
//! bsky-benchmark run-one --workload W --phase P --seed N [--quick]     one phase in this process
//! ```

pub mod child;
pub mod compare;
pub mod contract;
pub mod harness;
pub mod layers;
pub mod paths;
pub mod proc;
pub mod surface;
pub mod trace;
pub mod workloads;
