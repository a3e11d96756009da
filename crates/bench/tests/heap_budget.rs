//! A clock-free heap budget for the write path.
//!
//! One small serial in-memory study (seed 7, scale 1:40 000, the full
//! 531-day window — the input of the `repro --scale 40000` smoke run) under a
//! counting allocator, and one assert: heap calls (`alloc` + `realloc`) per
//! record block the PDS fleet holds at the end. The figure is structural, not
//! a timing: it repeats exactly for a build, and it is what grows when a
//! `to_string()` map key, a `Value` round trip or a per-record clone creeps
//! back onto the path a record takes from the world step through the PDS, the
//! relay, the repository mirror and the analyzers.
//!
//! Measured with this file under `cargo test` (debug profile):
//!
//! | commit                           | heap calls | records | per record |
//! |----------------------------------|-----------:|--------:|-----------:|
//! | PR 18 (`168765e`)                |  2 802 440 |  20 069 |      139.6 |
//! | PR 19 (typed DAG-CBOR)           |    900 892 |  20 069 |       44.9 |
//! | PR 21 (hashed CID indexes, exact-size MST nodes) | 873 385 | 20 069 | 43.5 |
//! | no relay CAR cache, no AppView content blocks | 846 270 | 20 069 | 42.2 |
//! | MST nodes freed by their commit, one URI per curated post | 814 248 | 20 069 | 40.6 |
//! | MST nodes only in the tree, not in the repository store | 779 987 | 20 069 | 38.9 |
//! | reference counts stored only where they are not 1 | 777 532 | 20 069 | 38.7 |
//! | blocks packed in one arena per store, MST nodes grown by half | 745 462 | 20 069 | 37.1 |
//!
//! Those rows divide by the records the world's AppView indexed, 20 069 on
//! this study. The world has no AppView since, so the rows below divide by
//! the record blocks the fleet holds at the end of the run, 18 923: a
//! repository's store holds record blocks only, a deleted account's
//! repository goes with it, and a store keeps identical bytes once.
//!
//! | commit                           | heap calls | record blocks | per record |
//! |----------------------------------|-----------:|--------------:|-----------:|
//! | the last row above, re-read      |    745 462 |        18 923 |       39.4 |
//! | no AppView in the world          |    638 007 |        18 923 |       33.7 |
//! | CIDs beside their bytes, MST keys in one buffer | 619 017 | 18 923 | 32.7 |
//! | create-only writes: no per-commit `touched` map, no key clones | 600 373 | 18 923 | 31.7 |
//! | the mirror keeps a fixed-size projection per record, not its block | 567 232 | 18 923 | 30.0 |
//! | MST nodes in one arena per tree, entries prefix-compressed in one record per node | 563 596 | 18 923 | 29.8 |
//!
//! The budget ratchets: it is the last row plus one call of slack, and a
//! change that lowers the figure lowers the budget with it. The `LD_PRELOAD`
//! counter in `tools/prof/` reads the same thing from outside for a whole
//! benchmark child (`serial_mem`, `malloc` + `realloc` per record written:
//! 143.7 at PR 18, 48.5 at PR 19, 47.1 at PR 21).
//! Without the relay's CAR cache and the AppView's content blocks that
//! child reads 45.8; with MST nodes freed by their commit and one URI
//! allocation per curated post, 43.7; with MST nodes kept only in the tree,
//! 41.9; with reference counts only where they are not 1, 41.8; with one
//! block arena per store and MST nodes grown by half (the first table's last
//! row), 40.2. Since the world has no AppView the child's total is quoted
//! instead: 1 448 428 calls, and 1 407 767 with each CID kept beside its
//! bytes and the MST's keys in one buffer per tree. (A store's offset table
//! is zeroed memory: `calloc` to that counter, which leaves it out, and
//! `alloc_zeroed` to this file's, which counts it.)

use bsky_study::{collect_sharded, RunSpec, StudyAnalyzers, StudyReport};
use bsky_workload::ScenarioConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting the calls that take memory.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data and are touched before the call, so they
// neither allocate nor observe the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`, which is what the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn heap_calls() -> u64 {
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

/// The last row of the tables above, plus one call of slack.
const BUDGET_PER_RECORD: f64 = 30.8;

#[test]
fn heap_calls_per_record_written_stay_within_budget() {
    let mut config = ScenarioConfig::repro_scale(7);
    config.scale = 40_000;
    let spec = RunSpec::new(config).shards(1).jobs(1);

    let before = heap_calls();
    let (analyzers, world, summary) = collect_sharded(&spec, StudyAnalyzers::default());
    let report = StudyReport::from_analyzers(spec.config, analyzers, &world);
    let calls = heap_calls() - before;

    // A repository's store holds record blocks only, so this is every
    // record the world wrote that the fleet still holds.
    let records = world.fleet.store_stats().blocks as u64;
    assert!(records > 10_000, "a real study ran: {records} records");
    assert!(summary.merged.repo_delta_fetches > 0, "the mirror synced");
    assert!(report.table1.total > 0);
    let per_record = calls as f64 / records as f64;
    println!("{calls} heap calls / {records} records = {per_record:.1} per record");
    assert!(
        per_record <= BUDGET_PER_RECORD,
        "{per_record:.1} heap calls per record block: over the budget of \
         {BUDGET_PER_RECORD} (the last measured figure plus one). Look for a \
         new `to_string()` key, `Value` round trip or clone on the per-record \
         path"
    );
}
