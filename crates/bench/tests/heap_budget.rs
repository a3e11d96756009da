//! A clock-free heap budget for the write path.
//!
//! One small serial in-memory study (seed 7, scale 1:40 000, the full
//! 531-day window — the input of the `repro --scale 40000` smoke run) under a
//! counting allocator, and one assert: heap calls (`alloc` + `realloc`) per
//! record block the PDS fleet serves at the end. A second leg runs the same
//! study over paged stores. The figure is structural, not a timing: it
//! repeats exactly for a build, and it is what grows when a
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
//! | one record per labeled object in §6 and §7, labelers and labels in short lists | 555 901 | 18 923 | 29.4 |
//! | compaction from the first day, §7 keeps one ranking time per served post, §6 times post labels only | 554 657 | 18 923 | 29.3 |
//! | a DID is its own string: DID-keyed tables key by `Did`, nothing renders or re-parses one | 493 366 | 18 923 | 26.1 |
//! | a PDS's outbox holds firehose frames, the wire tap clones a DID once per drain | 482 541 | 18 923 | 25.5 |
//! | record blocks packed, no CID beside them; a signup picks its server without listing them all | 480 709 | 18 923 | 25.4 |
//!
//! A store may since release the bytes of a block its owner can draw again,
//! so the rows below divide by the record blocks the fleet *serves*: the
//! distinct values of its repositories' trees (`PdsFleet::record_blocks`),
//! whatever a store holds. On this study that is 18 923 as well (a store
//! held exactly its tree's distinct values), so the last row above, re-read
//! on this base, is unchanged:
//!
//! | commit                           | heap calls | record blocks served | per record |
//! |----------------------------------|-----------:|---------------------:|-----------:|
//! | the last row above, re-read      |    480 709 |               18 923 |       25.4 |
//! | records by recipe; read label-stream entries let go; §7 looks labels up through one buffer | 479 546 | 18 923 | 25.3 |
//! | the commit log keeps record CIDs only, not the MST's node churn; a commit frame takes its ops | 440 641 | 18 923 | 23.3 |
//! | a commit sizes its log entry from its batch and hands back its revision, not a copy of itself; a release collapses frozen subtrees | 436 982 | 18 923 | 23.1 |
//!
//! The record blocks served are since counted as the stores' blocks
//! (`Repository::record_blocks` is the store's length, not a walk of a tree
//! that may hold stubs): the same 18 923.
//!
//! | commit                           | heap calls | record blocks served | per record |
//! |----------------------------------|-----------:|---------------------:|-----------:|
//! | the mirror keeps 8 bytes a record, no CID, appended; §4 and §7 key months by the mirror's `&str` | 392 254 | 18 923 | 20.7 |
//! | §6 keys months by a key rendered on the stack; §7 copies a DID only for a new actor or follow edge | 385 540 | 18 923 | 20.4 |
//!
//! The same study over paged stores (`StoreConfig::paged().page_size(4096)`,
//! spilling under a root of the test's own) is the second leg, with its own
//! table and budget. It divides by the same 18 923 record blocks (a paged
//! store releases nothing, so the base never differed there):
//!
//! | commit                           | heap calls | record blocks | per record |
//! |----------------------------------|-----------:|--------------:|-----------:|
//! | a map entry and a `Vec` per block in the open page, a `CidMap` index | 590 749 | 18 923 | 31.2 |
//! | records appended to the open page, an 8-byte index slot per block | 578 172 | 18 923 | 30.6 |
//! | one record per labeled object in §6 and §7, labelers and labels in short lists | 570 428 | 18 923 | 30.1 |
//! | compaction from the first day, §7 keeps one ranking time per served post, §6 times post labels only | 569 285 | 18 923 | 30.1 |
//! | a DID is its own string: DID-keyed tables key by `Did`, nothing renders or re-parses one | 507 994 | 18 923 | 26.8 |
//! | a PDS's outbox holds firehose frames, the wire tap clones a DID once per drain | 497 169 | 18 923 | 26.3 |
//! | a signup picks its server without listing them all | 495 789 | 18 923 | 26.2 |
//! | read label-stream entries let go; §7 looks labels up through one buffer | 492 712 | 18 923 | 26.0 |
//! | the commit log keeps record CIDs only, not the MST's node churn; a commit frame takes its ops | 453 807 | 18 923 | 24.0 |
//! | a commit sizes its log entry from its batch and hands back its revision, not a copy of itself | 448 037 | 18 923 | 23.7 |
//! | the mirror keeps 8 bytes a record, no CID, appended; §4 and §7 key months by the mirror's `&str` | 403 309 | 18 923 | 21.3 |
//! | §6 keys months by a key rendered on the stack; §7 copies a DID only for a new actor or follow edge | 396 595 | 18 923 | 21.0 |
//!
//! Each budget ratchets: it is its table's last row plus one call of slack,
//! and a change that lowers the figure lowers the budget with it. The `LD_PRELOAD`
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

use bsky_atproto::blockstore::StoreConfig;
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

/// The last row of the in-memory leg's tables above, plus one call of slack.
const BUDGET_PER_RECORD: f64 = 21.4;

/// The last row of the paged leg's table, plus one call of slack.
const PAGED_BUDGET_PER_RECORD: f64 = 22.0;

/// Run the study `spec` describes under the counter; returns heap calls
/// per record block the fleet serves at the end.
fn heap_calls_per_record(spec: &RunSpec) -> f64 {
    let before = heap_calls();
    let (analyzers, world, summary) = collect_sharded(spec, StudyAnalyzers::default());
    let report = StudyReport::from_analyzers(spec.config, analyzers, &world);
    let calls = heap_calls() - before;

    // Every record block the fleet serves: the distinct values of its
    // repositories' trees, whether a store holds their bytes or released
    // them to be drawn again.
    let records = world.fleet.record_blocks() as u64;
    assert!(records > 10_000, "a real study ran: {records} records");
    assert!(summary.merged.repo_delta_fetches > 0, "the mirror synced");
    assert!(report.table1.total > 0);
    let per_record = calls as f64 / records as f64;
    println!(
        "{:?} store: {calls} heap calls / {records} records = {per_record:.1} per record",
        spec.store.kind
    );
    per_record
}

/// Both legs run in one test: the counter is process-wide, so a second
/// test running beside this one would count into it.
#[test]
fn heap_calls_per_record_written_stay_within_budget() {
    let mut config = ScenarioConfig::repro_scale(7);
    config.scale = 40_000;
    let spec = RunSpec::new(config).shards(1).jobs(1);

    let per_record = heap_calls_per_record(&spec);
    assert!(
        per_record <= BUDGET_PER_RECORD,
        "{per_record:.1} heap calls per record block: over the budget of \
         {BUDGET_PER_RECORD} (the last measured figure plus one). Look for a \
         new `to_string()` key, `Value` round trip or clone on the per-record \
         path"
    );

    // The same study over paged stores, spilling under a root of its own.
    let root = std::env::temp_dir().join(format!("bsky-heap-budget-{}", std::process::id()));
    let paged = StoreConfig::paged()
        .page_size(4096)
        .spill_dir(root.to_string_lossy());
    let per_record = heap_calls_per_record(&spec.store(paged));
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        per_record <= PAGED_BUDGET_PER_RECORD,
        "{per_record:.1} heap calls per record block over paged stores: over \
         the budget of {PAGED_BUDGET_PER_RECORD} (the last measured figure \
         plus one). Look for a per-block allocation in the paged store"
    );
}
