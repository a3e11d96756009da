//! The memory footprint of a repository's record index, in a test binary of
//! its own: it installs a counting allocator, and live heap bytes are a
//! property of the whole process, so no other test may allocate beside it.
//!
//! The tree is the one `a_repository_shaped_tree_holds_little_entry_slack`
//! (in `mst.rs`) builds: 30 000 TID record keys over four collections,
//! inserted in time order as a repository creates them.
//!
//! | layout                                                  | live bytes per key |
//! |---------------------------------------------------------|-------------------:|
//! | boxed nodes, 48-byte entries, keys in one buffer        |              116.5 |
//! | one node arena, prefix-compressed entry records         |               67.2 |
//!
//! The budget ratchets: it is the last row plus 5 %, and a change that
//! lowers the figure lowers the budget with it.

use bsky_atproto::mst::Mst;
use bsky_atproto::{Cid, Tid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// `System`, counting the bytes it has handed out and not taken back.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).expect("an allocation fits isize")
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data and neither allocates nor touches the memory
// being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(size(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(size(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with this
        // `layout`, which is what the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(size(new_size) - size(layout.size()), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The last row of the table above, plus 5 %.
const BUDGET_PER_KEY: f64 = 70.6;

const KEYS: u64 = 30_000;

/// The SplitMix64 step of the crate's test generator, seeded as the unit
/// test seeds it, so this builds the same tree.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

#[test]
fn a_repository_shaped_tree_stays_within_its_bytes_per_key() {
    let collections = [
        "app.bsky.feed.like",
        "app.bsky.feed.post",
        "app.bsky.feed.repost",
        "app.bsky.graph.follow",
    ];
    let mut rng = Rng(0x7d5);
    let before = LIVE.load(Ordering::Relaxed);
    let mut mst = Mst::default();
    let mut micros = 1_700_000_000_000_000u64;
    for n in 0..KEYS {
        micros += 1 + rng.below(5_000_000);
        let collection = collections[rng.below(4) as usize];
        let key = format!(
            "{collection}/{}",
            Tid::from_micros(micros, 7).to_string_form()
        );
        let value = Cid::for_cbor(&n.to_be_bytes());
        assert_eq!(mst.insert(&key, value).expect("a valid key"), None);
    }
    mst.root_cid();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_key = live as f64 / KEYS as f64;
    println!("{live} live bytes / {KEYS} keys = {per_key:.1} per key");
    assert!(
        per_key <= BUDGET_PER_KEY,
        "{per_key:.1} live heap bytes per key: over the budget of {BUDGET_PER_KEY} \
         (the last measured figure plus 5 %)"
    );
    drop(mst);
}
