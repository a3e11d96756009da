//! Count-based bounds on the paged store's spill segment, in a test binary
//! of its own: the descriptor count is a property of the whole process, so
//! no other test may be opening files beside this one.

use bsky_atproto::blockstore::{BlockStore, StoreConfig};
use bsky_atproto::Cid;
use std::path::Path;

const STORES: usize = 2_000;
/// 8 blocks of 32 bytes over 64-byte pages: every store seals 4 pages.
const BLOCKS: u64 = 8;
const PAGES: u64 = 4;

fn entries(dir: impl AsRef<Path>) -> usize {
    std::fs::read_dir(dir).expect("directory exists").count()
}

fn block(store: usize, n: u64) -> (Cid, Vec<u8>) {
    let mut bytes = (store as u64 * BLOCKS + n).to_be_bytes().to_vec();
    bytes.resize(32, 0xab);
    (Cid::for_raw(&bytes), bytes)
}

#[test]
fn many_spilling_stores_share_one_segment_and_one_descriptor() {
    let root = std::env::temp_dir().join(format!("bsky-segment-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = StoreConfig::paged()
        .page_size(64)
        .resident_pages(1)
        .spill_dir(root.to_string_lossy());
    let descriptors_before = entries("/proc/self/fd");

    let mut stores: Vec<Box<dyn BlockStore>> = (0..STORES).map(|_| config.build()).collect();
    assert!(!root.exists(), "nothing touches the disk before a spill");
    for (s, store) in stores.iter_mut().enumerate() {
        for n in 0..BLOCKS {
            let (cid, bytes) = block(s, n);
            assert!(store.put(cid, bytes));
        }
        // One sealed page may stay resident; the other three were evicted.
        assert_eq!(store.stats().spill_writes, PAGES - 1);
        store.evict_cold();
    }
    assert_eq!(entries(&root), 1, "one segment for the whole root");
    assert_eq!(
        entries("/proc/self/fd"),
        descriptors_before + 1,
        "one descriptor for {STORES} spilling stores"
    );

    // Every block of every store reads back from its own extents, and a
    // page is written once however often it is evicted again.
    for (s, store) in stores.iter_mut().enumerate() {
        for n in 0..BLOCKS {
            let (cid, bytes) = block(s, n);
            assert_eq!(store.get(&cid), Some(bytes));
        }
        store.evict_cold();
        let stats = store.stats();
        assert_eq!(stats.spill_writes, PAGES, "pages sealed and evicted");
        assert_eq!(stats.spill_loads, PAGES);
        assert_eq!(stats.spilled_bytes, stats.logical_bytes);
        assert_eq!(stats.corrupt_reads, 0);
    }
    // (The path, not the `DirEntry`: an entry keeps its directory open.)
    let segment = std::fs::read_dir(&root)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    assert_eq!(
        std::fs::metadata(segment).unwrap().len(),
        STORES as u64 * BLOCKS * 32,
        "the segment holds each page exactly once"
    );

    // Dropped stores leave dead extents, not files; the segment goes with
    // the last of them, and the next spill under the root starts a new one.
    let last = stores.pop().expect("stores exist");
    drop(stores);
    assert_eq!(entries(&root), 1, "a live store keeps the segment");
    drop(last);
    assert_eq!(entries(&root), 0, "the last store removes it");
    assert_eq!(entries("/proc/self/fd"), descriptors_before);

    let mut again = config.build();
    for n in 0..BLOCKS {
        let (cid, bytes) = block(0, n);
        again.put(cid, bytes);
    }
    again.evict_cold();
    assert_eq!(entries(&root), 1);
    assert_eq!(again.get(&block(0, 0).0), Some(block(0, 0).1));
    drop(again);
    assert_eq!(entries(&root), 0);
    std::fs::remove_dir(&root).expect("the root is empty");
}
