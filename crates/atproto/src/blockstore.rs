//! Pluggable, CID-addressed block storage.
//!
//! Every stored content-addressed byte blob in the system — repository
//! record blocks, the AppView's counter blocks, the study mirror's copies of
//! fetched record blocks (decoded once, at the window end) — lives behind
//! one trait with these backends (MST node blocks are not stored: the
//! in-memory tree encodes them on export):
//!
//! * `MemStore` — everything resident: each block packed into one
//!   append-only buffer per store behind a header that holds its CID and
//!   length, `[CID 33 B][len u32 LE][payload]`, and found through an
//!   open-addressed table of `u32` offsets into that buffer (linear probing
//!   from the digest's first eight bytes, doubled past three quarters full,
//!   backward-shift deletes, rebuilt with the buffer when it is compacted).
//!   A block is neither an allocation nor an owned key of its own: its CID
//!   is kept once, beside its bytes, and [`BlockStore::put_slice`] copies it
//!   in once from a buffer the caller keeps. `len`, `bytes()` and `stats`
//!   count payloads only; headers and table are overhead. The default.
//! * `PagedStore` — blocks are appended to fixed-size *pages*; a full page
//!   is sealed into one immutable buffer and an LRU of sealed pages bounds
//!   memory. An evicted page is appended, once, to the *segment* of its
//!   spill root: one append-only file per root per process, owned jointly
//!   (through an `Arc`) by every store that has spilled under that root and
//!   removed when the last of them drops — so a run with a store per DID
//!   holds one descriptor, and a dropped store's extents are dead space
//!   until then. Paging in is one positioned read of the page's extent.
//!   *Verify on return:* a block served from a buffer that came from disk
//!   is re-hashed against its CID first, so a damaged, truncated or foreign
//!   segment can never feed bad bytes into the pipeline — such a block, like
//!   one whose page cannot be read at all, reads as absent and is counted.
//! * [`WriteBackStore`] — a write-back cache wrapper: `put`s buffer in a
//!   resident dirty map until [`BlockStore::flush`], and a `delete` of a
//!   still-buffered block cancels the write before it ever reaches the
//!   backend. A read-modify-write chain that rewrites an entity N times
//!   between flushes therefore costs the backend a single `put` instead of
//!   N `put`/`delete` pairs. The AppView wraps its counter store in one
//!   when it is built with write-back on, and flushes at its day
//!   boundaries.
//!
//! ## Contract
//!
//! A `BlockStore` is a set of `(Cid, bytes)` pairs where the CID is the
//! content address of the bytes (DAG-CBOR or raw codec). `put` (or
//! `put_slice`) of an existing CID is a no-op (content-addressed stores are
//! idempotent); `get` returns exactly the bytes that were put or nothing.
//! Backends may move blocks between memory and disk freely but must never
//! lose or reorder them: for any op sequence, every backend is
//! observationally equivalent to `MemStore` (pinned by the oracle property
//! test below).
//!
//! Stores are built from a [`StoreConfig`], which is what the study CLI
//! (`repro --store mem|paged --page-size N --spill-dir DIR`) and the world
//! builders plumb through the stack.

use crate::cid::{Cid, CidMap};
use crate::crypto::{sha256, DIGEST_LEN};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Aggregate statistics of one store (or a sum over many — see
/// [`StoreStats::absorb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of blocks held.
    pub blocks: usize,
    /// Logical bytes of all blocks (resident + spilled).
    pub logical_bytes: usize,
    /// Bytes of blocks currently resident in memory.
    pub resident_bytes: usize,
    /// Bytes of blocks currently spilled to disk.
    pub spilled_bytes: usize,
    /// Pages written to the spill segment.
    pub spill_writes: u64,
    /// Page reads from the spill segment.
    pub spill_loads: u64,
    /// Reads that returned nothing because the block's page could not be
    /// read back or its bytes failed CID verification.
    pub corrupt_reads: u64,
    /// Reads served from a write-back cache's dirty buffer.
    pub writeback_hits: u64,
    /// Reads that fell through a write-back cache to its backend.
    pub writeback_misses: u64,
    /// Write-back cache drains that pushed at least one buffered block to
    /// the backend.
    pub writeback_flushes: u64,
    /// Buffered writes cancelled by a delete before reaching the backend
    /// (the same-day put/delete pairs the cache coalesces away).
    pub(crate) writeback_coalesced: u64,
}

impl StoreStats {
    /// Fold another store's stats into this one (counters add).
    pub fn absorb(&mut self, other: &StoreStats) {
        self.blocks += other.blocks;
        self.logical_bytes += other.logical_bytes;
        self.resident_bytes += other.resident_bytes;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_writes += other.spill_writes;
        self.spill_loads += other.spill_loads;
        self.corrupt_reads += other.corrupt_reads;
        self.writeback_hits += other.writeback_hits;
        self.writeback_misses += other.writeback_misses;
        self.writeback_flushes += other.writeback_flushes;
        self.writeback_coalesced += other.writeback_coalesced;
    }
}

/// A CID-addressed block store.
///
/// See the module docs for the contract. The trait requires `Send` (stores
/// travel into shard worker threads inside repositories) and `Debug`
/// (repositories derive it). It has no copy routine: a store is built from
/// a [`StoreConfig`] and moved into its one owner, so the types holding a
/// `Box<dyn BlockStore>` (repositories, PDSes, relays, the AppView, the
/// study mirror) are not `Clone` and no backend has to supply one.
pub trait BlockStore: std::fmt::Debug + Send {
    /// Fetch a block's bytes. Returns owned bytes because a disk-backed
    /// store may have to page them in.
    fn get(&self, cid: &Cid) -> Option<Vec<u8>>;

    /// Insert a block, handing the store its bytes. Returns `true` when the
    /// block was newly inserted, `false` when the CID was already present
    /// (the bytes are dropped — content addressing makes them identical). A
    /// backend that keeps blocks in buffers of its own copies the bytes in
    /// and drops the `Vec`.
    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool;

    /// Insert a block from bytes the caller keeps (an encode buffer it
    /// reuses, the archive a block arrived in); same result as [`put`]. A
    /// backend copies out of the slice only when the block is new, so the
    /// bytes are copied once, into the store. The default builds the `Vec`
    /// that [`put`] takes; `MemStore` copies straight into its arena.
    ///
    /// [`put`]: BlockStore::put
    fn put_slice(&mut self, cid: Cid, bytes: &[u8]) -> bool {
        !self.has(&cid) && self.put(cid, bytes.to_vec())
    }

    /// Whether a block is present.
    fn has(&self, cid: &Cid) -> bool;

    /// Remove a block, returning its logical byte length (0 when absent).
    fn delete(&mut self, cid: &Cid) -> usize;

    /// Number of blocks held.
    fn len(&self) -> usize;

    /// Whether the store holds no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total logical bytes of all blocks (resident + spilled).
    fn bytes(&self) -> usize;

    /// Residency/spill statistics.
    fn stats(&self) -> StoreStats;

    /// Push any buffered writes through to durable state. A no-op for every
    /// backend except [`WriteBackStore`], whose dirty buffer drains here;
    /// callers that batch mutations (the AppView's day loop) flush at their
    /// epoch boundaries.
    fn flush(&mut self) {}

    /// Demote cold resident data to backing storage. A no-op for fully
    /// resident backends; `PagedStore` spills every sealed resident page,
    /// leaving only the open page in memory. Callers with an epoch rhythm
    /// (the AppView's day loop right after [`flush`], a repository's weekly
    /// compaction pass) invoke this at its boundary: the boundary ends the
    /// hot window, so sealed pages are overwhelmingly cold and any block
    /// that *is* re-read pages back in through the normal verified path.
    ///
    /// [`flush`]: BlockStore::flush
    fn evict_cold(&mut self) {}
}

/// Which backend a [`StoreConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreKind {
    /// Everything resident in memory (`MemStore`).
    #[default]
    Mem,
    /// Paged with LRU disk spill (`PagedStore`).
    Paged,
}

/// Configuration for building block stores — the value the CLI flags
/// (`--store`, `--page-size`, `--spill-dir`) and the world builders carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Backend to build.
    pub kind: StoreKind,
    /// Page capacity in bytes before a page is sealed (paged backend).
    pub page_size: usize,
    /// Number of sealed pages kept resident before spilling (paged backend;
    /// the open page is always resident on top of this).
    pub(crate) resident_pages: usize,
    /// Spill root directory (paged backend). `None` uses a per-process
    /// directory under the system temp directory. The root and its segment
    /// file are created on first spill; the segment is removed when the
    /// last store under the root drops.
    pub spill_dir: Option<String>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig::mem()
    }
}

impl StoreConfig {
    /// The in-memory backend.
    pub fn mem() -> StoreConfig {
        StoreConfig {
            kind: StoreKind::Mem,
            page_size: 16 * 1024,
            resident_pages: 4,
            spill_dir: None,
        }
    }

    /// The paged disk-spill backend with default page geometry.
    pub fn paged() -> StoreConfig {
        StoreConfig {
            kind: StoreKind::Paged,
            ..StoreConfig::mem()
        }
    }

    /// Override the page size in bytes (builder style).
    pub fn page_size(mut self, bytes: usize) -> StoreConfig {
        self.page_size = bytes.max(1);
        self
    }

    /// Override the resident-page LRU capacity (builder style).
    pub fn resident_pages(mut self, pages: usize) -> StoreConfig {
        self.resident_pages = pages.max(1);
        self
    }

    /// Override the spill root directory (builder style).
    pub fn spill_dir(mut self, dir: impl Into<String>) -> StoreConfig {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Build a fresh, empty store of the configured kind.
    pub fn build(&self) -> Box<dyn BlockStore> {
        match self.kind {
            StoreKind::Mem => Box::new(MemStore::new()),
            StoreKind::Paged => Box::new(PagedStore::new(self)),
        }
    }
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Holes a [`MemStore`] arena tolerates before it may be rebuilt, however few
/// live bytes it holds: a small store is not recopied for every delete.
const HOLE_FLOOR: usize = 4 * 1024;

/// Growth floor of a [`MemStore`] arena, so a small store does not
/// reallocate for every block.
const GROW_FLOOR: usize = 256;

/// A CID as a [`MemStore`] header holds it: the codec byte, then the digest.
const CID_KEY: usize = 1 + DIGEST_LEN;

/// A [`MemStore`] block header: the CID, then the payload length (`u32`,
/// little-endian).
const HEADER: usize = CID_KEY + 4;

/// Slots of the smallest [`MemStore`] table.
const MIN_TABLE: usize = 8;

/// The resident backend: every block packed into one append-only buffer
/// (the *arena*) as `[CID 33 B][payload length u32 LE][payload]`, found
/// through an open-addressed table of `u32` arena offsets. A block costs its
/// bytes, a 37-byte header and one 4-byte slot, not a heap allocation or an
/// owned key of its own.
///
/// *The table.* A slot holds the offset of a block's payload, just past its
/// header, so it is never 0 and 0 marks an empty slot. A CID probes
/// linearly from the first eight bytes of its digest (the [`CidHasher`]
/// rule) and matches a slot whose header holds its 33 bytes. The table is a
/// power of two long and doubles before an insert would take it past three
/// quarters full; a delete shifts the rest of its probe run back, so there
/// are no tombstones.
///
/// *The arena.* A delete leaves a hole; once the holes outweigh the live
/// header and payload bytes (and pass [`HOLE_FLOOR`]) the arena is rebuilt
/// from the live blocks, and the table with it, sized to what is left. So
/// the arena never holds more than twice its live bytes plus that floor. It
/// grows by a quarter of its length at a time (at least [`GROW_FLOOR`] and
/// the block), not by doubling, so its spare capacity stays a quarter of
/// what it holds.
///
/// `len`, `bytes` and `stats` count payloads only: a header is the store's
/// overhead, like a table slot. Nothing iterates the table towards output,
/// so neither its layout nor the arena's reaches a report. Also the oracle
/// the paged backend is property-tested against (and itself tested against
/// an ordered model).
///
/// [`CidHasher`]: crate::cid::CidHasher
#[derive(Debug, Default)]
pub(crate) struct MemStore {
    /// Payload offsets into `arena` (0: empty slot); empty or a power of
    /// two long.
    table: Vec<u32>,
    arena: Vec<u8>,
    /// Blocks held.
    len: usize,
    /// Live payload bytes.
    bytes: usize,
}

/// A CID's header bytes (see [`CID_KEY`]).
fn cid_key(cid: &Cid) -> [u8; CID_KEY] {
    let mut key = [0u8; CID_KEY];
    key[0] = cid.codec();
    key[1..].copy_from_slice(cid.digest());
    key
}

/// The slot a CID's probe starts from, given its header bytes: the first
/// eight digest bytes, as [`Cid`]'s `Hash` reads them.
fn home_slot(key: &[u8], mask: usize) -> usize {
    let mut head = [0u8; 8];
    head.copy_from_slice(&key[1..9]);
    u64::from_le_bytes(head) as usize & mask
}

/// Table slots for `blocks` blocks: the smallest power of two, at least
/// [`MIN_TABLE`], that they fill no more than three quarters of.
fn table_len_for(blocks: usize) -> usize {
    let mut len = MIN_TABLE;
    while blocks * 4 > len * 3 {
        len *= 2;
    }
    len
}

/// Put the block whose payload starts at `arena[at]` into the first empty
/// slot of its probe run.
fn place(table: &mut [u32], arena: &[u8], at: u32) {
    let mask = table.len() - 1;
    let mut slot = home_slot(header_key(arena, at), mask);
    while table[slot] != 0 {
        slot = (slot + 1) & mask;
    }
    table[slot] = at;
}

/// The CID bytes in the header of the block whose payload starts at
/// `arena[at]`.
fn header_key(arena: &[u8], at: u32) -> &[u8] {
    &arena[at as usize - HEADER..][..CID_KEY]
}

/// The payload that starts at `arena[at]`.
fn payload(arena: &[u8], at: u32) -> &[u8] {
    let at = at as usize;
    let mut len = [0u8; 4];
    len.copy_from_slice(&arena[at - 4..at]);
    &arena[at..][..u32::from_le_bytes(len) as usize]
}

impl MemStore {
    /// An empty store.
    pub(crate) fn new() -> MemStore {
        MemStore::default()
    }

    /// Header and payload bytes of the live blocks: `arena.len()` minus the
    /// holes.
    fn live_bytes(&self) -> usize {
        self.bytes + self.len * HEADER
    }

    /// The slot holding `key`, or the empty slot its probe ends at. The
    /// table must not be empty.
    fn probe(&self, key: &[u8; CID_KEY]) -> std::result::Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut slot = home_slot(key, mask);
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                at if header_key(&self.arena, at) == key => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The slot holding `cid`, if it is stored.
    fn find(&self, cid: &Cid) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(&cid_key(cid)).ok()
    }

    /// Empty `slot` and shift the rest of its probe run back over it, so
    /// every later entry stays reachable from its home slot.
    fn unlink(&mut self, mut slot: usize) {
        let mask = self.table.len() - 1;
        let mut next = slot;
        loop {
            next = (next + 1) & mask;
            let at = self.table[next];
            if at == 0 {
                break;
            }
            let home = home_slot(header_key(&self.arena, at), mask);
            // The entry may move back to `slot` unless its home lies after
            // `slot` in the run (cyclically, within `slot + 1 ..= next`).
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(slot) & mask {
                self.table[slot] = at;
                slot = next;
            }
        }
        self.table[slot] = 0;
    }

    /// Rehash every block into a fresh table of `len` slots.
    fn rebuild_table(&mut self, len: usize) {
        let mut table = vec![0u32; len];
        for &at in self.table.iter().filter(|&&at| at != 0) {
            place(&mut table, &self.arena, at);
        }
        self.table = table;
    }

    /// Copy the live blocks, headers included, into a fresh, exact-size
    /// arena, and index them in a fresh table sized to them.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.live_bytes());
        let mut table = vec![0u32; table_len_for(self.len)];
        for &at in self.table.iter().filter(|&&at| at != 0) {
            let block = payload(&self.arena, at);
            arena.extend_from_slice(&self.arena[at as usize - HEADER..][..HEADER + block.len()]);
            place(&mut table, &arena, span_u32(arena.len() - block.len()));
        }
        self.arena = arena;
        self.table = table;
    }
}

/// An arena offset or block length as a [`MemStore`] stores it: a store past
/// 4 GiB stops here rather than wrap to a wrong offset.
fn span_u32(n: usize) -> u32 {
    u32::try_from(n).expect("MemStore arena exceeds 4 GiB")
}

impl BlockStore for MemStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        let slot = self.find(cid)?;
        Some(payload(&self.arena, self.table[slot]).to_vec())
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        self.put_slice(cid, &bytes)
    }

    fn put_slice(&mut self, cid: Cid, bytes: &[u8]) -> bool {
        let key = cid_key(&cid);
        let fits = (self.len + 1) * 4 <= self.table.len() * 3;
        let slot = match (!self.table.is_empty()).then(|| self.probe(&key)) {
            Some(Ok(_)) => return false,
            Some(Err(slot)) if fits => slot,
            _ => {
                self.rebuild_table(table_len_for(self.len + 1));
                self.probe(&key).expect_err("the CID was absent")
            }
        };
        let need = HEADER + bytes.len();
        if self.arena.capacity() - self.arena.len() < need {
            let grow = (self.arena.len() / 4).max(GROW_FLOOR).max(need);
            self.arena.reserve_exact(grow);
        }
        self.arena.extend_from_slice(&key);
        self.arena
            .extend_from_slice(&span_u32(bytes.len()).to_le_bytes());
        self.table[slot] = span_u32(self.arena.len());
        self.arena.extend_from_slice(bytes);
        self.len += 1;
        self.bytes += bytes.len();
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.find(cid).is_some()
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let Some(slot) = self.find(cid) else {
            return 0;
        };
        let len = payload(&self.arena, self.table[slot]).len();
        self.unlink(slot);
        self.len -= 1;
        self.bytes -= len;
        let holes = self.arena.len() - self.live_bytes();
        if holes > self.live_bytes() && holes >= HOLE_FLOOR {
            self.compact();
        }
        len
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blocks: self.len,
            logical_bytes: self.bytes,
            resident_bytes: self.bytes,
            ..StoreStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// PagedStore
// ---------------------------------------------------------------------------

/// Per-process token mixed into the *default* spill root. Segment names
/// carry the PID and PIDs get recycled, so two processes sharing a bare
/// `$TMPDIR/bsky-blockstore` root could end up truncating each other's
/// segment (the CID check would drop the blocks, but as corrupt reads).
/// The token makes the default root unique per process even under PID
/// reuse; an explicit `--spill-dir` is left alone.
static PROCESS_TOKEN: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

fn process_token() -> u64 {
    *PROCESS_TOKEN.get_or_init(|| {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let aslr = &PROCESS_TOKEN as *const _ as u64;
        clock.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ aslr.rotate_left(17)
    })
}

/// The default spill root for stores built without `--spill-dir`:
/// `$TMPDIR/bsky-blockstore-<pid>-<token>`, unique to this process.
fn default_spill_root() -> PathBuf {
    std::env::temp_dir().join(format!(
        "bsky-blockstore-{}-{:016x}",
        std::process::id(),
        process_token()
    ))
}

/// Names segment files, so a segment created while another of the same
/// root is still being dropped never shares its path.
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// The live segment of every spill root this process has spilled under.
static SEGMENTS: Mutex<BTreeMap<PathBuf, Weak<Segment>>> = Mutex::new(BTreeMap::new());

/// The append-only spill file of one spill root, shared by every store
/// under that root. A page's extent belongs to the store that appended it
/// and is never rewritten; the file is removed when the last store drops.
#[derive(Debug)]
struct Segment {
    file: File,
    path: PathBuf,
    /// End of the last extent handed out.
    next: AtomicU64,
}

impl Segment {
    /// The root's live segment, created (with the root) if there is none.
    fn shared(root: &Path) -> Arc<Segment> {
        // A panic below (the root cannot be created) leaves the map as it
        // was, so a poisoned lock still guards a valid map.
        let mut live = SEGMENTS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(segment) = live.get(root).and_then(Weak::upgrade) {
            return segment;
        }
        live.retain(|_, segment| segment.strong_count() > 0);
        std::fs::create_dir_all(root).expect("create block-store spill root");
        let path = root.join(format!(
            "segment-{}-{}.bin",
            std::process::id(),
            SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("create block-store spill segment");
        let segment = Arc::new(Segment {
            file,
            path,
            next: AtomicU64::new(0),
        });
        live.insert(root.to_path_buf(), Arc::downgrade(&segment));
        segment
    }

    /// Append a page, returning the offset of its extent. `Relaxed`
    /// suffices: the counter only keeps extents disjoint, and an extent is
    /// read by no store but the one that reserved it.
    fn append(&self, page: &[u8]) -> u64 {
        let at = self.next.fetch_add(page.len() as u64, Ordering::Relaxed);
        self.file
            .write_all_at(page, at)
            .expect("write block-store spill page");
        at
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Where a block lives: its page and, once that page is sealed, its span
/// in the page's buffer.
#[derive(Debug, Clone, Copy)]
struct Loc {
    page: u32,
    off: u32,
    len: u32,
}

/// A sealed page: the concatenated payloads of the blocks it was sealed
/// with, immutable from then on (a delete only drops the index entry).
#[derive(Debug)]
struct Page {
    /// The page's bytes while resident; `None` once evicted.
    buf: Option<Vec<u8>>,
    /// Whether `buf` was read back from the segment, so that a block served
    /// from it has to prove its CID first.
    from_disk: bool,
    /// Length of the buffer, kept for the page-in read.
    len: usize,
    /// Offset of the page's extent in the segment, once written.
    extent: Option<u64>,
    /// Logical bytes of the page's *live* blocks (index-reachable).
    live_bytes: usize,
}

#[derive(Debug)]
struct Paged {
    page_size: usize,
    resident_cap: usize,
    spill_root: PathBuf,
    /// Opened on first spill.
    segment: Option<Arc<Segment>>,
    /// Where every block lives. Looked up, never iterated.
    index: CidMap<Loc>,
    /// Sealed pages by id; the open page's id is `pages.len()`.
    pages: Vec<Page>,
    /// Blocks of the open (append) page — always resident, outside the LRU.
    /// Ordered: `seal` lays the page out in this map's iteration order, so
    /// it decides each block's offset in the spilled page.
    open: BTreeMap<Cid, Vec<u8>>,
    open_bytes: usize,
    /// Sealed resident pages, least recently used at the front.
    lru: VecDeque<u32>,
    logical_bytes: usize,
    spill_writes: u64,
    spill_loads: u64,
    corrupt_reads: u64,
}

/// The paged disk-spill backend: blocks append to an open page; sealed
/// pages rotate through a bounded LRU and are appended to the spill root's
/// shared segment when first evicted. A read of an evicted block pages its
/// page back in with one positioned read and verifies that block's CID.
/// Blocks are found through a hash table from CID to page and span
/// ([`CidMap`]); only the open page is an ordered map, because its order
/// becomes the sealed page's layout.
///
/// Reads take `&self` like every other backend, so the paging machinery
/// lives behind a [`RefCell`]; the store is `Send` (one shard owns it) but
/// deliberately not `Sync`.
#[derive(Debug)]
pub(crate) struct PagedStore {
    inner: RefCell<Paged>,
}

impl PagedStore {
    /// An empty paged store; nothing touches the disk until the first page
    /// is evicted.
    pub(crate) fn new(config: &StoreConfig) -> PagedStore {
        let spill_root = match &config.spill_dir {
            Some(dir) => PathBuf::from(dir),
            None => default_spill_root(),
        };
        PagedStore {
            inner: RefCell::new(Paged {
                page_size: config.page_size.max(1),
                resident_cap: config.resident_pages.max(1),
                spill_root,
                segment: None,
                index: CidMap::default(),
                pages: Vec::new(),
                open: BTreeMap::new(),
                open_bytes: 0,
                lru: VecDeque::new(),
                logical_bytes: 0,
                spill_writes: 0,
                spill_loads: 0,
                corrupt_reads: 0,
            }),
        }
    }
}

impl Paged {
    /// Freeze the open page into a buffer, queue it in the LRU and start a
    /// fresh open page.
    fn seal(&mut self) {
        let id = self.pages.len() as u32;
        let mut buf = Vec::with_capacity(self.open_bytes);
        for (cid, bytes) in std::mem::take(&mut self.open) {
            let loc = self.index.get_mut(&cid).expect("open block is indexed");
            loc.off = buf.len() as u32;
            buf.extend_from_slice(&bytes);
        }
        self.pages.push(Page {
            len: buf.len(),
            buf: Some(buf),
            from_disk: false,
            extent: None,
            live_bytes: std::mem::take(&mut self.open_bytes),
        });
        self.lru.push_back(id);
        self.enforce_cap();
    }

    /// Drop a sealed page's buffer, appending it to the segment first if it
    /// was never written.
    fn evict(&mut self, id: u32) {
        let page = &mut self.pages[id as usize];
        let buf = page.buf.take().expect("evicting a resident page");
        if page.extent.is_none() {
            let segment = self
                .segment
                .get_or_insert_with(|| Segment::shared(&self.spill_root));
            page.extent = Some(segment.append(&buf));
            self.spill_writes += 1;
        }
    }

    /// Read an evicted page back from its extent. `false` when the segment
    /// cannot supply all of it (truncated, unreadable).
    fn page_in(&mut self, id: u32) -> bool {
        self.spill_loads += 1;
        let page = &mut self.pages[id as usize];
        let (Some(segment), Some(at)) = (&self.segment, page.extent) else {
            return false;
        };
        let mut buf = vec![0; page.len];
        if segment.file.read_exact_at(&mut buf, at).is_err() {
            return false;
        }
        page.buf = Some(buf);
        page.from_disk = true;
        true
    }

    /// Evict sealed resident pages past the LRU capacity.
    fn enforce_cap(&mut self) {
        while self.lru.len() > self.resident_cap {
            let victim = self.lru.pop_front().expect("lru non-empty");
            self.evict(victim);
        }
    }

    /// Mark a sealed page as most recently used.
    fn touch(&mut self, id: u32) {
        if let Some(pos) = self.lru.iter().position(|&p| p == id) {
            self.lru.remove(pos);
            self.lru.push_back(id);
        }
    }

    fn stats(&self) -> StoreStats {
        let mut resident = self.open_bytes;
        let mut spilled = 0usize;
        for page in &self.pages {
            if page.buf.is_some() {
                resident += page.live_bytes;
            } else {
                spilled += page.live_bytes;
            }
        }
        StoreStats {
            blocks: self.index.len(),
            logical_bytes: self.logical_bytes,
            resident_bytes: resident,
            spilled_bytes: spilled,
            spill_writes: self.spill_writes,
            spill_loads: self.spill_loads,
            corrupt_reads: self.corrupt_reads,
            ..StoreStats::default()
        }
    }
}

impl BlockStore for PagedStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        let mut inner = self.inner.borrow_mut();
        let loc = *inner.index.get(cid)?;
        let id = loc.page as usize;
        if id == inner.pages.len() {
            return inner.open.get(cid).cloned();
        }
        if inner.pages[id].buf.is_some() {
            inner.touch(loc.page);
        } else if inner.page_in(loc.page) {
            inner.lru.push_back(loc.page);
            inner.enforce_cap();
        } else {
            inner.corrupt_reads += 1;
            return None;
        }
        let page = &inner.pages[id];
        let buf = page.buf.as_deref().expect("page is resident");
        let bytes = &buf[loc.off as usize..][..loc.len as usize];
        // Read-back verification: bytes that crossed the disk leave the
        // store only if they still hash to the CID they were put under.
        if page.from_disk && sha256(bytes) != *cid.digest() {
            inner.corrupt_reads += 1;
            return None;
        }
        Some(bytes.to_vec())
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        let inner = self.inner.get_mut();
        let len = bytes.len();
        let Entry::Vacant(slot) = inner.index.entry(cid) else {
            return false;
        };
        slot.insert(Loc {
            page: inner.pages.len() as u32,
            off: 0,
            len: len as u32,
        });
        inner.open.insert(cid, bytes);
        inner.open_bytes += len;
        inner.logical_bytes += len;
        if inner.open_bytes >= inner.page_size {
            inner.seal();
        }
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.inner.borrow().index.contains_key(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let inner = self.inner.get_mut();
        let Some(loc) = inner.index.remove(cid) else {
            return 0;
        };
        let len = loc.len as usize;
        match inner.pages.get_mut(loc.page as usize) {
            Some(page) => page.live_bytes -= len,
            None => {
                inner.open.remove(cid);
                inner.open_bytes -= len;
            }
        }
        inner.logical_bytes -= len;
        len
    }

    fn evict_cold(&mut self) {
        // Every sealed resident page sits in the LRU; evict them all. The
        // open page stays resident — it is the only page still taking
        // appends.
        let inner = self.inner.get_mut();
        while let Some(id) = inner.lru.pop_front() {
            inner.evict(id);
        }
    }

    fn len(&self) -> usize {
        self.inner.borrow().index.len()
    }

    fn bytes(&self) -> usize {
        self.inner.borrow().logical_bytes
    }

    fn stats(&self) -> StoreStats {
        self.inner.borrow().stats()
    }
}

// ---------------------------------------------------------------------------
// WriteBackStore
// ---------------------------------------------------------------------------

/// A write-back cache in front of any [`BlockStore`].
///
/// `put` lands in a resident dirty buffer; [`BlockStore::flush`] drains the
/// buffer to the backend. A `delete` of a still-buffered block removes it
/// from the buffer without the backend ever seeing it — that cancellation is
/// the *coalescing*: an entity rewritten N times between flushes (each
/// rewrite a `delete` of the old CID plus a `put` of the new) reaches the
/// backend as exactly one `put`.
///
/// The wrapper is observationally transparent: `get`/`has` consult the
/// buffer first, so readers always see buffered state, and any op sequence
/// interleaved with `flush`es behaves exactly like the unwrapped backend
/// (pinned by the oracle property test below). Stats report the buffer as
/// resident bytes plus the `writeback_*` counters.
#[derive(Debug)]
pub struct WriteBackStore {
    inner: Box<dyn BlockStore>,
    /// Ordered: `flush` puts the buffer into the backend in this map's
    /// iteration order, which decides which blocks share a backend page.
    dirty: BTreeMap<Cid, Vec<u8>>,
    dirty_bytes: usize,
    /// Reads take `&self` like every backend, so the hit/miss tally lives
    /// behind `Cell`s (the store is `Send`, not `Sync` — one shard owns it).
    hits: Cell<u64>,
    misses: Cell<u64>,
    flushes: u64,
    coalesced: u64,
}

impl WriteBackStore {
    /// Wrap a backend with an empty dirty buffer.
    pub fn new(inner: Box<dyn BlockStore>) -> WriteBackStore {
        WriteBackStore {
            inner,
            dirty: BTreeMap::new(),
            dirty_bytes: 0,
            hits: Cell::new(0),
            misses: Cell::new(0),
            flushes: 0,
            coalesced: 0,
        }
    }
}

impl BlockStore for WriteBackStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        if let Some(bytes) = self.dirty.get(cid) {
            self.hits.set(self.hits.get() + 1);
            return Some(bytes.clone());
        }
        self.misses.set(self.misses.get() + 1);
        self.inner.get(cid)
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        if self.dirty.contains_key(&cid) || self.inner.has(&cid) {
            return false;
        }
        self.dirty_bytes += bytes.len();
        self.dirty.insert(cid, bytes);
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.dirty.contains_key(cid) || self.inner.has(cid)
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        if let Some(bytes) = self.dirty.remove(cid) {
            self.dirty_bytes -= bytes.len();
            self.coalesced += 1;
            return bytes.len();
        }
        self.inner.delete(cid)
    }

    fn len(&self) -> usize {
        self.inner.len() + self.dirty.len()
    }

    fn bytes(&self) -> usize {
        self.inner.bytes() + self.dirty_bytes
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.stats();
        stats.blocks += self.dirty.len();
        stats.logical_bytes += self.dirty_bytes;
        stats.resident_bytes += self.dirty_bytes;
        stats.writeback_hits += self.hits.get();
        stats.writeback_misses += self.misses.get();
        stats.writeback_flushes += self.flushes;
        stats.writeback_coalesced += self.coalesced;
        stats
    }

    fn flush(&mut self) {
        if !self.dirty.is_empty() {
            self.flushes += 1;
            for (cid, bytes) in std::mem::take(&mut self.dirty) {
                self.inner.put(cid, bytes);
            }
            self.dirty_bytes = 0;
        }
        self.inner.flush();
    }

    fn evict_cold(&mut self) {
        self.inner.evict_cold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrand::TestRng;

    fn tmp_root() -> String {
        std::env::temp_dir()
            .join("bsky-blockstore-test")
            .to_string_lossy()
            .into_owned()
    }

    fn paged_config() -> StoreConfig {
        // Tiny pages and a 1-page LRU so a handful of blocks already spill.
        StoreConfig::paged()
            .page_size(64)
            .resident_pages(1)
            .spill_dir(tmp_root())
    }

    /// A paged config over a spill root of the test's own: tests run in
    /// parallel and every store under one root shares its segment, so a test
    /// that damages the segment must not share it.
    fn private_config(name: &str) -> StoreConfig {
        let root = std::env::temp_dir().join(format!("bsky-blockstore-test-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        paged_config().spill_dir(root.to_string_lossy())
    }

    fn segment_path(store: &PagedStore) -> PathBuf {
        let inner = store.inner.borrow();
        inner.segment.as_ref().expect("store spilled").path.clone()
    }

    /// CIDs of the live blocks whose page is evicted right now.
    fn evicted_cids(store: &PagedStore) -> Vec<Cid> {
        let inner = store.inner.borrow();
        let evicted = |loc: &Loc| {
            let page = inner.pages.get(loc.page as usize);
            page.is_some_and(|p| p.buf.is_none())
        };
        let index = inner.index.iter();
        index.filter(|(_, l)| evicted(l)).map(|(c, _)| *c).collect()
    }

    /// Put blocks `from..from + count` (24 bytes each), returning them.
    fn fill(store: &mut PagedStore, from: u64, count: u64) -> Vec<(Cid, Vec<u8>)> {
        (from..from + count)
            .map(|n| {
                let (cid, bytes) = block(n, 24);
                assert!(store.put(cid, bytes.clone()));
                (cid, bytes)
            })
            .collect()
    }

    fn block(n: u64, len: usize) -> (Cid, Vec<u8>) {
        let mut bytes = n.to_be_bytes().to_vec();
        bytes.resize(len.max(8), (n % 251) as u8);
        (Cid::for_raw(&bytes), bytes)
    }

    #[test]
    fn mem_store_basics() {
        let mut store = MemStore::new();
        let (cid, bytes) = block(1, 10);
        assert!(store.put(cid, bytes.clone()));
        assert!(!store.put(cid, bytes.clone()), "put is idempotent");
        assert!(store.has(&cid));
        assert_eq!(store.get(&cid), Some(bytes.clone()));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes.len());
        assert_eq!(store.stats().resident_bytes, bytes.len());
        assert_eq!(store.delete(&cid), bytes.len());
        assert_eq!(store.delete(&cid), 0);
        assert!(store.is_empty());
        assert_eq!(store.get(&cid), None);
    }

    /// The arena against an ordered model: any interleaving of put /
    /// put_slice / get / has / delete agrees with a `BTreeMap<Cid, Vec<u8>>`,
    /// over a universe where a third of the CIDs are built to share the eight
    /// digest bytes the hasher reads with another CID — differing in a later
    /// digest byte, or in the codec alone — so that probes really collide
    /// and only the full 33 header bytes tell the blocks apart. Deletes
    /// cross the compaction threshold many times, and after every op the
    /// arena (headers and payloads) is within the bounds its compaction and
    /// growth rules promise, and the table within ≈ 11 bytes per block
    /// header in the arena. A `CidMap<(u32, u32)>` index, 44-byte slots plus
    /// a control byte each at most seven eighths full, would hold 45 or more
    /// bytes per live block and fail that bound.
    #[test]
    fn mem_store_matches_ordered_model_with_colliding_cids() {
        use std::hash::BuildHasher;
        let hash = |cid: &Cid| CidMap::<()>::default().hasher().hash_one(cid);
        let mut rng = TestRng::new(0x00c0_111d);
        let (mut collisions, mut compactions) = (0, 0);
        let (mut index_bytes, mut live_blocks) = (0, 0);
        for round in 0..12u64 {
            let mut universe: Vec<(Cid, Vec<u8>)> = (0..16)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(240) as usize))
                .collect();
            for i in 0..8 {
                let (twin_of, _) = universe[rng.below(16) as usize];
                let mut digest = *twin_of.digest();
                let codec = if i % 2 == 0 {
                    digest[8 + rng.below(24) as usize] ^= 1 + rng.below(255) as u8;
                    twin_of.codec()
                } else {
                    twin_of.codec() ^ 0x24 // raw <-> dag-cbor
                };
                let mut raw = twin_of.to_array();
                raw[1] = codec;
                raw[4..].copy_from_slice(&digest);
                let twin = Cid::from_bytes(&raw).unwrap();
                assert_ne!(twin, twin_of);
                assert_eq!(hash(&twin), hash(&twin_of), "built to collide");
                if !universe.iter().any(|(cid, _)| *cid == twin) {
                    universe.push((twin, rng.bytes(128)));
                    collisions += 1;
                }
            }
            let largest = universe.iter().map(|(_, b)| b.len()).max().unwrap();
            let mut store = MemStore::new();
            let mut model: BTreeMap<Cid, Vec<u8>> = BTreeMap::new();
            for _ in 0..2_400 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                let arena_len = store.arena.len();
                match rng.below(10) {
                    0..=3 => {
                        let fresh = !model.contains_key(cid);
                        if fresh {
                            model.insert(*cid, bytes.clone());
                        }
                        let put = match rng.below(2) {
                            0 => store.put(*cid, bytes.clone()),
                            _ => store.put_slice(*cid, bytes),
                        };
                        assert_eq!(put, fresh, "put disagrees");
                    }
                    4..=5 => assert_eq!(store.get(cid), model.get(cid).cloned()),
                    6 => assert_eq!(store.has(cid), model.contains_key(cid)),
                    _ => {
                        let removed = model.remove(cid).map_or(0, |b| b.len());
                        assert_eq!(store.delete(cid), removed, "delete disagrees");
                    }
                }
                if store.arena.len() < arena_len {
                    compactions += 1;
                }
                for (cid, _) in &universe {
                    assert_eq!(store.get(cid), model.get(cid).cloned());
                }
                let payloads = model.values().map(Vec::len).sum::<usize>();
                assert_eq!(store.len(), model.len());
                assert_eq!(store.bytes(), payloads);
                let live = payloads + model.len() * HEADER;
                let (len, cap) = (store.arena.len(), store.arena.capacity());
                assert!(
                    len - live <= live.max(HOLE_FLOOR - 1),
                    "{len}-byte arena for {live} live bytes"
                );
                assert!(
                    cap - len <= (len / 4).max(GROW_FLOOR).max(HEADER + largest),
                    "{cap}-byte arena capacity for {len} bytes"
                );
                let headers = arena_headers(&store);
                assert!(headers >= model.len());
                let index = store.table.capacity() * std::mem::size_of::<u32>();
                assert!(
                    3 * index <= (32 * headers).max(3 * 4 * MIN_TABLE),
                    "{index}-byte table for {headers} block headers"
                );
                index_bytes += index;
                live_blocks += model.len();
            }
            for (cid, _) in &universe {
                assert_eq!(store.get(cid), model.get(cid).cloned());
                assert_eq!(store.has(cid), model.contains_key(cid));
            }
        }
        assert!(collisions > 60, "colliding CIDs in play: {collisions}");
        assert!(compactions > 60, "arena compactions: {compactions}");
        assert!(
            index_bytes <= 16 * live_blocks,
            "{index_bytes} table bytes over {live_blocks} live blocks, summed over every op"
        );
    }

    /// Walk a [`MemStore`] arena header by header, checking that the walk
    /// ends exactly at its end and that every table slot points at one of
    /// its payloads; returns the number of headers, live and dead.
    fn arena_headers(store: &MemStore) -> usize {
        let mut payloads = std::collections::BTreeSet::new();
        let mut at = 0;
        while at < store.arena.len() {
            let start = span_u32(at + HEADER);
            payloads.insert(start);
            at = start as usize + payload(&store.arena, start).len();
        }
        assert_eq!(at, store.arena.len(), "the last block overruns the arena");
        let slots = store.table.iter().filter(|&&at| at != 0);
        assert!(slots.clone().all(|at| payloads.contains(at)));
        assert_eq!(slots.count(), store.len());
        payloads.len()
    }

    #[test]
    fn paged_store_spills_and_reads_back() {
        let mut store = PagedStore::new(&paged_config());
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            assert!(store.put(cid, bytes.clone()));
            blocks.push((cid, bytes));
        }
        let stats = store.stats();
        assert!(stats.spilled_bytes > 0, "small LRU must spill: {stats:?}");
        assert!(stats.spill_writes > 0);
        assert_eq!(
            stats.logical_bytes,
            stats.resident_bytes + stats.spilled_bytes
        );
        // Every block reads back exactly, paging cold pages in.
        for (cid, bytes) in &blocks {
            assert_eq!(store.get(cid).as_ref(), Some(bytes));
        }
        assert!(store.stats().spill_loads > 0);
        assert_eq!(store.len(), blocks.len());
    }

    #[test]
    fn default_spill_root_is_unique_per_process() {
        let root = default_spill_root();
        let name = root
            .file_name()
            .expect("default root has a final component")
            .to_string_lossy()
            .into_owned();
        assert!(
            name.starts_with(&format!("bsky-blockstore-{}-", std::process::id())),
            "default root must embed the pid: {name}"
        );
        assert_eq!(root, default_spill_root(), "token is stable in-process");
        assert_ne!(name, "bsky-blockstore", "the shared legacy root is gone");
    }

    #[test]
    fn colliding_store_dirs_in_distinct_roots_never_cross_read() {
        // Segment names carry the PID and a per-process sequence, so once
        // PIDs recycle two processes can pick the same name. The
        // per-process default root keeps them in distinct roots; this pins
        // down that even if a foreign segment lands where this root's
        // store looks, no foreign block ever surfaces as contents.
        let mut store_a = PagedStore::new(&private_config("crossread-a"));
        let mut store_b = PagedStore::new(&private_config("crossread-b"));
        let blocks_a = fill(&mut store_a, 0, 12);
        fill(&mut store_b, 1000, 12);
        store_a.evict_cold();
        store_b.evict_cold();
        let (segment_a, segment_b) = (segment_path(&store_a), segment_path(&store_b));
        assert_ne!(segment_a.parent(), segment_b.parent());
        // The collision: root A's segment is planted at root B's path, over
        // the file store B holds open. Same layout, foreign bytes.
        std::fs::copy(&segment_a, &segment_b).expect("plant foreign segment");
        let spilled_b = evicted_cids(&store_b);
        assert!(!spilled_b.is_empty());
        for cid in &spilled_b {
            assert_eq!(
                store_b.get(cid),
                None,
                "a clobbered block reads as absent, never as foreign bytes"
            );
        }
        assert_eq!(store_b.stats().corrupt_reads, spilled_b.len() as u64);
        for (cid, bytes) in &blocks_a {
            assert_eq!(
                store_b.get(cid),
                None,
                "another store's blocks never surface through the index"
            );
            assert_eq!(store_a.get(cid).as_ref(), Some(bytes), "store A is intact");
        }
        assert_eq!(store_a.stats().corrupt_reads, 0);
    }

    #[test]
    fn evict_cold_demotes_sealed_pages_and_keeps_blocks_readable() {
        // A generous LRU keeps several sealed pages resident...
        let config = StoreConfig::paged()
            .page_size(64)
            .resident_pages(8)
            .spill_dir(tmp_root());
        let mut store = PagedStore::new(&config);
        let mut blocks = Vec::new();
        for n in 0..40u64 {
            let (cid, bytes) = block(n, 24);
            store.put(cid, bytes.clone());
            blocks.push((cid, bytes));
        }
        let before = store.stats();
        assert!(
            before.resident_bytes > before.logical_bytes / 2,
            "sealed pages should still be resident: {before:?}"
        );
        // ...until an epoch boundary demotes them: only the open page stays.
        store.evict_cold();
        let after = store.stats();
        assert!(
            after.resident_bytes < before.resident_bytes,
            "evict_cold must shrink residency: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.logical_bytes,
            after.resident_bytes + after.spilled_bytes
        );
        // Nothing is lost: every block pages back in through the verified
        // read path, and a second eviction after the reads is also safe.
        for (cid, bytes) in &blocks {
            assert_eq!(store.get(cid).as_ref(), Some(bytes));
        }
        store.evict_cold();
        for (cid, bytes) in &blocks {
            assert_eq!(store.get(cid).as_ref(), Some(bytes));
        }
        // MemStore and WriteBackStore pass the hint through harmlessly.
        let mut mem = MemStore::new();
        mem.evict_cold();
        let mut wb = WriteBackStore::new(Box::new(PagedStore::new(&config)));
        let (cid, bytes) = block(99, 24);
        wb.put(cid, bytes.clone());
        wb.evict_cold();
        assert_eq!(wb.get(&cid), Some(bytes), "dirty buffer survives eviction");
    }

    #[test]
    fn paged_store_detects_corruption_on_read_back() {
        let mut store = PagedStore::new(&private_config("bitflip"));
        let blocks = fill(&mut store, 0, 40);
        assert!(store.stats().spilled_bytes > 0);
        // Flip the first byte of every spilled page: the block that owns it
        // must read as absent, never as wrong bytes, and its page-mates —
        // verified on their own — must still read exactly.
        let path = segment_path(&store);
        let mut raw = std::fs::read(&path).unwrap();
        let extents: Vec<u64> = {
            let inner = store.inner.borrow();
            inner.pages.iter().filter_map(|p| p.extent).collect()
        };
        assert!(!extents.is_empty());
        for at in &extents {
            raw[*at as usize] ^= 0xff;
        }
        std::fs::write(&path, &raw).unwrap();
        let mut missing = 0;
        for (cid, bytes) in &blocks {
            match store.get(cid) {
                Some(read) => assert_eq!(&read, bytes, "corrupt bytes surfaced"),
                None => missing += 1,
            }
        }
        assert_eq!(missing, extents.len(), "one damaged block per page");
        assert_eq!(store.stats().corrupt_reads, extents.len() as u64);
    }

    #[test]
    fn truncated_segment_reads_as_absent_and_counted() {
        let mut store = PagedStore::new(&private_config("truncated"));
        let blocks = fill(&mut store, 0, 40);
        let spilled_blocks = evicted_cids(&store).len();
        assert!(spilled_blocks > 0);
        // Cut the segment under the live store, mid-page: every page from
        // there on comes back short.
        let file = File::options()
            .write(true)
            .open(segment_path(&store))
            .unwrap();
        file.set_len(10).unwrap();
        let before = store.stats();
        let mut missing = 0;
        for (cid, bytes) in &blocks {
            match store.get(cid) {
                Some(read) => assert_eq!(&read, bytes),
                None => missing += 1,
            }
            assert!(store.has(cid), "the index is untouched");
        }
        assert_eq!(
            missing, spilled_blocks,
            "exactly the evicted blocks are lost"
        );
        let after = store.stats();
        assert_eq!(
            after.corrupt_reads, spilled_blocks as u64,
            "every loss counted"
        );
        assert_eq!(
            (after.resident_bytes, after.spilled_bytes),
            (before.resident_bytes, before.spilled_bytes),
            "a failed page-in makes nothing resident"
        );
        // The store keeps working: new pages append past the cut and read back.
        let fresh = fill(&mut store, 500, 20);
        store.evict_cold();
        for (cid, bytes) in &fresh {
            assert_eq!(store.get(cid).as_ref(), Some(bytes));
        }
    }

    #[test]
    fn store_config_builds_each_kind() {
        assert_eq!(StoreConfig::default().kind, StoreKind::Mem);
        let mem = StoreConfig::mem().build();
        assert_eq!(mem.len(), 0);
        let paged = paged_config().build();
        assert!(paged.is_empty());
        let cfg = StoreConfig::paged().page_size(0).resident_pages(0);
        assert_eq!(cfg.page_size, 1, "page size clamps to 1");
        assert_eq!(cfg.resident_pages, 1, "LRU cap clamps to 1");
    }

    #[test]
    fn writeback_store_buffers_coalesces_and_flushes() {
        let mut store = WriteBackStore::new(Box::new(MemStore::new()));
        let (cid1, bytes1) = block(1, 16);
        let (cid2, bytes2) = block(2, 16);
        assert!(store.put(cid1, bytes1.clone()));
        assert!(
            !store.put(cid1, bytes1.clone()),
            "buffered put is idempotent"
        );
        assert_eq!(store.dirty.len(), 1);
        // Buffered reads hit the dirty map, not the backend.
        assert_eq!(store.get(&cid1), Some(bytes1.clone()));
        assert!(store.has(&cid1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), bytes1.len());
        // The same-day rewrite pattern: delete the buffered block before a
        // flush and the backend never sees it.
        assert_eq!(store.delete(&cid1), bytes1.len());
        assert!(store.put(cid2, bytes2.clone()));
        store.flush();
        assert!(store.dirty.is_empty());
        let stats = store.stats();
        assert_eq!(stats.writeback_coalesced, 1);
        assert_eq!(stats.writeback_flushes, 1);
        assert_eq!(stats.writeback_hits, 1);
        assert_eq!(stats.blocks, 1, "only the surviving block was flushed");
        // Post-flush reads come from the backend and count as misses.
        assert_eq!(store.get(&cid2), Some(bytes2));
        assert!(store.stats().writeback_misses >= 1);
        // Re-putting a flushed block is still idempotent; deleting it
        // reaches through to the backend.
        assert!(!store.put(cid2, vec![0; 16]));
        assert!(store.delete(&cid2) > 0);
        assert!(store.is_empty());
        // An empty flush is not counted.
        store.flush();
        assert_eq!(store.stats().writeback_flushes, 1);
    }

    /// Write-back oracle: any interleaving of put / put_slice / get / delete
    /// / flush — over either backend — is observationally identical to the
    /// bare in-memory oracle.
    #[test]
    fn writeback_store_matches_mem_oracle_under_random_ops() {
        let mut rng = TestRng::new(0x00b1_0c4e);
        for round in 0..15 {
            let inner: Box<dyn BlockStore> = if round % 2 == 0 {
                Box::new(MemStore::new())
            } else {
                Box::new(PagedStore::new(
                    &StoreConfig::paged()
                        .page_size(32 + rng.below(96) as usize)
                        .resident_pages(1 + rng.below(3) as usize)
                        .spill_dir(tmp_root()),
                ))
            };
            let mut cached = WriteBackStore::new(inner);
            let mut oracle = MemStore::new();
            let universe: Vec<(Cid, Vec<u8>)> = (0..24)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(40) as usize))
                .collect();
            for _ in 0..400 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                match rng.below(10) {
                    0..=1 => {
                        assert_eq!(
                            cached.put(*cid, bytes.clone()),
                            oracle.put(*cid, bytes.clone()),
                            "put disagrees"
                        );
                    }
                    2..=3 => {
                        assert_eq!(
                            cached.put_slice(*cid, bytes),
                            oracle.put_slice(*cid, bytes),
                            "put_slice disagrees"
                        );
                    }
                    4..=6 => {
                        assert_eq!(cached.get(cid), oracle.get(cid), "get disagrees");
                    }
                    7..=8 => {
                        assert_eq!(cached.delete(cid), oracle.delete(cid), "delete disagrees");
                    }
                    _ => {
                        cached.flush();
                    }
                }
                assert_eq!(cached.len(), oracle.len());
                assert_eq!(cached.bytes(), oracle.bytes());
            }
            for (cid, _) in &universe {
                assert_eq!(cached.get(cid), oracle.get(cid));
                assert_eq!(cached.has(cid), oracle.has(cid));
            }
        }
    }

    /// The oracle property test: any interleaving of put / put_slice / get /
    /// delete / `evict_cold` on a tiny-paged store behaves exactly like the
    /// in-memory oracle, wherever the touched block happens to live.
    #[test]
    fn paged_store_matches_mem_oracle_under_random_ops() {
        let mut rng = TestRng::new(0x0009_a6ed);
        // Deletes that hit a sealed resident page / an evicted page.
        let (mut sealed_deletes, mut spilled_deletes) = (0, 0);
        for round in 0..15 {
            let config = StoreConfig::paged()
                .page_size(32 + rng.below(96) as usize)
                .resident_pages(1 + rng.below(3) as usize)
                .spill_dir(tmp_root());
            let mut paged = PagedStore::new(&config);
            let mut oracle = MemStore::new();
            // A bounded universe of blocks so deletes and re-puts collide.
            let universe: Vec<(Cid, Vec<u8>)> = (0..24)
                .map(|i| block(round * 1_000 + i, 8 + rng.below(40) as usize))
                .collect();
            for _ in 0..400 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                match rng.below(10) {
                    0..=1 => {
                        assert_eq!(
                            paged.put(*cid, bytes.clone()),
                            oracle.put(*cid, bytes.clone()),
                            "put disagrees"
                        );
                    }
                    2..=3 => {
                        assert_eq!(
                            paged.put_slice(*cid, bytes),
                            oracle.put_slice(*cid, bytes),
                            "put_slice disagrees"
                        );
                    }
                    4..=6 => {
                        assert_eq!(paged.get(cid), oracle.get(cid), "get disagrees");
                    }
                    7..=8 => {
                        {
                            let inner = paged.inner.borrow();
                            let page = inner
                                .index
                                .get(cid)
                                .and_then(|l| inner.pages.get(l.page as usize));
                            match page.map(|p| p.buf.is_some()) {
                                Some(true) => sealed_deletes += 1,
                                Some(false) => spilled_deletes += 1,
                                None => {}
                            }
                        }
                        assert_eq!(paged.delete(cid), oracle.delete(cid), "delete disagrees");
                    }
                    _ => {
                        paged.evict_cold();
                    }
                }
                assert_eq!(paged.len(), oracle.len());
                assert_eq!(paged.bytes(), oracle.bytes());
                let stats = paged.stats();
                assert_eq!(
                    stats.resident_bytes + stats.spilled_bytes,
                    stats.logical_bytes,
                    "every live byte is resident or spilled: {stats:?}"
                );
            }
            // Full final sweep: identical contents, block by block.
            for (cid, _) in &universe {
                assert_eq!(paged.get(cid), oracle.get(cid));
                assert_eq!(paged.has(cid), oracle.has(cid));
            }
            assert_eq!(paged.stats().corrupt_reads, 0);
        }
        assert!(
            sealed_deletes > 0 && spilled_deletes > 0,
            "both delete paths ran: {sealed_deletes} sealed, {spilled_deletes} spilled"
        );
    }
}
