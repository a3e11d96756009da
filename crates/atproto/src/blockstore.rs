//! Pluggable, CID-addressed block storage.
//!
//! The content-addressed blocks the system stores — the record blocks of
//! every repository in the PDS fleet — live behind one trait with these
//! backends. MST node blocks are not stored (the in-memory tree encodes
//! them on export), and the study's mirror keeps a fixed-size projection of
//! each record it fetches, not its block.
//!
//! * `MemStore` — everything resident: each block's payload packed against
//!   one fixed table of lexicon byte strings ([`LEXICON`]: each record type's
//!   `$type`, the record keys behind their DAG-CBOR heads, `at://did:plc:`,
//!   the years a timestamp starts with), into one append-only buffer per
//!   store as `[codec][packed length][packed payload]`, and found through an
//!   open-addressed table of 8-byte slots, 32 digest bits and the block's
//!   offset (linear probing, doubled past seven eighths full, backward-shift
//!   deletes, rebuilt with the buffer when it is compacted). No CID is kept:
//!   a slot whose digest bits match is settled by hashing the unpacked
//!   payload against the CID asked for, or, for a `put`, by comparing bytes.
//!   A record block of the simulated network packs to about half its size:
//!   on `serial_mem_2x` the store holds ≈ 80 bytes per block, where
//!   `[CID 33 B][len u32 LE][payload]` behind a `u32` offset held ≈ 175.
//!   `len`, `bytes()` and `stats` count payloads, unpacked; packing, record
//!   heads and table are overhead. The default.
//! * `PagedStore` — blocks are appended to fixed-size *pages* as
//!   `[CID 33 B][len u32 LE][payload]`, into the open page's
//!   append buffer; the page is sealed as it stands once its live payloads
//!   reach the page size, and an LRU of sealed pages bounds memory. An
//!   evicted page is appended, once, to the *segment* of its spill root:
//!   one append-only file per root per process, owned jointly
//!   (through an `Arc`) by every store that has spilled under that root and
//!   removed when the last of them drops — so a run with a store per DID
//!   holds one descriptor, and a dropped store's extents are dead space
//!   until then. Paging in is one positioned read of the page's extent.
//!   A block's CID lives in its page, not in memory: the index is the same
//!   table of 8-byte slots: ≈ 13 bytes per block over a
//!   study's repositories from 1:20000 to 1:500, where the `CidMap` it
//!   replaced took ≈ 57. A slot whose digest bits match is settled by the
//!   full CID in the page — paging an evicted page in, counted, if need be;
//!   the bits alone never count.
//!   *Verify on return:* a record read back from disk counts only if its
//!   header carries the slot's digest bits and its payload hashes to its
//!   CID, so a damaged, truncated or foreign segment can never feed bad
//!   bytes into the pipeline — such a block, like one whose page cannot be
//!   read at all, reads as absent and is counted.
//!
//!   Measured at seed 42, serial, reports byte-identical to `mem`: at
//!   1:2000 it peaks at 151 MB against `mem`'s 158 MB (−4 %), at 1:500 at
//!   602 MB against 641 MB (−6 %). Most of what it still holds there is
//!   pages: each repository keeps its open page and up to four sealed ones,
//!   unpacked. That is far short of the quarter below `mem` that a second
//!   backend has to buy, so ROADMAP item 4 records the verdict to delete it.
//! * [`WriteBackStore`] — a write-back cache wrapper: `put`s buffer in a
//!   resident dirty map until [`BlockStore::flush`], and a `delete` of a
//!   still-buffered block cancels the write before it ever reaches the
//!   backend. A read-modify-write chain that rewrites an entity N times
//!   between flushes therefore costs the backend a single `put` instead of
//!   N `put`/`delete` pairs. The AppView index wraps its counter store in
//!   one when it is built with write-back on, and flushes at its day
//!   boundaries; the study's world has no AppView, and only the
//!   benchmark's `paged_fed` workload builds one.
//!
//! ## Contract
//!
//! A `BlockStore` is a set of `(Cid, bytes)` pairs where the CID is the
//! content address of the bytes (DAG-CBOR or raw codec). `put` (or
//! `put_slice`) of an existing CID is a no-op (content-addressed stores are
//! idempotent); `get` returns exactly the bytes that were put or nothing.
//! A backend may rely on the CID being the bytes' hash: `MemStore` finds a
//! block by hashing it, so a block put under any other CID is never found.
//! Backends may move blocks between memory and disk freely but must never
//! lose or reorder them: for any op sequence, every backend is
//! observationally equivalent to `MemStore` (pinned by the oracle property
//! test below).
//!
//! Stores are built from a [`StoreConfig`], which is what the study CLI
//! (`repro --store mem|paged --page-size N --spill-dir DIR`) and the world
//! builders plumb through the stack.

use crate::cid::Cid;
use crate::crypto::{sha256, DIGEST_LEN};
use std::cell::{Cell, RefCell};
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
    /// that [`put`] takes; `MemStore` packs straight into its arena.
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
// The index both stores share
// ---------------------------------------------------------------------------

/// Slots of the smallest index table.
const MIN_TABLE: usize = 8;

/// How full an index table may get: seven eighths. A probe compares a tag
/// in the slot itself and reads a block only where the tags match, so a
/// longer run costs little, and the fuller table keeps its 8-byte slots
/// near 13 bytes per block on average.
const TABLE_FULL: (usize, usize) = (7, 8);

/// An index slot of either store: the block's [`slot_tag`] and where the
/// store keeps it — an arena offset in a [`MemStore`], a page-space position
/// in a [`PagedStore`]. Position 0 is never a block's (a byte of its record
/// comes first in both layouts), so the default slot is the empty one. Eight
/// bytes, and no CID.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    tag: u32,
    pos: u32,
}

/// A CID as a [`PagedStore`] record header holds it: the codec byte, then
/// the digest.
const CID_KEY: usize = 1 + DIGEST_LEN;

/// A CID's header bytes (see [`CID_KEY`]).
fn cid_key(cid: &Cid) -> [u8; CID_KEY] {
    let mut key = [0u8; CID_KEY];
    key[0] = cid.codec();
    key[1..].copy_from_slice(cid.digest());
    key
}

/// The digest bits a [`Slot`] keeps of a CID, given its header bytes: the
/// first four digest bytes, with the codec byte folded into the top one.
/// The low bits pick the home slot at any table length up to 2^32, so a
/// table grows and shifts without reading a block; all 32 filter probes, so
/// a block is read only where they match.
fn slot_tag(key: &[u8]) -> u32 {
    let mut head = [0u8; 4];
    head.copy_from_slice(&key[1..5]);
    u32::from_le_bytes(head) ^ (u32::from(key[0]) << 24)
}

/// Whether `blocks` entries fill no more than [`TABLE_FULL`] of a table of
/// `len` slots.
fn fits(blocks: usize, len: usize) -> bool {
    let (num, den) = TABLE_FULL;
    blocks * den <= len * num
}

/// Table slots for `blocks` entries: the smallest power of two, at least
/// [`MIN_TABLE`], that they fill no more than [`TABLE_FULL`] of.
fn table_len_for(blocks: usize) -> usize {
    let mut len = MIN_TABLE;
    while !fits(blocks, len) {
        len *= 2;
    }
    len
}

/// The first empty slot of the probe run that starts at `tag` in a table a
/// power of two long.
fn vacancy(table: &[Slot], tag: u32) -> usize {
    let mask = table.len() - 1;
    let mut slot = tag as usize & mask;
    while table[slot] != Slot::default() {
        slot = (slot + 1) & mask;
    }
    slot
}

/// The slots of `table`, rehashed by their tags into a fresh table of `len`
/// slots.
fn rehash(table: &[Slot], len: usize) -> Vec<Slot> {
    let mut fresh = vec![Slot::default(); len];
    for &slot in table.iter().filter(|&&slot| slot != Slot::default()) {
        let free = vacancy(&fresh, slot.tag);
        fresh[free] = slot;
    }
    fresh
}

/// Empty `slot` of a [`vacancy`]-style table and shift the rest of its probe
/// run back over it, so every later entry stays reachable from its home slot.
/// No tombstones are left behind.
fn unlink(table: &mut [Slot], mut slot: usize) {
    let mask = table.len() - 1;
    let mut next = slot;
    loop {
        next = (next + 1) & mask;
        let entry = table[next];
        if entry == Slot::default() {
            break;
        }
        let home = entry.tag as usize & mask;
        // The entry may move back to `slot` unless its home lies after
        // `slot` in the run (cyclically, within `slot + 1 ..= next`).
        if next.wrapping_sub(home) & mask >= next.wrapping_sub(slot) & mask {
            table[slot] = entry;
            slot = next;
        }
    }
    table[slot] = Slot::default();
}

/// Growth floor of an append buffer, so a small store does not reallocate
/// for every block.
const GROW_FLOOR: usize = 256;

/// Make room for `need` more bytes at the end of an append buffer: it grows
/// by a quarter of its length at a time (at least [`GROW_FLOOR`] and the
/// bytes asked for), not by doubling, so its spare capacity stays a quarter
/// of what it holds.
fn reserve(buf: &mut Vec<u8>, need: usize) {
    if buf.capacity() - buf.len() < need {
        let grow = (buf.len() / 4).max(GROW_FLOOR).max(need);
        buf.reserve_exact(grow);
    }
}

/// An arena offset, page-space position or block length as a store keeps
/// it: a store past 4 GiB stops here rather than wrap to a wrong offset.
fn span_u32(n: usize) -> u32 {
    u32::try_from(n).expect("block store exceeds 4 GiB")
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// The byte that opens a code in a packed payload. DAG-CBOR never uses it as
/// a head (it is the indefinite-length "break") and UTF-8 never contains it,
/// so a record block holds it only inside a byte string.
const ESCAPE: u8 = 0xFF;

/// The byte strings a [`MemStore`] packs a payload against, each replaced by
/// `[ESCAPE, index]`: the record keys of every lexicon the world writes and
/// the texts that recur in their values, each with its DAG-CBOR text head
/// (`e` is a 5-byte text, `r` an 18-byte one, `x\x18` a 24-byte one). One
/// fixed table, never stored: a packed payload means the same bytes in every
/// store and every run.
const LEXICON: [&[u8]; 39] = [
    // `$type` and its value, one entry per record type.
    b"e$typerapp.bsky.feed.post",
    b"e$typerapp.bsky.feed.like",
    b"e$typetapp.bsky.feed.repost",
    b"e$typeuapp.bsky.graph.follow",
    b"e$typetapp.bsky.graph.block",
    b"e$typevapp.bsky.actor.profile",
    b"e$typewapp.bsky.feed.generator",
    b"e$typex\x18app.bsky.labeler.service",
    b"e$typeucom.whtwnd.blog.entry",
    b"e$type",
    // `createdAt` and the year its 20-character timestamp starts with.
    b"icreatedAtt2022-",
    b"icreatedAtt2023-",
    b"icreatedAtt2024-",
    // The other record keys.
    b"gsubject",
    b"dtags",
    b"dtext",
    b"elangs",
    b"eembed",
    b"ereply",
    b"fparent",
    b"dkind",
    b"fimages",
    b"calt",
    b"imediaKind",
    b"curi",
    b"hexternal",
    b"frecord",
    b"cdid",
    b"kdescription",
    b"kdisplayName",
    b"ihasAvatar",
    b"ihasBanner",
    b"hpolicies",
    b"eblurs",
    b"evalue",
    b"hseverity",
    // Subjects: a record's AT URI, a DID.
    b"at://did:plc:",
    b"/app.bsky.feed.post/",
    b"did:plc:",
];

/// For each byte value, the [`LEXICON`] entries whose first byte
/// (`FIRST[b]`) or second byte (`SECOND[b]`) it is, as a bit set: an entry
/// can start only where the sets of the next two bytes both hold it.
const FIRST: [u64; 256] = entries_with_byte(0);
const SECOND: [u64; 256] = entries_with_byte(1);

const fn entries_with_byte(at: usize) -> [u64; 256] {
    assert!(LEXICON.len() <= 64 && LEXICON.len() < ESCAPE as usize);
    let mut sets = [0u64; 256];
    let mut i = 0;
    while i < LEXICON.len() {
        sets[LEXICON[i][at] as usize] |= 1 << i;
        i += 1;
    }
    sets
}

/// The longest [`LEXICON`] entry `rest` starts with.
fn longest_entry(rest: &[u8]) -> Option<usize> {
    let [first, second, ..] = *rest else {
        return None;
    };
    let mut candidates = FIRST[first as usize] & SECOND[second as usize];
    let mut best: Option<usize> = None;
    while candidates != 0 {
        let i = candidates.trailing_zeros() as usize;
        candidates &= candidates - 1;
        if rest.starts_with(LEXICON[i]) && best.is_none_or(|b| LEXICON[i].len() > LEXICON[b].len())
        {
            best = Some(i);
        }
    }
    best
}

/// Append `bytes`, packed: the longest [`LEXICON`] entry that starts at a
/// position becomes `[ESCAPE, index]`, a literal `ESCAPE` byte becomes
/// `[ESCAPE, ESCAPE]`, and every other byte is itself. So any byte string
/// packs, and unpacks to itself; at most `bytes.len()` plus one byte per
/// `ESCAPE` byte in it are appended.
fn pack(bytes: &[u8], out: &mut Vec<u8>) {
    // `bytes[run..at]` are literals not yet appended.
    let (mut run, mut at) = (0, 0);
    while at < bytes.len() {
        let entry = longest_entry(&bytes[at..]);
        if entry.is_none() && bytes[at] != ESCAPE {
            at += 1;
            continue;
        }
        out.extend_from_slice(&bytes[run..at]);
        match entry {
            Some(i) => {
                out.extend_from_slice(&[ESCAPE, i as u8]);
                at += LEXICON[i].len();
            }
            None => {
                out.extend_from_slice(&[ESCAPE, ESCAPE]);
                at += 1;
            }
        }
        run = at;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// The byte strings a packed payload stands for, in order: runs of literal
/// bytes and what each code expands to.
fn pieces(packed: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = packed;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        if rest[0] == ESCAPE {
            let code = rest[1];
            rest = &rest[2..];
            return Some(match code {
                ESCAPE => &[ESCAPE][..],
                i => LEXICON[i as usize],
            });
        }
        let run = rest.iter().position(|&b| b == ESCAPE).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(run);
        rest = tail;
        Some(run)
    })
}

/// The bytes a packed payload stands for, in one allocation.
fn unpack(packed: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(pieces(packed).map(<[u8]>::len).sum());
    pieces(packed).for_each(|piece| bytes.extend_from_slice(piece));
    bytes
}

/// Whether a packed payload stands for `bytes`, compared without unpacking.
fn unpacks_to(packed: &[u8], bytes: &[u8]) -> bool {
    let mut rest = Some(bytes);
    for piece in pieces(packed) {
        rest = rest.and_then(|rest| rest.strip_prefix(piece));
    }
    rest.is_some_and(<[u8]>::is_empty)
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Holes a [`MemStore`] arena tolerates before it may be rebuilt, however few
/// live bytes it holds: a small store is not recopied for every delete.
const HOLE_FLOOR: usize = 4 * 1024;

/// The longest length prefix of a [`MemStore`] record: a LEB128 `u32`.
const LEN_MAX: usize = 5;

/// The resident backend: every block packed into one append-only buffer
/// (the *arena*) as `[codec u8][packed length, LEB128][packed payload]`,
/// found through an open-addressed table of 8-byte [`Slot`]s. A block costs
/// its packed bytes (about half its payload, see [`pack`]), two or three
/// bytes of record head and one slot; no heap allocation and no CID of its
/// own.
///
/// *The table.* A slot holds a block's [`slot_tag`] and the offset of its
/// length prefix, just past its codec byte, so it is never 0. A CID probes
/// linearly from its tag. A slot whose tag matches is settled by the block
/// itself: `get`, `has` and `delete` take it only if its codec byte is the
/// CID's and its payload, unpacked, hashes to the CID's digest; `put` takes
/// it as the same block if the codecs match and the payload unpacks to the
/// bytes offered. So the 32 digest bits alone never count, and a CID that
/// differs from a stored one only in its codec misses. The table is a power
/// of two long and doubles before an insert would take it past seven eighths
/// full; a delete shifts the rest of its probe run back, so there are no
/// tombstones.
///
/// *The arena.* A delete leaves a hole; once the holes outweigh the live
/// records (and pass [`HOLE_FLOOR`]) the arena is rebuilt from the live
/// records, and the table with it, sized to what is left. So the arena never
/// holds more than twice its live bytes plus that floor. It grows by a
/// quarter of its length at a time (at least [`GROW_FLOOR`] and the room
/// one block can take), not by doubling, so its spare capacity stays a
/// quarter of what it holds.
///
/// `len`, `bytes` and `stats` count payloads, unpacked: packing, record
/// heads and the table are the store's overhead. Nothing iterates the table
/// towards output, so neither its layout nor the arena's reaches a report.
/// Also the oracle the paged backend is property-tested against (and itself
/// tested against an ordered model).
#[derive(Debug, Default)]
pub(crate) struct MemStore {
    /// Empty or a power of two long.
    table: Vec<Slot>,
    arena: Vec<u8>,
    /// Blocks held.
    len: usize,
    /// Live payload bytes, unpacked.
    bytes: usize,
    /// Arena bytes of the live records: `arena.len()` minus the holes.
    live: usize,
}

/// The record whose length prefix starts at `arena[pos]`: its codec byte,
/// its packed payload, and the arena range it spans, codec byte included.
fn mem_record(arena: &[u8], pos: u32) -> (u8, &[u8], std::ops::Range<usize>) {
    let pos = pos as usize;
    let (mut len, mut width) = (0usize, 0);
    loop {
        let byte = arena[pos + width];
        len |= usize::from(byte & 0x7f) << (7 * width);
        width += 1;
        if byte & 0x80 == 0 {
            break;
        }
    }
    let start = pos + width;
    (
        arena[pos - 1],
        &arena[start..start + len],
        pos - 1..start + len,
    )
}

/// Append `bytes` as a record's length prefix and packed payload. The
/// prefix is written as one byte, and widened once the packed length is
/// known to need more.
fn pack_record(bytes: &[u8], arena: &mut Vec<u8>) {
    let at = arena.len();
    arena.push(0);
    pack(bytes, arena);
    let (mut len, mut prefix, mut width) = (arena.len() - at - 1, [0u8; LEN_MAX], 0);
    loop {
        prefix[width] = (len & 0x7f) as u8;
        len >>= 7;
        width += 1;
        if len == 0 {
            break;
        }
        prefix[width - 1] |= 0x80;
    }
    if width > 1 {
        let end = arena.len();
        arena.extend_from_slice(&prefix[1..width]);
        arena.copy_within(at + 1..end, at + width);
    }
    arena[at..at + width].copy_from_slice(&prefix[..width]);
}

impl MemStore {
    /// An empty store.
    pub(crate) fn new() -> MemStore {
        MemStore::default()
    }

    /// The slot of the block whose tag is `tag` and that `same` accepts,
    /// given its codec byte and packed payload; or the empty slot the probe
    /// ends at. The table must not be empty.
    fn probe(
        &self,
        tag: u32,
        mut same: impl FnMut(u8, &[u8]) -> bool,
    ) -> std::result::Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == Slot::default() {
                return Err(slot);
            }
            if entry.tag == tag {
                let (codec, packed, _) = mem_record(&self.arena, entry.pos);
                if same(codec, packed) {
                    return Ok(slot);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot holding `cid`'s block, and its bytes: unpacked, and proven
    /// by their hash.
    fn find(&self, cid: &Cid) -> Option<(usize, Vec<u8>)> {
        if self.table.is_empty() {
            return None;
        }
        let mut found = None;
        let slot = self
            .probe(slot_tag(&cid_key(cid)), |codec, packed| {
                found = (codec == cid.codec())
                    .then(|| unpack(packed))
                    .filter(|bytes| sha256(bytes) == *cid.digest());
                found.is_some()
            })
            .ok()?;
        Some((slot, found?))
    }

    /// Copy the live records into a fresh, exact-size arena, and index them
    /// in a fresh table sized to them.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.live);
        let mut table = vec![Slot::default(); table_len_for(self.len)];
        for &slot in self.table.iter().filter(|&&slot| slot != Slot::default()) {
            let (_, _, span) = mem_record(&self.arena, slot.pos);
            let pos = span_u32(arena.len() + 1);
            arena.extend_from_slice(&self.arena[span]);
            let free = vacancy(&table, slot.tag);
            table[free] = Slot { tag: slot.tag, pos };
        }
        self.arena = arena;
        self.table = table;
    }
}

impl BlockStore for MemStore {
    fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
        self.find(cid).map(|(_, bytes)| bytes)
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        self.put_slice(cid, &bytes)
    }

    fn put_slice(&mut self, cid: Cid, bytes: &[u8]) -> bool {
        let (codec, tag) = (cid.codec(), slot_tag(&cid_key(&cid)));
        let same = |c, packed: &[u8]| c == codec && unpacks_to(packed, bytes);
        let slot = match (!self.table.is_empty()).then(|| self.probe(tag, same)) {
            Some(Ok(_)) => return false,
            Some(Err(slot)) if fits(self.len + 1, self.table.len()) => slot,
            _ => {
                self.table = rehash(&self.table, table_len_for(self.len + 1));
                vacancy(&self.table, tag)
            }
        };
        let escapes = bytes.iter().filter(|&&b| b == ESCAPE).count();
        reserve(&mut self.arena, 1 + LEN_MAX + bytes.len() + escapes);
        let start = self.arena.len();
        self.arena.push(codec);
        pack_record(bytes, &mut self.arena);
        self.table[slot] = Slot {
            tag,
            pos: span_u32(start + 1),
        };
        self.len += 1;
        self.bytes += bytes.len();
        self.live += self.arena.len() - start;
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.find(cid).is_some()
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let Some((slot, bytes)) = self.find(cid) else {
            return 0;
        };
        let len = bytes.len();
        self.live -= mem_record(&self.arena, self.table[slot].pos).2.len();
        unlink(&mut self.table, slot);
        self.len -= 1;
        self.bytes -= len;
        let holes = self.arena.len() - self.live;
        if holes > self.live && holes >= HOLE_FLOOR {
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

/// A [`PagedStore`] record header: the CID, then the payload length (`u32`,
/// little-endian).
const HEADER: usize = CID_KEY + 4;

/// The header key and the payload of the record whose payload starts at
/// `buf[at]`, or `None` when the buffer cannot hold such a record — which
/// only a page read back from disk can fail to do.
fn record(buf: &[u8], at: usize) -> Option<(&[u8], &[u8])> {
    let header = buf.get(at.checked_sub(HEADER)?..at)?;
    let (key, len) = header.split_at(CID_KEY);
    let len = u32::from_le_bytes(len.try_into().ok()?) as usize;
    Some((key, buf.get(at..at.checked_add(len)?)?))
}

/// A sealed page: the open page's records as they stood when it was sealed
/// (deleted ones included), immutable from then on.
#[derive(Debug)]
struct Page {
    /// Page-space position of the page's first byte.
    start: usize,
    /// The page's bytes while resident; `None` once evicted.
    buf: Option<Vec<u8>>,
    /// Whether `buf` was read back from the segment, so that a record in it
    /// is believed only once it proves itself (see [`Paged::candidate`]).
    from_disk: bool,
    /// Length of the buffer, kept for the page-in read.
    len: usize,
    /// Offset of the page's extent in the segment, once written.
    extent: Option<u64>,
    /// Payload bytes of the page's *live* blocks (index-reachable).
    live_bytes: usize,
}

/// What a slot whose tag matches says about a CID.
enum Candidate {
    /// The slot's record is the CID's block.
    Same,
    /// The record is another block's, whose digest bits are the same.
    Other,
    /// The record cannot be read or does not prove itself: it may be the
    /// CID's block, lost.
    Lost,
}

#[derive(Debug)]
struct Paged {
    page_size: usize,
    resident_cap: usize,
    spill_root: PathBuf,
    /// Opened on first spill.
    segment: Option<Arc<Segment>>,
    /// Open-addressed index of the live blocks: empty or a power of two
    /// long, linearly probed, at most [`TABLE_FULL`].
    table: Vec<Slot>,
    /// Live blocks.
    blocks: usize,
    /// Sealed pages by id, in page-space order; the open page comes after.
    pages: Vec<Page>,
    /// The open page, an append buffer of `[CID][len u32 LE][payload]`
    /// records — always resident, outside the LRU. A delete leaves its
    /// record in place: the page is sealed as it stands.
    open: Vec<u8>,
    /// Page-space position of the open page: the sealed pages' length.
    open_start: usize,
    /// Payload bytes of the open page's live blocks; the page is sealed
    /// once they reach `page_size`.
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
/// shared segment when first evicted.
///
/// A block is stored as `[CID 33 B][len u32 LE][payload]` in its page, so
/// its CID spills with its bytes. Memory
/// keeps per block one 8-byte [`Slot`]: 32 digest bits and the record's
/// position. A probe reads a page only where the digest bits match, and
/// then decides on the full CID it finds there — in the open page, in a
/// resident sealed page, or after paging an evicted one in (counted in
/// `spill_loads`; the page stays resident, as for any read). A record
/// from disk is believed only whole: its header must carry the slot's
/// digest bits and its payload must hash to its digest. One that cannot be
/// read or fails that check makes a lookup that finds nothing else read
/// as absent, and count a corrupt read.
///
/// Page space is addressed by `u32`, like a [`MemStore`] arena: a store
/// that has sealed 4 GiB of pages stops rather than wrap.
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
                table: Vec::new(),
                blocks: 0,
                pages: Vec::new(),
                open: Vec::new(),
                open_start: 0,
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
    /// The page holding the payload at page-space position `pos` — a sealed
    /// page's id, or `None` for the open page — and the payload's offset in
    /// that page.
    fn locate(&self, pos: u32) -> (Option<usize>, usize) {
        let pos = pos as usize;
        if pos > self.open_start {
            return (None, pos - self.open_start);
        }
        let id = self.pages.partition_point(|page| page.start < pos) - 1;
        (Some(id), pos - self.pages[id].start)
    }

    /// Whether the block at `slot`, whose tag matches, is the one `key`
    /// names: read its header from its page, paging an evicted page in.
    fn candidate(&mut self, slot: Slot, key: &[u8; CID_KEY]) -> Candidate {
        let same = |header: &[u8]| {
            if header == key {
                Candidate::Same
            } else {
                Candidate::Other
            }
        };
        let (page, at) = self.locate(slot.pos);
        let Some(id) = page else {
            return same(record(&self.open, at).expect("open record").0);
        };
        if self.pages[id].buf.is_none() {
            if !self.page_in(id as u32) {
                return Candidate::Lost;
            }
            self.lru.push_back(id as u32);
            self.enforce_cap();
        }
        let page = &self.pages[id];
        let buf = page.buf.as_deref().expect("page is resident");
        if !page.from_disk {
            return same(record(buf, at).expect("sealed record").0);
        }
        // Read-back verification: bytes that crossed the disk count only if
        // the record is whole, so a damaged, truncated or foreign segment
        // can never feed bad bytes into the pipeline.
        match record(buf, at) {
            Some((header, payload))
                if slot_tag(header) == slot.tag && sha256(payload)[..] == header[1..] =>
            {
                same(header)
            }
            _ => Candidate::Lost,
        }
    }

    /// The slot holding `key`, or the empty slot its probe ends at. The
    /// table must not be empty. A probe that finds nothing after passing a
    /// lost record counts a corrupt read: that record may have been the
    /// block.
    fn probe(&mut self, key: &[u8; CID_KEY]) -> std::result::Result<usize, usize> {
        let tag = slot_tag(key);
        let mask = self.table.len() - 1;
        let mut slot = tag as usize & mask;
        let mut lost = false;
        loop {
            let entry = self.table[slot];
            if entry == Slot::default() {
                self.corrupt_reads += u64::from(lost);
                return Err(slot);
            }
            if entry.tag == tag {
                match self.candidate(entry, key) {
                    Candidate::Same => return Ok(slot),
                    Candidate::Other => {}
                    Candidate::Lost => lost = true,
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot holding `cid`, if it is stored. Its page is resident when
    /// this returns.
    fn find(&mut self, cid: &Cid) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        self.probe(&cid_key(cid)).ok()
    }

    /// The page of the block at `slot` (`None`: the open page), which must
    /// be resident, and the block's payload.
    fn block(&self, slot: usize) -> (Option<usize>, &[u8]) {
        let (page, at) = self.locate(self.table[slot].pos);
        let buf = match page {
            None => &self.open,
            Some(id) => self.pages[id].buf.as_deref().expect("page is resident"),
        };
        (page, record(buf, at).expect("a found record is whole").1)
    }

    /// Append a new block to the open page, indexed at the empty `slot`,
    /// sealing the page once its live payloads reach the page size.
    fn append(&mut self, slot: usize, key: &[u8; CID_KEY], bytes: &[u8]) {
        reserve(&mut self.open, HEADER + bytes.len());
        self.open.extend_from_slice(key);
        self.open
            .extend_from_slice(&span_u32(bytes.len()).to_le_bytes());
        let pos = u32::try_from(self.open_start + self.open.len())
            .expect("PagedStore page space exceeds 4 GiB");
        self.table[slot] = Slot {
            tag: slot_tag(key),
            pos,
        };
        self.open.extend_from_slice(bytes);
        self.blocks += 1;
        self.open_bytes += bytes.len();
        self.logical_bytes += bytes.len();
        if self.open_bytes >= self.page_size {
            self.seal();
        }
    }

    /// Freeze the open page into a sealed one, queue it in the LRU and
    /// start a fresh open page.
    fn seal(&mut self) {
        let id = self.pages.len() as u32;
        let mut buf = std::mem::take(&mut self.open);
        buf.shrink_to_fit();
        let start = self.open_start;
        self.open_start += buf.len();
        self.pages.push(Page {
            start,
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
            blocks: self.blocks,
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
        let slot = inner.find(cid)?;
        let (page, bytes) = inner.block(slot);
        let bytes = bytes.to_vec();
        if let Some(id) = page {
            inner.touch(id as u32);
        }
        Some(bytes)
    }

    fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
        self.put_slice(cid, &bytes)
    }

    fn put_slice(&mut self, cid: Cid, bytes: &[u8]) -> bool {
        let inner = self.inner.get_mut();
        let key = cid_key(&cid);
        let room = fits(inner.blocks + 1, inner.table.len());
        let slot = match (!inner.table.is_empty()).then(|| inner.probe(&key)) {
            Some(Ok(_)) => return false,
            Some(Err(slot)) if room => slot,
            _ => {
                inner.table = rehash(&inner.table, table_len_for(inner.blocks + 1));
                vacancy(&inner.table, slot_tag(&key))
            }
        };
        inner.append(slot, &key, bytes);
        true
    }

    fn has(&self, cid: &Cid) -> bool {
        self.inner.borrow_mut().find(cid).is_some()
    }

    fn delete(&mut self, cid: &Cid) -> usize {
        let inner = self.inner.get_mut();
        let Some(slot) = inner.find(cid) else {
            return 0;
        };
        let (page, bytes) = inner.block(slot);
        let len = bytes.len();
        match page {
            Some(id) => inner.pages[id].live_bytes -= len,
            None => inner.open_bytes -= len,
        }
        unlink(&mut inner.table, slot);
        inner.blocks -= 1;
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
        self.inner.borrow().blocks
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

    /// Where a paged store keeps a block.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Where {
        Open,
        Resident,
        Evicted,
    }

    /// Where `cid` lives, read without changing the store: an evicted
    /// page's record header is read straight from the segment file. `None`
    /// when it is absent, or its header cannot be read.
    fn placement(store: &PagedStore, cid: &Cid) -> Option<Where> {
        let inner = store.inner.borrow();
        let key = cid_key(cid);
        let tagged = inner.table.iter().filter(|s| s.pos != 0);
        tagged.filter(|s| s.tag == slot_tag(&key)).find_map(|slot| {
            let (page, at) = inner.locate(slot.pos);
            let (header, found) = match page.map(|id| &inner.pages[id]) {
                None => (inner.open[at - HEADER..][..CID_KEY].to_vec(), Where::Open),
                Some(Page { buf: Some(buf), .. }) => {
                    (buf[at - HEADER..][..CID_KEY].to_vec(), Where::Resident)
                }
                Some(page) => {
                    let mut header = vec![0; CID_KEY];
                    let file = &inner.segment.as_ref()?.file;
                    let extent = page.extent? + (at - HEADER) as u64;
                    file.read_exact_at(&mut header, extent).ok()?;
                    (header, Where::Evicted)
                }
            };
            (header == key).then_some(found)
        })
    }

    /// The CIDs among `blocks` whose page is evicted right now.
    fn evicted(store: &PagedStore, blocks: &[(Cid, Vec<u8>)]) -> Vec<Cid> {
        let cids = blocks.iter().map(|(cid, _)| *cid);
        cids.filter(|cid| placement(store, cid) == Some(Where::Evicted))
            .collect()
    }

    /// Bytes the index of a paged store holds.
    fn index_bytes(store: &PagedStore) -> usize {
        store.inner.borrow().table.capacity() * std::mem::size_of::<Slot>()
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
    /// over a universe of real blocks that collide: [`TAG_TWINS`] pairs,
    /// which share all 32 digest bits a slot keeps, the first of each pair
    /// again under the other codec ([`codec_twin`]), which shares its home
    /// slot but not its tag, and random byte strings (escape bytes
    /// included) of up to 407 bytes. So probes really meet tag matches that
    /// only a hash settles, and puts meet them where only the bytes do.
    /// Deletes cross the compaction threshold many times, and after every op
    /// the arena (record heads and packed payloads) is within the bounds its
    /// compaction and growth rules promise, and the table within 128/7 bytes
    /// per record in the arena: its slots are 8 bytes, and it doubles only
    /// past seven eighths full. Summed over every op the table holds at most
    /// 20 bytes per live block; an index that kept each block's 33-byte CID
    /// could not.
    #[test]
    fn mem_store_matches_ordered_model_with_colliding_cids() {
        let mut rng = TestRng::new(0x00c0_111d);
        let (mut twin_lookups, mut compactions) = (0, 0);
        let (mut index_bytes, mut live_blocks) = (0, 0);
        for round in 0..12 {
            // Each block with the block its lookups collide with.
            let mut universe: Vec<(Cid, Vec<u8>, Option<Cid>)> = Vec::new();
            let pairs = 4 + rng.below(9) as usize;
            for &(a, b) in TAG_TWINS.iter().cycle().skip(round * 5).take(pairs) {
                let ((cid_a, bytes_a), (cid_b, bytes_b)) = (tag_block(a), tag_block(b));
                assert_ne!(cid_a, cid_b);
                assert_eq!(slot_tag(&cid_key(&cid_a)), slot_tag(&cid_key(&cid_b)));
                universe.push((codec_twin(&cid_a), bytes_a.clone(), Some(cid_a)));
                universe.push((cid_a, bytes_a, Some(cid_b)));
                universe.push((cid_b, bytes_b, Some(cid_a)));
            }
            for _ in 0..16 {
                let len = 8 + rng.below(400) as usize;
                let bytes = rng.bytes(len);
                universe.push((Cid::for_raw(&bytes), bytes, None));
            }
            let largest = universe.iter().map(|(_, b, _)| b.len()).max().unwrap();
            let mut store = MemStore::new();
            let mut model: BTreeMap<Cid, Vec<u8>> = BTreeMap::new();
            for _ in 0..2_400 {
                let (cid, bytes, twin) = &universe[rng.below(universe.len() as u64) as usize];
                if twin.is_some_and(|twin| model.contains_key(&twin)) {
                    twin_lookups += 1;
                }
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
                for (cid, _, _) in &universe {
                    assert_eq!(store.get(cid), model.get(cid).cloned());
                }
                let payloads = model.values().map(Vec::len).sum::<usize>();
                assert_eq!(store.len(), model.len());
                assert_eq!(store.bytes(), payloads);
                let live = model.values().map(|bytes| record_len(bytes)).sum::<usize>();
                let (len, cap) = (store.arena.len(), store.arena.capacity());
                assert!(
                    len - live <= live.max(HOLE_FLOOR - 1),
                    "{len}-byte arena for {live} live bytes"
                );
                assert!(
                    cap - len <= (len / 4).max(GROW_FLOOR).max(1 + LEN_MAX + 2 * largest),
                    "{cap}-byte arena capacity for {len} bytes"
                );
                let records = arena_records(&store);
                assert!(records >= model.len());
                let index = store.table.capacity() * std::mem::size_of::<Slot>();
                assert!(
                    7 * index <= (128 * records).max(7 * 8 * MIN_TABLE),
                    "{index}-byte table for {records} records"
                );
                index_bytes += index;
                live_blocks += model.len();
            }
            for (cid, _, _) in &universe {
                assert_eq!(store.get(cid), model.get(cid).cloned());
                assert_eq!(store.has(cid), model.contains_key(cid));
            }
        }
        assert!(twin_lookups > 5_000, "ops that met a twin: {twin_lookups}");
        assert!(compactions > 60, "arena compactions: {compactions}");
        assert!(
            index_bytes <= 20 * live_blocks,
            "{index_bytes} table bytes over {live_blocks} live blocks, summed over every op"
        );
    }

    /// The arena bytes a block's record takes: codec byte, length prefix
    /// and packed payload.
    fn record_len(bytes: &[u8]) -> usize {
        let mut record = Vec::new();
        pack_record(bytes, &mut record);
        1 + record.len()
    }

    /// Walk a [`MemStore`] arena record by record, checking that the walk
    /// ends exactly at its end and that every table slot points at one of
    /// its records; returns the number of records, live and dead.
    fn arena_records(store: &MemStore) -> usize {
        let mut records = std::collections::BTreeSet::new();
        let mut at = 0;
        while at < store.arena.len() {
            let pos = span_u32(at + 1);
            records.insert(pos);
            at = mem_record(&store.arena, pos).2.end;
        }
        assert_eq!(at, store.arena.len(), "the last record overruns the arena");
        let slots = store.table.iter().filter(|&&slot| slot != Slot::default());
        assert!(slots.clone().all(|slot| records.contains(&slot.pos)));
        assert_eq!(slots.count(), store.len());
        records.len()
    }

    /// One block of every record kind the world writes, in the shapes it
    /// writes them: posts plain, with images, a link card, a quote or a
    /// reply; likes of a post and of a feed; reposts, follows, blocks,
    /// profiles, feed generator and labeler declarations, and a third-party
    /// record.
    fn world_blocks() -> Vec<Vec<u8>> {
        use crate::aturi::AtUri;
        use crate::cbor::Value;
        use crate::datetime::Datetime;
        use crate::did::Did;
        use crate::nsid::{known, Nsid};
        use crate::record::*;
        let when = Datetime::from_ymd_hms(2023, 6, 19, 5, 22, 21).unwrap();
        let alice = Did::plc_from_seed(b"alice");
        let post_uri = AtUri::record(
            alice.clone(),
            Nsid::parse(known::POST).unwrap(),
            "p00214s00",
        );
        let feed_uri = AtUri::record(
            alice.clone(),
            Nsid::parse(known::FEED_GENERATOR).unwrap(),
            "feed000001",
        );
        let post = |embed, reply_parent| {
            Record::Post(PostRecord {
                embed,
                reply_parent,
                tags: vec!["news".into()],
                ..PostRecord::simple("ja post about news #news", "ja", when)
            })
        };
        let images = Embed::Images(vec![
            ImageEmbed {
                alt: Some("an image about news".into()),
                kind: MediaKind::Photo,
            },
            ImageEmbed {
                alt: None,
                kind: MediaKind::Artwork,
            },
        ]);
        let records = [
            post(None, None),
            post(Some(images), None),
            post(
                Some(Embed::External {
                    uri: "https://example.com/news".into(),
                }),
                None,
            ),
            post(Some(Embed::Record(post_uri.clone())), None),
            post(None, Some(post_uri.clone())),
            Record::Like(LikeRecord {
                subject: post_uri.clone(),
                created_at: when,
            }),
            Record::Like(LikeRecord {
                subject: feed_uri,
                created_at: Datetime::from_ymd(2024, 2, 1).unwrap(),
            }),
            Record::Repost(RepostRecord {
                subject: post_uri,
                created_at: when,
            }),
            Record::Follow(FollowRecord {
                subject: alice.clone(),
                created_at: when,
            }),
            Record::Block(BlockRecord {
                subject: alice,
                created_at: Datetime::from_ymd(2022, 12, 1).unwrap(),
            }),
            Record::Profile(ProfileRecord {
                display_name: "lunarcomet23".into(),
                description: "posting in pt".into(),
                has_avatar: true,
                has_banner: false,
                created_at: when,
            }),
            Record::FeedGenerator(FeedGeneratorRecord {
                service_did: Did::parse("did:web:skyfeed.app").unwrap(),
                display_name: "furry-00001".into(),
                description: "a feed collecting posts about furry".into(),
                created_at: when,
            }),
            Record::LabelerService(LabelerServiceRecord {
                policies: vec![LabelValueDefinition {
                    value: "spoiler".into(),
                    severity: "inform".into(),
                    blurs: "content".into(),
                }],
                created_at: when,
            }),
            Record::Unknown(UnknownRecord {
                record_type: Nsid::WHTWND_ENTRY,
                value: Value::map([
                    ("$type", Value::text(known::WHTWND_ENTRY)),
                    ("title", Value::text("long-form thoughts")),
                    ("createdAt", Value::text(when.to_iso8601())),
                ]),
            }),
            Record::Unknown(UnknownRecord {
                record_type: Nsid::parse("com.example.note").unwrap(),
                value: Value::map([("$type", Value::text("com.example.note"))]),
            }),
        ];
        records.iter().map(Record::to_cbor).collect()
    }

    /// Every kind of record block round-trips byte for byte through packing
    /// and through a store, packs to well under its size, and together they
    /// use every [`LEXICON`] entry, so the table holds no entry that the
    /// record encoders do not write.
    #[test]
    fn packing_round_trips_every_record_kind_the_world_writes() {
        let blocks = world_blocks();
        let mut used = vec![false; LEXICON.len()];
        let (mut raw, mut packed_total) = (0, 0);
        let mut store = MemStore::new();
        for bytes in &blocks {
            let mut packed = Vec::new();
            pack(bytes, &mut packed);
            assert_eq!(&unpack(&packed), bytes);
            assert!(unpacks_to(&packed, bytes));
            (raw, packed_total) = (raw + bytes.len(), packed_total + packed.len());
            let mut rest = &packed[..];
            while let Some(at) = rest.iter().position(|&b| b == ESCAPE) {
                if let Some(entry) = used.get_mut(usize::from(rest[at + 1])) {
                    *entry = true;
                }
                rest = &rest[at + 2..];
            }
            let cid = Cid::for_cbor(bytes);
            assert!(store.put_slice(cid, bytes));
            assert_eq!(store.get(&cid).as_ref(), Some(bytes));
        }
        assert_eq!(store.bytes(), raw);
        assert!(
            5 * packed_total < 3 * raw,
            "{raw} bytes packed to {packed_total}"
        );
        let unused: Vec<_> = (0..LEXICON.len()).filter(|&i| !used[i]).collect();
        assert!(
            unused.is_empty(),
            "entries no record block uses: {unused:?}"
        );
    }

    /// Any byte string round-trips: the empty one, runs of the escape byte
    /// anywhere, every entry cut short (alone, before an escape byte, before
    /// the entry itself), entries back to back, and random strings; a packed
    /// payload stands for its own bytes and no others; and a record's length
    /// prefix widens where the packed length needs it.
    #[test]
    fn packing_round_trips_arbitrary_bytes() {
        let mut cases: Vec<Vec<u8>> = vec![Vec::new()];
        for n in 1..6 {
            let run = vec![ESCAPE; n];
            cases.extend([
                run.clone(),
                [b"e$type", &run[..]].concat(),
                [&run[..], b"dtext"].concat(),
            ]);
            cases.push([&run[..], b"x", &run[..]].concat());
        }
        for entry in LEXICON {
            for cut in 1..entry.len() {
                let short = &entry[..cut];
                cases.extend([
                    short.to_vec(),
                    [short, &[ESCAPE]].concat(),
                    [short, entry].concat(),
                ]);
            }
            cases.push([entry, entry, &[ESCAPE, 0, 1]].concat());
        }
        cases.push(LEXICON.concat());
        let mut rng = TestRng::new(0x9ac4);
        for _ in 0..500 {
            let len = rng.below(300) as usize;
            let mut bytes = rng.bytes(len);
            // Splice lexicon text and escape bytes into the noise.
            for _ in 0..rng.below(4) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let entry = LEXICON[rng.below(LEXICON.len() as u64) as usize];
                let piece = &entry[..1 + rng.below(entry.len() as u64) as usize];
                bytes.splice(at..at, piece.iter().copied().chain([ESCAPE]));
            }
            cases.push(bytes);
        }
        for bytes in &cases {
            let mut packed = Vec::new();
            pack(bytes, &mut packed);
            let escapes = bytes.iter().filter(|&&b| b == ESCAPE).count();
            assert!(packed.len() <= bytes.len() + escapes, "{bytes:?}");
            assert_eq!(&unpack(&packed), bytes);
            assert!(unpacks_to(&packed, bytes));
            if let Some((_, shorter)) = bytes.split_last() {
                assert!(!unpacks_to(&packed, shorter));
                let mut changed = bytes.clone();
                changed[0] ^= 1;
                assert!(!unpacks_to(&packed, &changed));
            }
            assert!(!unpacks_to(&packed, &[bytes.as_slice(), b"!"].concat()));
        }
        for len in [0, 1, 127, 128, 200, 16_383, 16_384, 70_000] {
            let bytes = vec![b'z'; len];
            let mut arena = vec![0x55];
            pack_record(&bytes, &mut arena);
            let (codec, packed, span) = mem_record(&arena, 1);
            assert_eq!((codec, span), (0x55, 0..arena.len()));
            assert_eq!(unpack(packed), bytes);
            let width = arena.len() - 1 - len;
            assert_eq!(
                width,
                1 + usize::from(len >= 128) + usize::from(len >= 16_384)
            );
        }
    }

    /// Each [`TAG_TWINS`] pair, whose blocks share every digest bit a slot
    /// keeps, in a store of its own: whichever is stored, the other reads as
    /// absent to `get`, `has` and `delete`; once both are stored each reads
    /// its own bytes, a second put of either stores nothing, and deleting one
    /// leaves the other.
    #[test]
    fn mem_store_settles_tag_twins_by_hash_and_bytes() {
        for (i, &(a, b)) in TAG_TWINS.iter().enumerate() {
            let (mut first, mut second) = (tag_block(a), tag_block(b));
            if i % 2 == 1 {
                std::mem::swap(&mut first, &mut second);
            }
            let ((cid_1, bytes_1), (cid_2, bytes_2)) = (first, second);
            assert_eq!(slot_tag(&cid_key(&cid_1)), slot_tag(&cid_key(&cid_2)));
            let mut store = MemStore::new();
            assert!(store.put_slice(cid_1, &bytes_1));
            assert_eq!(store.get(&cid_2), None);
            assert!(!store.has(&cid_2));
            assert_eq!(store.delete(&cid_2), 0);
            assert!(store.put(cid_2, bytes_2.clone()));
            assert!(!store.put(cid_1, bytes_1.clone()));
            assert!(!store.put_slice(cid_2, &bytes_2));
            assert_eq!(store.len(), 2);
            assert_eq!(store.bytes(), bytes_1.len() + bytes_2.len());
            assert_eq!(arena_records(&store), 2, "each stored once");
            assert_eq!(store.get(&cid_1).as_ref(), Some(&bytes_1));
            assert_eq!(store.get(&cid_2).as_ref(), Some(&bytes_2));
            assert_eq!(store.delete(&cid_1), bytes_1.len());
            assert!(!store.has(&cid_1));
            assert_eq!(store.get(&cid_2).as_ref(), Some(&bytes_2));
        }
    }

    /// The same bytes under the other codec are another block: it misses
    /// while only the first is stored, and stored beside it, each answers
    /// for itself.
    #[test]
    fn mem_store_codec_twin_misses() {
        let (cid, bytes) = tag_block(TAG_TWINS[0].0);
        let twin = codec_twin(&cid);
        assert_eq!(twin.digest(), cid.digest());
        let mut store = MemStore::new();
        assert!(store.put(cid, bytes.clone()));
        assert_eq!(store.get(&twin), None);
        assert!(!store.has(&twin));
        assert_eq!(store.delete(&twin), 0);
        assert!(
            store.put_slice(twin, &bytes),
            "a codec twin is not the block"
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.delete(&cid), bytes.len());
        assert_eq!(store.get(&cid), None);
        assert_eq!(store.get(&twin), Some(bytes));
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
        let blocks_b = fill(&mut store_b, 1000, 12);
        store_a.evict_cold();
        store_b.evict_cold();
        let (segment_a, segment_b) = (segment_path(&store_a), segment_path(&store_b));
        assert_ne!(segment_a.parent(), segment_b.parent());
        let spilled_b = evicted(&store_b, &blocks_b);
        assert!(!spilled_b.is_empty());
        // The collision: root A's segment is planted at root B's path, over
        // the file store B holds open. Same layout, foreign bytes.
        std::fs::copy(&segment_a, &segment_b).expect("plant foreign segment");
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
        // Flip the first byte of every spilled page, the codec byte of its
        // first record's CID, and its last, the end of its last record's
        // payload (24-byte blocks seal a 64-byte page at three): those two
        // blocks must read as absent, never as wrong bytes, and the one
        // between them — verified on its own — must still read exactly.
        let path = segment_path(&store);
        let mut raw = std::fs::read(&path).unwrap();
        let extents: Vec<(u64, usize)> = {
            let inner = store.inner.borrow();
            let pages = inner.pages.iter();
            pages.filter_map(|p| Some((p.extent?, p.len))).collect()
        };
        assert!(!extents.is_empty());
        for &(at, len) in &extents {
            raw[at as usize] ^= 0xff;
            raw[at as usize + len - 1] ^= 0x01;
        }
        std::fs::write(&path, &raw).unwrap();
        let mut missing = 0;
        for (cid, bytes) in &blocks {
            match store.get(cid) {
                Some(read) => assert_eq!(&read, bytes, "corrupt bytes surfaced"),
                None => missing += 1,
            }
        }
        let damaged = 2 * extents.len();
        assert_eq!(missing, damaged, "two damaged blocks per page");
        assert_eq!(store.stats().corrupt_reads, damaged as u64);
    }

    #[test]
    fn truncated_segment_reads_as_absent_and_counted() {
        let mut store = PagedStore::new(&private_config("truncated"));
        let blocks = fill(&mut store, 0, 40);
        let spilled = evicted(&store, &blocks);
        assert!(!spilled.is_empty());
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
        }
        assert_eq!(
            missing,
            spilled.len(),
            "exactly the evicted blocks are lost"
        );
        let after = store.stats();
        assert_eq!(
            after.corrupt_reads,
            spilled.len() as u64,
            "every loss counted"
        );
        assert_eq!(
            (after.resident_bytes, after.spilled_bytes),
            (before.resident_bytes, before.spilled_bytes),
            "a failed page-in makes nothing resident"
        );
        // Without its header a lost block's CID cannot be proven: it is
        // absent to every lookup, and each one counts.
        for (cid, _) in &blocks {
            assert_eq!(store.has(cid), !spilled.contains(cid));
            if spilled.contains(cid) {
                assert_eq!(store.delete(cid), 0, "nothing to prove it by");
            }
        }
        assert_eq!(store.stats().corrupt_reads, 3 * spilled.len() as u64);
        assert_eq!(store.len(), blocks.len(), "the index is untouched");
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
                        match placement(&paged, cid) {
                            Some(Where::Resident) => sealed_deletes += 1,
                            Some(Where::Evicted) => spilled_deletes += 1,
                            _ => {}
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

    /// Pairs of seeds whose [`tag_block`]s share their first four digest
    /// bytes, and so their slot tags, found by a birthday search over the
    /// seeds below 662 309. The tests assert that every pair still does.
    const TAG_TWINS: [(u64, u64); 24] = [
        (45_733, 54_154),
        (62_893, 97_706),
        (119_064, 124_763),
        (28_968, 152_348),
        (14_922, 153_411),
        (7_661, 157_951),
        (206_663, 214_957),
        (31_632, 228_320),
        (63_954, 236_907),
        (86_397, 241_528),
        (7_800, 325_617),
        (318_796, 340_035),
        (10_221, 367_449),
        (130_613, 375_734),
        (266_216, 376_441),
        (156_694, 384_231),
        (273_958, 404_802),
        (67_575, 405_981),
        (272_492, 430_098),
        (417_446, 430_823),
        (47_630, 466_005),
        (248_554, 470_561),
        (275_407, 470_750),
        (193_498, 489_851),
    ];

    /// The block of seed `n` as the [`TAG_TWINS`] search built it: 16 to 63
    /// bytes under a raw CID.
    fn tag_block(n: u64) -> (Cid, Vec<u8>) {
        block(n, 16 + (n % 48) as usize)
    }

    /// The same bytes under the other codec: the same digest, so the same
    /// home slot in any table below 2^24 slots, but another tag.
    fn codec_twin(cid: &Cid) -> Cid {
        let mut raw = cid.to_array();
        raw[1] ^= 0x24; // raw <-> dag-cbor
        Cid::from_bytes(&raw).unwrap()
    }

    /// The paged store against an ordered model, over a universe where every
    /// CID shares its slot's 32 digest bits with another block ([`TAG_TWINS`])
    /// or its home slot with the same bytes under the other codec, so that
    /// probes match tags on blocks that are not the one asked for — in the
    /// open page, in resident pages and in evicted ones, where a page-in
    /// settles the match. Any interleaving of put / put_slice / get / has /
    /// delete / `evict_cold` agrees with a `BTreeMap<Cid, Vec<u8>>`, every
    /// live byte is resident or spilled, and nothing reads as corrupt.
    ///
    /// The index holds one 8-byte slot per table entry. It never outgrows
    /// the table the round's peak needs, and while the store only grows —
    /// as a repository's store does, its writes being create-only — its
    /// slots hold at most 16 bytes per live block, summed over those ops.
    /// (Deletes leave the table at its peak size, as they left the hash map
    /// it replaces.) A `CidMap<Loc>` index — a 33-byte CID and a 12-byte
    /// location padded to 48 bytes, plus a control byte per bucket, at most
    /// seven eighths full — holds 56 bytes or more per live block and fails
    /// that bound.
    #[test]
    fn paged_store_matches_ordered_model_with_tag_twins() {
        let mut rng = TestRng::new(0x7a6_7015);
        let (mut twin_page_ins, mut index_total, mut live_total) = (0, 0, 0);
        for round in 0..12 {
            let config = StoreConfig::paged()
                .page_size(64 + rng.below(192) as usize)
                .resident_pages(1 + rng.below(2) as usize)
                .spill_dir(tmp_root());
            let mut store = PagedStore::new(&config);
            let mut model: BTreeMap<Cid, Vec<u8>> = BTreeMap::new();
            let mut universe = Vec::new();
            let pairs = 4 + rng.below(21) as usize;
            for &(a, b) in TAG_TWINS.iter().cycle().skip(round * 5).take(pairs) {
                let ((cid_a, bytes_a), (cid_b, bytes_b)) = (tag_block(a), tag_block(b));
                assert_ne!(cid_a, cid_b);
                assert_eq!(slot_tag(&cid_key(&cid_a)), slot_tag(&cid_key(&cid_b)));
                universe.push((codec_twin(&cid_a), bytes_a.clone()));
                universe.extend([(cid_a, bytes_a), (cid_b, bytes_b)]);
            }
            let mut peak = 0;
            for op in 0..1_500 {
                let (cid, bytes) = &universe[rng.below(universe.len() as u64) as usize];
                let loads = store.stats().spill_loads;
                // The first third only grows the store, as a repository
                // grows; deletes join after it.
                let growing = op < 500;
                match rng.below(if growing { 16 } else { 20 }) {
                    0..=5 => {
                        let fresh = !model.contains_key(cid);
                        model.entry(*cid).or_insert_with(|| bytes.clone());
                        assert_eq!(store.put(*cid, bytes.clone()), fresh, "put disagrees");
                    }
                    6..=9 => {
                        let fresh = !model.contains_key(cid);
                        model.entry(*cid).or_insert_with(|| bytes.clone());
                        assert_eq!(store.put_slice(*cid, bytes), fresh, "put_slice disagrees");
                    }
                    10..=12 => assert_eq!(store.get(cid), model.get(cid).cloned()),
                    13..=14 => assert_eq!(store.has(cid), model.contains_key(cid)),
                    15 => store.evict_cold(),
                    _ => {
                        let removed = model.remove(cid).map_or(0, |b| b.len());
                        assert_eq!(store.delete(cid), removed, "delete disagrees");
                    }
                }
                // A lookup of an absent CID pages in only for a tag match.
                if !model.contains_key(cid) && store.stats().spill_loads > loads {
                    twin_page_ins += 1;
                }
                let stats = store.stats();
                assert_eq!(store.len(), model.len());
                assert_eq!(store.bytes(), model.values().map(Vec::len).sum::<usize>());
                assert_eq!(
                    stats.resident_bytes + stats.spilled_bytes,
                    stats.logical_bytes
                );
                peak = peak.max(model.len());
                let index = index_bytes(&store);
                assert!(index <= std::mem::size_of::<Slot>() * table_len_for(peak));
                if growing {
                    index_total += index;
                    live_total += model.len();
                }
            }
            for (cid, _) in &universe {
                assert_eq!(store.get(cid), model.get(cid).cloned());
                assert_eq!(store.has(cid), model.contains_key(cid));
            }
            assert_eq!(store.stats().corrupt_reads, 0);
        }
        assert!(
            twin_page_ins > 500,
            "tag matches settled by a page-in: {twin_page_ins}"
        );
        assert!(
            index_total <= 16 * live_total,
            "{index_total} index bytes over {live_total} live blocks, summed over the growing ops"
        );
    }

    /// A tag match on a block in an evicted page is settled by one counted
    /// page-in, and the block that matched is never served for the CID asked
    /// for; once both twins are stored, each reads its own bytes wherever
    /// the two live.
    #[test]
    fn tag_match_in_an_evicted_page_is_settled_by_a_counted_page_in() {
        let (a, b) = TAG_TWINS[0];
        let ((cid_a, bytes_a), (cid_b, bytes_b)) = (tag_block(a), tag_block(b));
        assert_eq!(slot_tag(&cid_key(&cid_a)), slot_tag(&cid_key(&cid_b)));
        let mut store = PagedStore::new(&paged_config());
        assert!(store.put(cid_a, bytes_a.clone()));
        fill(&mut store, 0, 8);
        store.evict_cold();
        assert_eq!(placement(&store, &cid_a), Some(Where::Evicted));

        let loads = store.stats().spill_loads;
        assert_eq!(store.get(&cid_b), None, "a tag match alone never counts");
        assert_eq!(store.stats().spill_loads, loads + 1, "one counted page-in");
        assert_eq!(placement(&store, &cid_a), Some(Where::Resident));
        store.evict_cold();
        assert!(!store.has(&cid_b));
        assert_eq!(store.delete(&cid_b), 0);
        assert_eq!(store.stats().spill_loads, loads + 2);
        assert_eq!(store.len(), 9, "the page-ins changed nothing else");

        assert!(store.put_slice(cid_b, &bytes_b), "B is not A");
        for round in 0..2 {
            assert_eq!(store.get(&cid_a).as_ref(), Some(&bytes_a));
            assert_eq!(store.get(&cid_b).as_ref(), Some(&bytes_b));
            fill(&mut store, 100 + 4 * round, 4);
            store.evict_cold();
        }
        assert_eq!(store.delete(&cid_a), bytes_a.len());
        assert_eq!(store.get(&cid_a), None);
        assert_eq!(store.get(&cid_b).as_ref(), Some(&bytes_b));
        assert_eq!(store.stats().corrupt_reads, 0);
    }
}
