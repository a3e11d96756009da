//! User data repositories.
//!
//! A repository is the signed, content-addressed store of all of a user's
//! public records (§2, "User Data Repositories"). Updates happen through
//! *commits*: each commit points at the new MST root, carries a monotonically
//! increasing revision TID and is signed with a key from the owner's DID
//! document.
//!
//! A repository only ever creates records: [`Write`] has one variant,
//! `Create`, and a batch is checked whole before it touches anything (every
//! key valid, absent and named once), so a write can neither replace nor
//! remove a record and a batch that passes cannot fail half-way. The §3
//! dataset counts created records; the paper's discussion of record
//! versions outliving their deletion (a GDPR concern) is out of this
//! model's scope.
//!
//! Each commit additionally logs the record blocks it introduced and the MST
//! node CIDs that joined and left the tree, so [`Repository::export_car_since`]
//! can serve the `com.atproto.sync.getRepo(did, since=rev)` delta path —
//! only the blocks created after a known revision — and
//! [`Repository::apply_delta`] lets a mirror reassemble the full archive from
//! a cached CAR plus such a delta.
//!
//! ## Storage and the delta-serving window
//!
//! Record blocks, and only record blocks, live behind the pluggable
//! [`crate::blockstore::BlockStore`] trait ([`Repository::with_store`]): the
//! in-memory default, or a paged store that spills cold pages to disk and
//! verifies every read-back by CID. The MST is the one copy of the tree:
//! deltas only ever ship *current* nodes, so no node block is kept for a
//! past revision, and an export encodes the live nodes from the tree while
//! it writes the archive. Beside the tree the repository keeps only the
//! per-commit CID log resident, so its block memory is governed by the store
//! backend. Since no key is ever removed or rewritten, the store holds
//! exactly the tree's distinct values, and no block needs a reference count.
//!
//! Order exists only where it reaches bytes or a store's read order, and is
//! made there: a full export sorts the record CIDs it frames (the tree's
//! distinct values), a delta export stages its blocks in a CID-ordered map,
//! and the archive parsers collect into ordered maps.
//!
//! A commit costs its batch, not its repository: the MST is updated in
//! place, hashing only the leaf-to-root paths the batch touched, and hands
//! back the node-set change (CIDs that joined the live tree, CIDs that left
//! it), which the commit logs and nothing else keeps.
//!
//! ## Compaction
//!
//! [`Repository::compact_before`] bounds the grow-only history: commits (and
//! their log entries) older than a cutoff revision leave the delta-serving
//! window, and the store demotes its cold pages. No record block goes:
//! every one is the value of a key that stays. The invariant:
//! [`Repository::export_car_since`] still serves every retained
//! revision exactly; a request since a compacted revision fails with
//! [`AtError::RevisionCompacted`] so the caller can fall back to a full CAR
//! fetch *visibly* (the study pipeline surfaces these fallbacks in its
//! stream summary rather than hiding them). A pass costs the commits that
//! aged out, never the repository.
//!
//! ## CAR archives
//!
//! There is one reader and one writer. [`CarReader`] is a borrowed,
//! single-pass iterator over an archive's blocks that owns all the framing
//! rules and verifies every block against its CID with one digest;
//! [`Repository::parse_car`] collects it, [`Repository::apply_delta`] merges
//! two of them as borrowed slices (each block is copied once, into the
//! output) and the study's repository mirror classifies blocks straight off
//! it. A full export frames each block into the output buffer as the tree
//! encodes it or the store returns it. A delta export still stages what it
//! gathers: its archive is in CID order while the tree walk runs children
//! first and its store reads run in log order, and a paged store's
//! residency follows its read order.

use crate::blockstore::{BlockStore, StoreStats};
use crate::cbor::{self, raw, Value};
use crate::cid::{Cid, CidMap, CID_LEN, CODEC_DAG_CBOR, CODEC_RAW};
use crate::crypto::{sha256, Signature, SigningKey};
use crate::datetime::Datetime;
use crate::did::Did;
use crate::error::{AtError, Result};
use crate::mst::{validate_key, Mst};
use crate::nsid::Nsid;
use crate::record::Record;
use crate::tid::{Tid, TidClock};
use std::collections::BTreeMap;

/// A signed repository commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// The repository owner.
    pub(crate) did: Did,
    /// Commit format version (3 in the live network).
    pub(crate) version: u8,
    /// MST root CID after this commit.
    pub(crate) data: Cid,
    /// Revision TID, strictly increasing per repository.
    pub rev: Tid,
    /// CID of the previous commit, if any.
    pub(crate) prev: Option<Cid>,
    /// Signature over the unsigned commit bytes.
    pub(crate) sig: Signature,
}

impl Commit {
    /// The bytes that are signed (everything except the signature).
    pub(crate) fn unsigned_bytes(&self) -> Vec<u8> {
        self.encode(false)
    }

    /// Full signed encoding.
    pub(crate) fn to_cbor(&self) -> Vec<u8> {
        self.encode(true)
    }

    /// The one commit writer: the map `{did, rev, [sig,] data, prev,
    /// version}` in canonical key order, typed and in one pass (the bytes
    /// `cbor::encode` gives for the same map built as a `Value`).
    fn encode(&self, signed: bool) -> Vec<u8> {
        let mut buf = Vec::with_capacity(208);
        let out = &mut buf;
        raw::map_head(5 + signed as u64, out);
        raw::text("did", out);
        raw::text_head(self.did.string_len(), out);
        self.did.write_to(out);
        raw::text("rev", out);
        raw::text_head(self.rev.string_len(), out);
        self.rev.write_to(out);
        if signed {
            raw::text("sig", out);
            raw::bytes(&self.sig.0, out);
        }
        raw::text("data", out);
        raw::link(&self.data, out);
        raw::text("prev", out);
        match &self.prev {
            Some(prev) => raw::link(prev, out),
            None => raw::null(out),
        }
        raw::text("version", out);
        raw::uint(self.version as u64, out);
        buf
    }
}

/// A single record operation inside a commit: a record created.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordOp {
    /// Repository key `<collection>/<rkey>`.
    pub key: String,
    /// CID of the new record block.
    pub cid: Cid,
}

impl RecordOp {
    /// The collection component of the key.
    pub fn collection(&self) -> &str {
        self.key.split('/').next().unwrap_or(&self.key)
    }
}

/// A write request handed to [`Repository::apply_writes`]. A repository
/// only ever creates records: there is no update and no delete, so a key,
/// once written, keeps its record for the life of the repository.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Write {
    /// Create a new record under a collection and rkey.
    Create {
        /// Collection NSID.
        collection: Nsid,
        /// Record key.
        rkey: String,
        /// The record.
        record: Record,
    },
}

/// The outcome of applying a batch of writes: the new commit plus the record
/// operations, ready to be emitted on the firehose.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitResult {
    /// The newly created commit.
    pub commit: Commit,
    /// The commit's CID (precomputed so firehose producers need not re-hash
    /// the signed encoding per event).
    pub commit_cid: Cid,
    /// The operations included in it.
    pub ops: Vec<RecordOp>,
    /// Approximate number of bytes of new blocks written.
    pub bytes_written: usize,
}

/// A parsed CAR archive: the root CIDs and the block store.
pub(crate) type ParsedCar = (Vec<Cid>, BTreeMap<Cid, Vec<u8>>);

/// What a `getRepo(since)` delta must carry.
///
/// The MST node blocks dominate delta size for chatty small repositories:
/// every appended record rewrites its leaf-to-root path, so a weekly sync
/// re-ships each touched path once even though the *records* of that week
/// are much smaller. Consumers that maintain a verifiable block mirror (the
/// Relay) need those nodes; consumers that keep only the record blocks (the
/// §3 dataset mirror) can skip them and verify the head commit alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaScope {
    /// Head commit + net MST node difference + record blocks: everything a
    /// mirror needs to reassemble a full archive via
    /// [`Repository::apply_delta`].
    #[default]
    Full,
    /// Head commit + record blocks only: sufficient (and much smaller) for
    /// consumers that keep record blocks but not the tree.
    Records,
}

/// Per-commit block accounting: which record blocks each commit introduced
/// and how it changed the tree's node set. This is what makes
/// `com.atproto.sync.getRepo(did, since)` cheap — the delta for any known
/// `since` revision is read off the log entries of the commits after it,
/// with no tree reconstruction at request time.
#[derive(Debug, Clone, Default)]
struct CommitBlocks {
    /// Record blocks first written by this commit.
    record_cids: Vec<Cid>,
    /// MST nodes this commit added to the live tree.
    node_cids: Vec<Cid>,
    /// MST nodes this commit dropped from the live tree. Together with
    /// `node_cids` this lets a delta export tell, by backward replay —
    /// O(churn), never a tree rebuild — which live nodes were not in the
    /// tree at a past revision, and ship only that *net* node difference.
    removed_node_cids: Vec<Cid>,
}

/// What one [`Repository::compact_before`] pass dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Commits (and their log entries) dropped from the delta window.
    pub commits_dropped: usize,
    /// Always 0: every stored record block stays live, because a
    /// repository only creates records. A shim kept while the pinned
    /// benchmark surface still reads it; it goes with that pin.
    pub bytes_reclaimed: usize,
}

impl CompactionStats {
    /// Fold another pass's stats into this one.
    pub fn absorb(&mut self, other: &CompactionStats) {
        self.commits_dropped += other.commits_dropped;
    }
}

/// A user repository: block store + MST index + commit chain.
#[derive(Debug)]
pub struct Repository {
    did: Did,
    signing_key: SigningKey,
    /// The record index, kept materialised and updated in place, and the
    /// only copy of the tree: its node blocks are encoded from it when an
    /// archive is written. Its node delta is drained once per commit (in
    /// `apply_writes`) into the commit log.
    mst: Mst,
    /// The record blocks, behind the pluggable store: exactly the tree's
    /// distinct values, since no key is ever removed or rewritten.
    store: Box<dyn BlockStore>,
    /// Retained commits (oldest first). Compaction drops the front.
    commits: Vec<Commit>,
    /// Aligned 1:1 with `commits`: the blocks each commit introduced.
    log: Vec<CommitBlocks>,
    /// CID of the head commit, cached so each new commit's `prev` pointer
    /// costs nothing (compaction only drops from the front, never the head).
    head_cid: Option<Cid>,
    /// Revision of the newest commit a compaction pass dropped; deltas since
    /// revisions at or below it must fall back to a full fetch.
    compacted_through: Option<Tid>,
    clock: TidClock,
    /// Where `put_record` encodes each record; the store copies a new
    /// block's bytes out of it ([`BlockStore::put_slice`]), so a record
    /// costs no allocation of its own on the way in.
    encode_buf: Vec<u8>,
}

/// The MST key `<collection>/<rkey>` of a record.
fn record_key(collection: &Nsid, rkey: &str) -> String {
    let mut key = String::with_capacity(collection.string_len() + 1 + rkey.len());
    key.push_str(collection.as_str());
    key.push('/');
    key.push_str(rkey);
    key
}

impl Repository {
    /// Create an empty repository over an explicit block store backend.
    pub fn with_store(did: Did, key_seed: &[u8], store: Box<dyn BlockStore>) -> Repository {
        let mut seed = did.as_string().into_bytes();
        seed.extend_from_slice(key_seed);
        Repository {
            signing_key: SigningKey::from_seed(&seed),
            clock: TidClock::new((seed.len() as u16) & 0x3ff),
            did,
            mst: Mst::new(),
            store,
            commits: Vec::new(),
            log: Vec::new(),
            head_cid: None,
            compacted_through: None,
            encode_buf: Vec::new(),
        }
    }

    /// The repository owner.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// Latest commit, if any write has happened.
    pub(crate) fn head(&self) -> Option<&Commit> {
        self.commits.last()
    }

    /// The latest revision TID ("repo version" in `sync.listRepos`).
    pub fn rev(&self) -> Option<Tid> {
        self.head().map(|c| c.rev)
    }

    /// Residency/spill statistics of the backing block store, which holds
    /// the record blocks (the MST's nodes live in the tree alone).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Fetch a record by collection and rkey.
    pub fn get_record(&self, collection: &Nsid, rkey: &str) -> Option<Record> {
        let cid = self.mst.get(&record_key(collection, rkey))?;
        let bytes = self.store.get(cid)?;
        Record::from_cbor(&bytes).ok()
    }

    /// Apply a batch of record creations, producing a new signed commit.
    ///
    /// The batch is validated before its first mutation: every key must be
    /// a valid MST key, absent from the tree, and named once in the batch.
    /// A batch that passes is applied with no failure path, so a rejected
    /// batch leaves the repository exactly as it was. Records are stored in
    /// write order; the commit's ops list the batch's keys in key order.
    pub fn apply_writes(&mut self, writes: &[Write], now: Datetime) -> Result<CommitResult> {
        if writes.is_empty() {
            return Err(AtError::RepoError("empty write batch".into()));
        }
        let keys: Vec<String> = writes
            .iter()
            .map(
                |Write::Create {
                     collection, rkey, ..
                 }| record_key(collection, rkey),
            )
            .collect();
        for key in &keys {
            validate_key(key)?;
            if self.mst.get(key).is_some() {
                return Err(AtError::RepoError(format!("record exists: {key}")));
            }
        }
        let mut sorted: Vec<&str> = keys.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(AtError::RepoError(format!(
                "key written twice: {}",
                pair[0]
            )));
        }

        let mut bytes_written = 0usize;
        let mut fresh_blocks: Vec<Cid> = Vec::new();
        let mut ops: Vec<RecordOp> = Vec::with_capacity(writes.len());
        for (key, Write::Create { record, .. }) in keys.into_iter().zip(writes) {
            self.encode_buf.clear();
            record.encode_into(&mut self.encode_buf);
            let cid = Cid::for_cbor(&self.encode_buf);
            bytes_written += self.encode_buf.len();
            // Content another key already holds is stored once.
            if self.store.put_slice(cid, &self.encode_buf) {
                fresh_blocks.push(cid);
            }
            let prior = self.mst.set(&key, cid);
            debug_assert!(prior.is_none(), "{key} was validated as absent");
            ops.push(RecordOp { key, cid });
        }
        ops.sort_unstable_by(|a, b| a.key.cmp(&b.key));

        let rev = self.clock.next(now);
        // One walk over the nodes this batch touched hashes them for the
        // commit's `data` pointer and yields the node-set change since the
        // previous commit, which the log keeps for `getRepo(since)` deltas.
        let (data, delta) = self.mst.take_node_delta();
        let mut commit = Commit {
            did: self.did.clone(),
            version: 3,
            data,
            rev,
            prev: self.head_cid,
            sig: Signature([0u8; 32]),
        };
        commit.sig = self.signing_key.sign(&commit.unsigned_bytes());
        // Account for the MST root node and commit block; one encoding
        // serves both the byte count and the commit CID.
        let commit_bytes = commit.to_cbor();
        bytes_written += commit_bytes.len();
        let commit_cid = Cid::for_cbor(&commit_bytes);
        self.head_cid = Some(commit_cid);
        self.commits.push(commit.clone());
        self.log.push(CommitBlocks {
            record_cids: fresh_blocks,
            node_cids: delta.added,
            removed_node_cids: delta.removed.into_iter().collect(),
        });
        Ok(CommitResult {
            commit,
            commit_cid,
            ops,
            bytes_written,
        })
    }

    /// Convenience: create a record keyed by a fresh TID.
    pub fn create_record(
        &mut self,
        collection: Nsid,
        record: Record,
        now: Datetime,
    ) -> Result<(String, CommitResult)> {
        let rkey = self.clock.next(now).to_string_form();
        let result = self.apply_writes(
            &[Write::Create {
                collection,
                rkey: rkey.clone(),
                record,
            }],
            now,
        )?;
        Ok((rkey, result))
    }

    /// Export the full repository as a CAR-like archive: header + every
    /// retained block (commits, MST nodes, records). Used by
    /// `com.atproto.sync.getRepo`. The record blocks are the tree's
    /// distinct values, which are exactly the stored ones. Commits dropped
    /// by a compaction pass are gone from full exports too.
    pub fn export_car(&self) -> Vec<u8> {
        let roots: Vec<Cid> = self.head_cid.into_iter().collect();
        let mut car = CarWriter::new(&roots, None);
        for commit in &self.commits {
            let bytes = commit.to_cbor();
            car.block(&Cid::for_cbor(&bytes), &bytes);
        }
        self.mst
            .for_each_block(|_| true, |cid, bytes| car.block(cid, bytes));
        // Sorted: the archive frames its record blocks in ascending CID
        // order, and a paged store is read in that order.
        let mut record_cids: Vec<Cid> = Vec::with_capacity(self.store.len());
        record_cids.extend(self.mst.iter().map(|(_, cid)| *cid));
        record_cids.sort_unstable();
        record_cids.dedup();
        for cid in &record_cids {
            if let Some(bytes) = self.store.get(cid) {
                car.block(cid, &bytes);
            }
        }
        car.finish()
    }

    /// `com.atproto.sync.getRepo(did, since=rev)`: export only what a
    /// consumer synced to `since` is missing — the commits after `since`
    /// ([`DeltaScope::Records`] trims this to the head commit alone, which
    /// is all a records-only consumer verifies), the **net** MST node
    /// difference between the live tree and the tree at `since` (found by
    /// replaying the per-commit add/remove log backwards and encoding only
    /// the live subtrees it marks new, so transient nodes that appeared and
    /// vanished between the two snapshots never travel; [`DeltaScope::Full`]
    /// only), and every record block written after `since`. A
    /// [`DeltaScope::Full`] delta applied to a full archive at `since`
    /// therefore yields a superset of a fresh full export: commit chain,
    /// live tree and record store all intact.
    ///
    /// Errors when `since` is not a revision of this repository (a rewound
    /// or replaced repo, or a revision predating a takedown) — or, as
    /// [`AtError::RevisionCompacted`], when a compaction pass dropped it
    /// from the delta-serving window: either way the caller must fall back
    /// to a full [`Repository::export_car`] fetch. A `since` equal to the
    /// head revision yields an empty delta (header only).
    pub fn export_car_since(&self, since: &Tid, scope: DeltaScope) -> Result<Vec<u8>> {
        let head = self
            .head()
            .ok_or_else(|| AtError::RepoError("repository has no commits".into()))?;
        let head_cid = self.head_cid.expect("head commit implies cached head CID");
        let index = self
            .commits
            .binary_search_by(|c| c.rev.cmp(since))
            .map_err(|_| match self.compacted_through {
                // Any revision at or below the compaction floor is gone from
                // the window; a revision above it was simply never ours.
                Some(floor) if *since <= floor => AtError::RevisionCompacted(format!(
                    "revision {since} of {} left the delta window (compacted through {floor})",
                    self.did
                )),
                _ => AtError::RepoError(format!(
                    "unknown revision {since} for {}: full fetch required",
                    self.did
                )),
            })?;
        // Ordered: the archive is framed in this map's CID order, while the
        // tree hands over its nodes children first and the store is read in
        // the order below (records in log order) — a paged store's
        // residency follows its read order, and that order is pinned with
        // the byte counters it produces.
        let mut blocks: BTreeMap<Cid, Vec<u8>> = BTreeMap::new();
        if index + 1 < self.commits.len() {
            blocks.insert(head_cid, head.to_cbor());
        }
        if scope == DeltaScope::Full {
            // The intermediate commits too, so the merged archive's `prev`
            // chain never dangles.
            for commit in &self.commits[index + 1..] {
                let bytes = commit.to_cbor();
                blocks.insert(Cid::for_cbor(&bytes), bytes);
            }
            // Which churned nodes were in the tree at `since`, by backward
            // replay of the per-commit churn log — O(churn), never a tree
            // rebuild: the oldest commit to touch a node has the last word.
            let mut in_tree_at_since: CidMap<bool> = CidMap::default();
            for entry in self.log[index + 1..].iter().rev() {
                for cid in &entry.node_cids {
                    in_tree_at_since.insert(*cid, false);
                }
                for cid in &entry.removed_node_cids {
                    in_tree_at_since.insert(*cid, true);
                }
            }
            // The live nodes that joined since: a walk of the live tree that
            // descends only into nodes a commit after `since` added first. A
            // node that was in the tree at `since` (touched by no later
            // commit, or removed first) roots a subtree unchanged since
            // then, by the Merkle property, so the walk skips all of it; a
            // node that joined has only joined nodes above it.
            self.mst.for_each_block(
                |cid| in_tree_at_since.get(cid) == Some(&false),
                |cid, bytes| {
                    blocks.insert(*cid, bytes.to_vec());
                },
            );
        }
        for entry in &self.log[index + 1..] {
            for cid in &entry.record_cids {
                // A block the store cannot return is left out, as the full
                // export leaves it out.
                if let Some(bytes) = self.store.get(cid) {
                    blocks.insert(*cid, bytes);
                }
            }
        }
        let mut car = CarWriter::new(&[head_cid], Some(since));
        for (cid, bytes) in &blocks {
            car.block(cid, bytes);
        }
        Ok(car.finish())
    }

    /// Reassemble a full archive from a previously fetched CAR plus a delta
    /// produced by [`Repository::export_car_since`]. Every block is verified
    /// against its CID during parsing; on top of that the merged store must
    /// contain the delta's head commit, that commit's MST root node, and the
    /// head revision must advance past the base's — otherwise the delta is
    /// rejected and the caller should fall back to a full fetch.
    pub fn apply_delta(base_car: &[u8], delta_car: &[u8]) -> Result<Vec<u8>> {
        // Both archives are merged as slices borrowed from the inputs; the
        // one copy of each block is the one into the output. Ordered: the
        // merged archive is framed in this map's CID order.
        let mut blocks: BTreeMap<Cid, &[u8]> = BTreeMap::new();
        let mut base = CarReader::new(base_car)?;
        for block in &mut base {
            let (cid, bytes) = block?;
            blocks.insert(cid, bytes);
        }
        let base_rev = base
            .roots()
            .first()
            .and_then(|r| blocks.get(r))
            .map(|bytes| commit_summary(bytes))
            .transpose()?
            .map(|(rev, _)| rev);
        let mut delta = CarReader::new(delta_car)?;
        for block in &mut delta {
            let (cid, bytes) = block?;
            blocks.insert(cid, bytes);
        }
        let root = delta
            .roots()
            .first()
            .copied()
            .ok_or_else(|| AtError::RepoError("delta CAR has no root".into()))?;
        let commit_bytes = blocks
            .get(&root)
            .ok_or_else(|| AtError::RepoError("delta head commit block missing".into()))?;
        let (rev, data) = commit_summary(commit_bytes)?;
        if let Some(base_rev) = base_rev {
            if rev < base_rev {
                return Err(AtError::RepoError(format!(
                    "delta head revision {rev} rewinds past base {base_rev}"
                )));
            }
        }
        if !blocks.contains_key(&data) {
            return Err(AtError::RepoError(
                "delta MST root block missing from merged archive".into(),
            ));
        }
        let mut car = CarWriter::new(delta.roots(), None);
        for (cid, bytes) in &blocks {
            car.block(cid, bytes);
        }
        Ok(car.finish())
    }

    /// Parse a CAR archive back into `(roots, blocks)`: [`CarReader`],
    /// collected into owned blocks.
    pub fn parse_car(bytes: &[u8]) -> Result<ParsedCar> {
        let mut reader = CarReader::new(bytes)?;
        // Ordered: `ParsedCar` hands its callers the blocks in CID order.
        let mut blocks = BTreeMap::new();
        for block in &mut reader {
            let (cid, data) = block?;
            blocks.insert(cid, data.to_vec());
        }
        Ok((reader.roots, blocks))
    }

    /// The compaction pass: trim everything that aged out of the
    /// delta-serving window ending at `cutoff`.
    ///
    /// * **MST nodes** — nothing to do: the store holds none, since deltas
    ///   only ever ship *current* nodes, which the live tree encodes.
    /// * **Records** — nothing to do: every stored record block is the value
    ///   of a key, and no key is ever removed or rewritten.
    /// * **Commits + log entries** — commits with `rev < cutoff` leave the
    ///   window (the head commit is always retained). Subsequent
    ///   [`Repository::export_car_since`] calls for a dropped revision fail
    ///   with [`AtError::RevisionCompacted`] instead of silently serving a
    ///   wrong delta.
    /// * **Cold pages** — the store demotes its sealed pages to its spill
    ///   file ([`BlockStore::evict_cold`]; a no-op in memory). After its
    ///   write a record block is read by exports, and a delta export reads
    ///   only the recent ones, so what was written before the pass is cold.
    ///   Without it a paged store keeps its last pages resident however
    ///   cold they are.
    ///
    /// Idempotent: a second pass with the same cutoff drops nothing.
    pub fn compact_before(&mut self, cutoff: &Tid) -> CompactionStats {
        let mut stats = CompactionStats::default();
        if self.commits.len() > 1 {
            let floor = self
                .commits
                .partition_point(|c| c.rev < *cutoff)
                .min(self.commits.len() - 1);
            if floor > 0 {
                let last_dropped = self.commits[floor - 1].rev;
                self.compacted_through = Some(match self.compacted_through {
                    Some(prev) => prev.max(last_dropped),
                    None => last_dropped,
                });
                self.commits.drain(..floor);
                self.log.drain(..floor);
                stats.commits_dropped = floor;
            }
        }
        self.store.evict_cold();
        stats
    }
}

/// Serialise a CAR archive: varint-framed header (`version`, `roots`, and —
/// for deltas — the `since` revision) followed by varint-framed
/// `CID ‖ bytes` blocks, each framed into the output as it is handed over.
struct CarWriter {
    out: Vec<u8>,
}

impl CarWriter {
    fn new(roots: &[Cid], since: Option<&Tid>) -> CarWriter {
        // The header map `{roots, [since,] version}`, in canonical key order.
        let mut header = Vec::with_capacity(96);
        raw::map_head(2 + since.is_some() as u64, &mut header);
        raw::text("roots", &mut header);
        raw::array_head(roots.len() as u64, &mut header);
        for root in roots {
            raw::link(root, &mut header);
        }
        if let Some(since) = since {
            raw::text("since", &mut header);
            raw::text_head(since.string_len(), &mut header);
            since.write_to(&mut header);
        }
        raw::text("version", &mut header);
        raw::uint(1, &mut header);
        let mut out = Vec::new();
        write_varint(header.len() as u64, &mut out);
        out.extend_from_slice(&header);
        CarWriter { out }
    }

    fn block(&mut self, cid: &Cid, bytes: &[u8]) {
        write_varint((CID_LEN + bytes.len()) as u64, &mut self.out);
        self.out.extend_from_slice(&cid.to_array());
        self.out.extend_from_slice(bytes);
    }

    fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// A borrowed, single-pass reader over a CAR archive: the header's roots,
/// then an iterator of `(cid, bytes)` with `bytes` a slice of the input.
///
/// All framing rules live here and nowhere else: length varints are
/// checked against the archive before anything is sliced (a crafted varint
/// can neither overflow the frame end nor reach past the input), a block
/// frame shorter than a CID is a truncation, and every block is verified
/// against its CID — one digest of the payload, compared under the codec the
/// CID itself names (DAG-CBOR or raw). The first malformed frame yields one
/// `Err` and ends the iteration.
#[derive(Debug)]
pub struct CarReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    roots: Vec<Cid>,
}

impl<'a> CarReader<'a> {
    /// Read the archive header; the reader is then positioned at the first
    /// block.
    pub fn new(bytes: &'a [u8]) -> Result<CarReader<'a>> {
        let (header_len, read) = read_varint(bytes)?;
        let header_end = frame_end(read, header_len, bytes.len())
            .ok_or_else(|| AtError::RepoError("truncated CAR header".into()))?;
        let header = cbor::decode(&bytes[read..header_end])?;
        let roots = header
            .get("roots")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_link)
            .copied()
            .collect();
        Ok(CarReader {
            bytes,
            pos: header_end,
            roots,
        })
    }

    /// The root CIDs the header names (the head commit, for a repository).
    pub fn roots(&self) -> &[Cid] {
        &self.roots
    }

    fn read_block(&mut self) -> Result<(Cid, &'a [u8])> {
        let (len, read) = read_varint(&self.bytes[self.pos..])?;
        let start = self.pos + read;
        let end = frame_end(start, len, self.bytes.len())
            .filter(|_| len >= CID_LEN as u64)
            .ok_or_else(|| AtError::RepoError("truncated CAR block".into()))?;
        let cid = Cid::from_bytes(&self.bytes[start..start + CID_LEN])?;
        let data = &self.bytes[start + CID_LEN..end];
        if !matches!(cid.codec(), CODEC_DAG_CBOR | CODEC_RAW) || sha256(data) != *cid.digest() {
            return Err(AtError::RepoError(format!(
                "block does not match CID {cid}"
            )));
        }
        self.pos = end;
        Ok((cid, data))
    }
}

impl<'a> Iterator for CarReader<'a> {
    type Item = Result<(Cid, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let block = self.read_block();
        if block.is_err() {
            self.pos = self.bytes.len();
        }
        Some(block)
    }
}

/// Decode the `(rev, data)` summary of an encoded commit block, without
/// needing the full [`Commit`] struct (delta consumers hold raw blocks).
pub fn commit_summary(bytes: &[u8]) -> Result<(Tid, Cid)> {
    let value = cbor::decode(bytes)?;
    let rev = value
        .get("rev")
        .and_then(Value::as_text)
        .ok_or_else(|| AtError::RepoError("commit block missing rev".into()))?;
    let data = value
        .get("data")
        .and_then(Value::as_link)
        .ok_or_else(|| AtError::RepoError("commit block missing data".into()))?;
    Ok((Tid::parse(rev)?, *data))
}

/// End offset of a frame of `len` bytes starting at `pos`, if it lies within
/// an archive of `total` bytes. `len` comes straight off the wire, so the sum
/// is checked: a crafted varint must not overflow it.
fn frame_end(pos: usize, len: u64, total: usize) -> Option<usize> {
    let end = pos.checked_add(usize::try_from(len).ok()?)?;
    (end <= total).then_some(end)
}

fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        value |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
        if shift > 63 {
            return Err(AtError::RepoError("varint overflow".into()));
        }
    }
    Err(AtError::RepoError("truncated varint".into()))
}

// The repository keeps its head's CID as it commits; only the tests hash a
// commit again.
#[cfg(test)]
impl Commit {
    /// The commit's own CID (hash of its signed encoding).
    pub(crate) fn cid(&self) -> Cid {
        Cid::for_cbor(&self.to_cbor())
    }
}

// Test fixtures: a repository over a fresh in-memory store, and a whole
// collection read back at once (production reads one record at a time).
#[cfg(test)]
impl Repository {
    /// Create an empty repository for a DID over the default in-memory
    /// store. The signing key is derived from the DID plus provided key seed
    /// (the identity layer stores the same key in the DID document).
    pub(crate) fn new(did: Did, key_seed: &[u8]) -> Repository {
        Repository::with_store(did, key_seed, Box::new(crate::blockstore::MemStore::new()))
    }

    /// List `(rkey, record)` pairs of a collection, in rkey order.
    pub(crate) fn list_collection(&self, collection: &Nsid) -> Vec<(String, Record)> {
        self.mst
            .iter_collection(collection.as_str())
            .filter_map(|(key, cid)| {
                let rkey = key.rsplit('/').next()?.to_string();
                let record = Record::from_cbor(&self.store.get(cid)?).ok()?;
                Some((rkey, record))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockstore::MemStore;
    use crate::nsid::known;
    use crate::record::PostRecord;
    use std::collections::BTreeSet;

    fn now() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 24, 9, 0, 0).unwrap()
    }

    fn post_nsid() -> Nsid {
        Nsid::parse(known::POST).unwrap()
    }

    fn new_repo(name: &str) -> Repository {
        Repository::new(Did::plc_from_seed(name.as_bytes()), b"network-secret")
    }

    fn post(text: &str) -> Record {
        Record::Post(PostRecord::simple(text, "en", now()))
    }

    #[test]
    fn commit_and_car_header_encodings_match_their_value_built_forms() {
        // The typed writers against the generic encoder they replaced, on
        // seeded random commits: both DID methods, with and without `prev`.
        use crate::testrand::TestRng;
        let mut rng = TestRng::new(0xc04417);
        for round in 0..300 {
            let did = match round % 3 {
                0 => Did::web(&format!("{}.example.org", rng.lowercase(1, 40))).unwrap(),
                _ => Did::plc_from_seed(&rng.bytes(32)),
            };
            let mut sig = [0u8; 32];
            sig.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            let commit = Commit {
                did,
                version: rng.next_u64() as u8,
                data: Cid::for_cbor(&rng.bytes(32)),
                rev: Tid::from_micros(rng.next_u64(), rng.next_u64() as u16),
                prev: (rng.below(3) > 0).then(|| Cid::for_cbor(&rng.bytes(32))),
                sig: Signature(sig),
            };
            let mut fields = vec![
                ("did", Value::text(commit.did.to_string())),
                ("version", Value::Int(commit.version as i64)),
                ("data", Value::Link(commit.data)),
                ("rev", Value::text(commit.rev.to_string())),
                ("prev", commit.prev.map_or(Value::Null, Value::Link)),
            ];
            assert_eq!(
                commit.unsigned_bytes(),
                cbor::encode(&Value::map(fields.clone()))
            );
            fields.push(("sig", Value::Bytes(commit.sig.0.to_vec())));
            let signed = cbor::encode(&Value::map(fields));
            assert_eq!(commit.to_cbor(), signed);
            assert_eq!(commit_summary(&signed).unwrap(), (commit.rev, commit.data));

            let roots: Vec<Cid> = (0..rng.below(3))
                .map(|_| Cid::for_cbor(&rng.bytes(8)))
                .collect();
            let since = (rng.below(2) == 0).then_some(commit.rev);
            let mut header = vec![
                ("version", Value::Int(1)),
                (
                    "roots",
                    Value::Array(roots.iter().map(|c| Value::Link(*c)).collect()),
                ),
            ];
            if let Some(since) = since {
                header.push(("since", Value::text(since.to_string())));
            }
            let header = cbor::encode(&Value::map(header));
            let mut expected = Vec::new();
            write_varint(header.len() as u64, &mut expected);
            expected.extend_from_slice(&header);
            assert_eq!(CarWriter::new(&roots, since.as_ref()).finish(), expected);
        }
    }

    #[test]
    fn create_and_get_a_record() {
        let mut repo = new_repo("alice");
        assert!(repo.head().is_none());
        let (rkey, result) = repo
            .create_record(post_nsid(), post("first"), now())
            .unwrap();
        assert_eq!(result.ops.len(), 1);
        assert_eq!(result.ops[0].collection(), known::POST);
        assert_eq!(result.ops[0].key, format!("{}/{rkey}", known::POST));
        assert_eq!(result.ops[0].cid, Cid::for_cbor(&post("first").to_cbor()));
        assert_eq!(repo.mst.iter().count(), 1);
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("first")));
        // A batch stores its records in write order and lists its ops in
        // key order.
        let batch: Vec<Write> = ["c", "a", "b"]
            .iter()
            .map(|rkey| Write::Create {
                collection: post_nsid(),
                rkey: format!("{rkey}{rkey}{rkey}"),
                record: post(rkey),
            })
            .collect();
        let result = repo.apply_writes(&batch, now()).unwrap();
        let keys: Vec<&str> = result.ops.iter().map(|op| op.key.as_str()).collect();
        let post_key = |rkey: &str| format!("{}/{rkey}", known::POST);
        assert_eq!(keys, [post_key("aaa"), post_key("bbb"), post_key("ccc")]);
        let stored: Vec<Cid> = ["c", "a", "b"]
            .iter()
            .map(|text| Cid::for_cbor(&post(text).to_cbor()))
            .collect();
        assert_eq!(repo.log.last().unwrap().record_cids, stored);
        assert_eq!(repo.get_record(&post_nsid(), "aaa"), Some(post("a")));
        assert_eq!(repo.commits.len(), 2);
    }

    #[test]
    fn commit_chain_links_and_revs_increase() {
        let mut repo = new_repo("bob");
        for i in 0..5 {
            repo.create_record(post_nsid(), post(&format!("post {i}")), now())
                .unwrap();
        }
        let commits = &repo.commits;
        assert_eq!(commits.len(), 5);
        assert!(commits[0].prev.is_none());
        for i in 1..commits.len() {
            assert_eq!(commits[i].prev, Some(commits[i - 1].cid()));
            assert!(commits[i].rev > commits[i - 1].rev);
        }
    }

    #[test]
    fn commits_are_signed_and_verifiable() {
        let mut repo = new_repo("carol");
        repo.create_record(post_nsid(), post("signed"), now())
            .unwrap();
        let head = repo.head().unwrap().clone();
        let verifies =
            |commit: &Commit, key: &SigningKey| key.sign(&commit.unsigned_bytes()) == commit.sig;
        assert!(verifies(&head, &repo.signing_key));
        // A different key does not verify.
        let other = SigningKey::from_seed(b"other");
        assert!(!verifies(&head, &other));
        // Tampering with the data pointer breaks verification.
        let mut tampered = head.clone();
        tampered.data = Cid::for_cbor(b"evil");
        assert!(!verifies(&tampered, &repo.signing_key));
    }

    fn create(rkey: &str, text: &str) -> Write {
        Write::Create {
            collection: post_nsid(),
            rkey: rkey.to_string(),
            record: post(text),
        }
    }

    #[test]
    fn rejects_conflicting_writes() {
        let mut repo = new_repo("dave");
        let (rkey, _) = repo.create_record(post_nsid(), post("x"), now()).unwrap();
        // Creating over an existing key fails.
        assert!(repo.apply_writes(&[create(&rkey, "y")], now()).is_err());
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("x")));
        // So does creating over it with content another key stores.
        let (other, _) = repo.create_record(post_nsid(), post("w"), now()).unwrap();
        assert!(repo.apply_writes(&[create(&rkey, "w")], now()).is_err());
        assert_eq!(repo.get_record(&post_nsid(), &rkey), Some(post("x")));
        assert_eq!(repo.get_record(&post_nsid(), &other), Some(post("w")));
        // Empty batches are rejected.
        assert!(repo.apply_writes(&[], now()).is_err());
        assert_eq!(repo.commits.len(), 2);
    }

    #[test]
    fn list_collection_and_all_records() {
        let mut repo = new_repo("erin");
        repo.create_record(post_nsid(), post("a"), now()).unwrap();
        repo.create_record(post_nsid(), post("b"), now()).unwrap();
        repo.create_record(
            Nsid::parse(known::FOLLOW).unwrap(),
            Record::Follow(crate::record::FollowRecord {
                subject: Did::plc_from_seed(b"frank"),
                created_at: now(),
            }),
            now(),
        )
        .unwrap();
        assert_eq!(repo.list_collection(&post_nsid()).len(), 2);
        assert_eq!(
            repo.list_collection(&Nsid::parse(known::FOLLOW).unwrap())
                .len(),
            1
        );
        assert_eq!(repo.mst.iter().count(), 3);
    }

    #[test]
    fn car_export_roundtrip() {
        let mut repo = new_repo("grace");
        for i in 0..20 {
            repo.create_record(post_nsid(), post(&format!("post {i}")), now())
                .unwrap();
        }
        let car = repo.export_car();
        assert!(!car.is_empty());
        let (roots, blocks) = Repository::parse_car(&car).unwrap();
        assert_eq!(roots, vec![repo.head().unwrap().cid()]);
        // Every live record block is present and matches its CID.
        for (_, cid) in repo.mst.iter() {
            assert!(blocks.contains_key(cid));
        }
        // The head commit block is present.
        assert!(blocks.contains_key(&roots[0]));
    }

    /// All blocks of a CAR that decode as records, in CID order — the view
    /// the §3 repositories dataset takes of an archive.
    fn decoded_records(car: &[u8]) -> Vec<Record> {
        let (_, blocks) = Repository::parse_car(car).unwrap();
        blocks
            .values()
            .filter_map(|b| Record::from_cbor(b).ok())
            .collect()
    }

    #[test]
    fn delta_since_head_is_empty() {
        let mut repo = new_repo("judy");
        repo.create_record(post_nsid(), post("only"), now())
            .unwrap();
        let head_rev = repo.rev().unwrap();
        let delta = repo.export_car_since(&head_rev, DeltaScope::Full).unwrap();
        let (roots, blocks) = Repository::parse_car(&delta).unwrap();
        assert_eq!(roots, vec![repo.head().unwrap().cid()]);
        assert!(blocks.is_empty(), "delta since head must carry no blocks");
    }

    #[test]
    fn delta_since_unknown_rev_errors_for_full_refetch() {
        let mut repo = new_repo("kate");
        repo.create_record(post_nsid(), post("x"), now()).unwrap();
        // A revision this repository never produced (e.g. the consumer's
        // state predates a repo rewind or replacement).
        let foreign = Tid::from_micros(1, 1);
        let err = repo
            .export_car_since(&foreign, DeltaScope::Full)
            .unwrap_err();
        assert!(err.to_string().contains("full fetch required"), "{err}");
        // An empty repository cannot serve deltas at all.
        let empty = new_repo("empty");
        assert!(empty.export_car_since(&foreign, DeltaScope::Full).is_err());
    }

    #[test]
    fn delta_applied_to_base_matches_full_export() {
        let mut repo = new_repo("liam");
        for i in 0..8 {
            repo.create_record(post_nsid(), post(&format!("v0 {i}")), now())
                .unwrap();
        }
        let base_rev = repo.rev().unwrap();
        let base_car = repo.export_car();

        // After the base: a batch of several creates, a record whose content
        // a base record already holds (stored once, under a second key), and
        // a single create.
        let batch: Vec<Write> = (0..3)
            .map(|i| create(&format!("batch{i}"), &format!("batched {i}")))
            .collect();
        repo.apply_writes(&batch, now().plus_seconds(5)).unwrap();
        repo.create_record(post_nsid(), post("v0 3"), now().plus_seconds(10))
            .unwrap();
        repo.create_record(post_nsid(), post("brand new"), now().plus_seconds(20))
            .unwrap();

        let full_car = repo.export_car();
        let delta = repo.export_car_since(&base_rev, DeltaScope::Full).unwrap();
        assert!(
            delta.len() < full_car.len(),
            "delta ({}) must be smaller than the full export ({})",
            delta.len(),
            full_car.len()
        );
        let merged = Repository::apply_delta(&base_car, &delta).unwrap();
        // Same head, and the record view is byte-identical to a fresh full
        // fetch, every record of the batch included.
        let (merged_roots, merged_blocks) = Repository::parse_car(&merged).unwrap();
        assert_eq!(merged_roots, vec![repo.head().unwrap().cid()]);
        assert_eq!(decoded_records(&merged), decoded_records(&full_car));
        assert!(decoded_records(&merged).contains(&post("batched 1")));
        // The head commit and the whole live tree are reachable in the
        // merged store (deltas ship the net node difference; the base
        // supplied the unchanged nodes).
        let (rev, data) = commit_summary(merged_blocks.get(&merged_roots[0]).unwrap()).unwrap();
        assert_eq!(rev, repo.rev().unwrap());
        assert!(merged_blocks.contains_key(&data));
        // In fact the merged store covers everything a fresh full export
        // carries — commit chain included, so `prev` links never dangle.
        let (_, full_blocks) = Repository::parse_car(&full_car).unwrap();
        for cid in full_blocks.keys() {
            assert!(
                merged_blocks.contains_key(cid),
                "block {cid} missing from merged archive"
            );
        }
    }

    #[test]
    fn log_replay_delta_matches_the_reference_node_diff_walk() {
        // `export_car_since` derives its node section from the per-commit
        // add/remove log (O(churn)); `Mst::node_delta` is the reference
        // diff walk (O(n) tree builds). They must agree exactly.
        let mut repo = new_repo("pia");
        for i in 0..30 {
            repo.create_record(post_nsid(), post(&format!("base {i}")), now())
                .unwrap();
        }
        let since = repo.rev().unwrap();
        let base_mst = repo.mst.clone();
        // A week of creates: single ones, a batch, and content a base
        // record already holds.
        for i in 0..6 {
            repo.create_record(
                post_nsid(),
                post(&format!("new {i}")),
                now().plus_seconds(i),
            )
            .unwrap();
        }
        let batch: Vec<Write> = (0..4)
            .map(|i| create(&format!("week{i}"), &format!("batched {i}")))
            .collect();
        repo.apply_writes(&batch, now().plus_seconds(10)).unwrap();
        repo.create_record(post_nsid(), post("base 4"), now().plus_seconds(11))
            .unwrap();

        let delta = repo.export_car_since(&since, DeltaScope::Full).unwrap();
        let (_, blocks) = Repository::parse_car(&delta).unwrap();
        let delta_nodes: BTreeSet<Cid> = blocks
            .iter()
            .filter(|(_, bytes)| {
                Record::from_cbor(bytes).is_err() && commit_summary(bytes).is_err()
            })
            .map(|(cid, _)| *cid)
            .collect();
        let reference: BTreeSet<Cid> = repo
            .mst
            .node_delta(&base_mst)
            .iter()
            .map(|n| n.cid)
            .collect();
        assert!(!reference.is_empty());
        assert_eq!(delta_nodes, reference);
    }

    /// A store that notes every `get` it serves, in order.
    #[derive(Debug, Default)]
    struct ReadLog {
        inner: MemStore,
        gets: std::sync::Arc<std::sync::Mutex<Vec<Cid>>>,
    }

    impl BlockStore for ReadLog {
        fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
            self.gets.lock().unwrap().push(*cid);
            self.inner.get(cid)
        }
        fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
            self.inner.put(cid, bytes)
        }
        fn has(&self, cid: &Cid) -> bool {
            self.inner.has(cid)
        }
        fn delete(&mut self, cid: &Cid) -> usize {
            self.inner.delete(cid)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn bytes(&self) -> usize {
            self.inner.bytes()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn exports_read_the_store_and_frame_blocks_in_cid_order() {
        // The two places a hashed index is iterated towards bytes. A paged
        // store's residency follows read order, so the order of the `get`s
        // is pinned as well as the order of the frames: a full export reads
        // and frames its record blocks ascending; a delta export reads the
        // record blocks in log order (its nodes come from the tree, not the
        // store) and frames everything ascending.
        let store = ReadLog::default();
        let gets = store.gets.clone();
        let did = Did::plc_from_seed(b"read-order");
        let mut repo = Repository::with_store(did, b"network-secret", Box::new(store));
        for i in 0..40 {
            repo.create_record(post_nsid(), post(&format!("base {i}")), now())
                .unwrap();
        }
        let since = repo.rev().unwrap();
        let nodes_at_since = tree_blocks(&repo.mst);
        let commits_at_since = repo.log.len();
        for i in 0..25 {
            let at = now().plus_seconds(1 + i);
            repo.create_record(post_nsid(), post(&format!("new {i}")), at)
                .unwrap();
        }
        let frames = |car: &[u8]| -> Vec<Cid> {
            let reader = CarReader::new(car).unwrap();
            reader.map(|block| block.unwrap().0).collect()
        };
        let take_gets = || std::mem::take(&mut *gets.lock().unwrap());
        let ascending = |cids: &[Cid]| cids.windows(2).all(|w| w[0] < w[1]);

        let written: Vec<Cid> = repo
            .log
            .iter()
            .flat_map(|e| e.record_cids.clone())
            .collect();
        assert!(!ascending(&written), "insertion order is not CID order");
        let mut sorted_records = written.clone();
        sorted_records.sort_unstable();

        take_gets();
        let full = repo.export_car();
        assert_eq!(take_gets(), sorted_records);
        let framed: Vec<Cid> = frames(&full)
            .into_iter()
            .filter(|cid| repo.store.has(cid))
            .collect();
        assert_eq!(framed, sorted_records);

        let delta = repo.export_car_since(&since, DeltaScope::Full).unwrap();
        let log_order: Vec<Cid> = repo.log[commits_at_since..]
            .iter()
            .flat_map(|e| e.record_cids.clone())
            .collect();
        assert!(!ascending(&log_order));
        assert_eq!(take_gets(), log_order);
        let framed = frames(&delta);
        assert!(ascending(&framed));
        let joined: Vec<Cid> = tree_blocks(&repo.mst)
            .into_keys()
            .filter(|cid| !nodes_at_since.contains_key(cid))
            .collect();
        assert!(joined.len() > 1 && joined.iter().all(|cid| framed.contains(cid)));
    }

    #[test]
    fn chained_deltas_across_three_snapshots() {
        let mut repo = new_repo("mona");
        repo.create_record(post_nsid(), post("one"), now()).unwrap();
        let rev1 = repo.rev().unwrap();
        let car1 = repo.export_car();
        repo.create_record(post_nsid(), post("two"), now().plus_seconds(1))
            .unwrap();
        let rev2 = repo.rev().unwrap();
        let car2 = Repository::apply_delta(
            &car1,
            &repo.export_car_since(&rev1, DeltaScope::Full).unwrap(),
        )
        .unwrap();
        repo.create_record(post_nsid(), post("three"), now().plus_seconds(2))
            .unwrap();
        let car3 = Repository::apply_delta(
            &car2,
            &repo.export_car_since(&rev2, DeltaScope::Full).unwrap(),
        )
        .unwrap();
        assert_eq!(decoded_records(&car3), decoded_records(&repo.export_car()));
    }

    #[test]
    fn apply_delta_rejects_bad_deltas() {
        let mut repo = new_repo("nina");
        repo.create_record(post_nsid(), post("a"), now()).unwrap();
        let rev = repo.rev().unwrap();
        let base = repo.export_car();
        repo.create_record(post_nsid(), post("b"), now().plus_seconds(1))
            .unwrap();
        let delta = repo.export_car_since(&rev, DeltaScope::Full).unwrap();
        // Corrupted delta: block hash check fails during parsing.
        let mut corrupt = delta.clone();
        let idx = corrupt.len() - 3;
        corrupt[idx] ^= 0xff;
        assert!(Repository::apply_delta(&base, &corrupt).is_err());
        // A delta without roots is rejected.
        let empty_repo = new_repo("empty2");
        assert!(Repository::apply_delta(&base, &empty_repo.export_car()).is_err());
        // Applying a stale base's delta in the wrong direction (new base,
        // old head) is a rewind and is rejected.
        let newer_base = repo.export_car();
        let old_only = new_repo("nina"); // fresh: no commits
        assert!(old_only.export_car_since(&rev, DeltaScope::Full).is_err());
        let _ = newer_base;
    }

    #[test]
    fn failed_batches_leave_the_store_unchanged() {
        let mut repo = new_repo("olga");
        let (rkey, _) = repo
            .create_record(post_nsid(), post("keep"), now())
            .unwrap();
        let size_before = repo.store_stats().logical_bytes;
        // The first write of this batch is a valid create of a fresh key;
        // the second names a key that exists, so the whole batch is
        // rejected and the fresh record never reaches the store.
        let err = repo.apply_writes(
            &[
                create("fresh123", "should vanish"),
                create(&rkey, "conflicts"),
            ],
            now(),
        );
        assert!(err.is_err());
        assert_eq!(repo.store_stats().logical_bytes, size_before);
        assert_eq!(repo.commits.len(), 1);
        let vanished = Cid::for_cbor(&post("should vanish").to_cbor());
        assert!(repo.store.get(&vanished).is_none());
    }

    #[test]
    fn failed_batches_leave_a_counted_store_byte_identical() {
        // A batch is checked whole before its first mutation. Each batch
        // below opens with a valid create of a fresh key, so a check made
        // after it would find the repository already changed: a create of
        // an existing key, a key named twice, and an invalid key. The
        // store keeps its block and byte counts, and its export is
        // byte-identical.
        let mut repo = new_repo("counted");
        // Enough records for a multi-level tree.
        let mut seeded = Vec::new();
        for i in 0..40 {
            let (rkey, _) = repo
                .create_record(post_nsid(), post(&format!("seed {i}")), now())
                .unwrap();
            seeded.push(rkey);
        }
        let fresh = create("fresh123", "lands last");
        let rejected = [
            (
                "an existing key",
                vec![fresh.clone(), create(&seeded[7], "conflicts")],
            ),
            (
                "a key named twice",
                vec![
                    fresh.clone(),
                    create("twice456", "a"),
                    create("twice456", "b"),
                ],
            ),
            (
                "an invalid key",
                vec![fresh.clone(), create("not a key", "never")],
            ),
        ];
        let tree = repo.mst.clone();
        let keys = repo.mst.keys_buffer().to_string();
        let car = repo.export_car();
        let stats = repo.store_stats();
        let rev = repo.rev();
        for (case, batch) in &rejected {
            assert!(repo.apply_writes(batch, now()).is_err(), "{case}");
            assert_eq!(repo.export_car(), car, "{case}");
            assert_eq!(repo.store_stats(), stats, "{case}");
            assert_eq!(repo.rev(), rev, "{case}");
            assert!(repo.mst == tree && repo.mst.root_cid() == tree.root_cid());
            assert_eq!(repo.mst.keys_buffer(), keys, "{case}");
        }
        let fresh_cid = Cid::for_cbor(&post("lands last").to_cbor());
        assert!(!repo.store.has(&fresh_cid));
        // The next commit logs exactly the node-set change the reference
        // rebuild gives, with nothing left over from the rejected batches.
        let nodes_before = tree_blocks(&repo.mst);
        repo.apply_writes(&[fresh], now()).unwrap();
        let nodes_after = repo.mst.build_with(true).1;
        let live_after: BTreeSet<Cid> = nodes_after.iter().map(|n| n.cid).collect();
        let added: Vec<Cid> = nodes_after
            .iter()
            .map(|n| n.cid)
            .filter(|cid| !nodes_before.contains_key(cid))
            .collect();
        let removed: Vec<Cid> = nodes_before
            .keys()
            .filter(|cid| !live_after.contains(cid))
            .copied()
            .collect();
        let logged = repo.log.last().unwrap();
        assert!(!added.is_empty() && added.len() < live_after.len());
        assert_eq!(logged.node_cids, added);
        let mut logged_removed = logged.removed_node_cids.clone();
        logged_removed.sort_unstable();
        assert_eq!(logged_removed, removed);
        assert_eq!(logged.record_cids, [fresh_cid]);
        assert_store_holds_records_only(&repo, "after the next commit");
    }

    #[test]
    fn paged_store_repository_exports_identically_to_mem() {
        use crate::blockstore::StoreConfig;
        let did = Did::plc_from_seed(b"paged-repo");
        let mut mem = Repository::new(did.clone(), b"network-secret");
        let paged_config = StoreConfig::paged().page_size(256).resident_pages(1);
        let mut paged = Repository::with_store(did, b"network-secret", paged_config.build());
        for i in 0..40 {
            let t = now().plus_seconds(i);
            mem.create_record(post_nsid(), post(&format!("post {i}")), t)
                .unwrap();
            paged
                .create_record(post_nsid(), post(&format!("post {i}")), t)
                .unwrap();
        }
        let stats = paged.store_stats();
        assert!(stats.spilled_bytes > 0, "paged repo must spill: {stats:?}");
        assert!(stats.resident_bytes < mem.store_stats().resident_bytes);
        // Byte-identical exports, full and delta.
        assert_eq!(paged.export_car(), mem.export_car());
        let since = mem.commits[10].rev;
        assert_eq!(
            paged.export_car_since(&since, DeltaScope::Full).unwrap(),
            mem.export_car_since(&since, DeltaScope::Full).unwrap()
        );
        // A compaction pass leaves only the open page resident; the blocks
        // page back in for the next export, byte for byte.
        let cutoff = mem.commits[5].rev;
        assert_eq!(paged.compact_before(&cutoff), mem.compact_before(&cutoff));
        let stats = paged.store_stats();
        assert!(stats.resident_bytes < 256, "{stats:?}");
        assert_eq!(stats.logical_bytes, mem.store_stats().logical_bytes);
        assert_eq!(paged.export_car(), mem.export_car());
        assert_eq!(
            paged.export_car_since(&since, DeltaScope::Full).unwrap(),
            mem.export_car_since(&since, DeltaScope::Full).unwrap()
        );
    }

    #[test]
    fn compaction_reclaims_aged_records() {
        // What ages out is history: the commits, and the log records of
        // what each one wrote, that are older than the cutoff. Record
        // blocks stay, since every record ever created is still live.
        let mut repo = new_repo("quinn");
        let mut rkeys = Vec::new();
        for i in 0..20 {
            let (rkey, _) = repo
                .create_record(post_nsid(), post(&format!("v{i}")), now().plus_seconds(i))
                .unwrap();
            rkeys.push(rkey);
        }
        let store_before = repo.store_stats();
        let commits_before = repo.commits.len();
        let mid_rev = repo.commits[commits_before - 2].rev;
        let head_rev = repo.rev().unwrap();
        let delta_before = repo.export_car_since(&mid_rev, DeltaScope::Full).unwrap();
        let expected_floor = repo.commits[commits_before - 3].rev;

        // Compact everything older than the last two commits.
        let cutoff = mid_rev;
        let stats = repo.compact_before(&cutoff);
        let expected = CompactionStats {
            commits_dropped: commits_before - 2,
            bytes_reclaimed: 0,
        };
        assert_eq!(stats, expected);
        assert_eq!(repo.commits.len(), 2);
        assert_eq!(repo.log.len(), repo.commits.len());
        assert_eq!(repo.compacted_through, Some(expected_floor));
        assert_eq!(repo.store_stats(), store_before);
        assert_store_holds_records_only(&repo, "after compaction");

        // Retained revisions still serve byte-identical deltas.
        assert_eq!(
            repo.export_car_since(&mid_rev, DeltaScope::Full).unwrap(),
            delta_before
        );
        let empty = repo.export_car_since(&head_rev, DeltaScope::Full).unwrap();
        let (_, blocks) = Repository::parse_car(&empty).unwrap();
        assert!(blocks.is_empty());

        // Compacted revisions fail loudly with the dedicated error, so the
        // caller falls back to a full fetch *visibly*.
        let old_rev = rkeys[1].parse::<Tid>().unwrap();
        let err = repo
            .export_car_since(&old_rev, DeltaScope::Full)
            .unwrap_err();
        assert!(
            matches!(err, AtError::RevisionCompacted(_)),
            "expected RevisionCompacted, got {err}"
        );
        // A foreign revision *newer* than the floor is still a plain
        // unknown-revision error.
        let foreign = Tid::from_micros(u64::MAX >> 12, 1);
        assert!(matches!(
            repo.export_car_since(&foreign, DeltaScope::Full)
                .unwrap_err(),
            AtError::RepoError(_)
        ));
        // The full export still parses and carries the live tree.
        let (roots, full_blocks) = Repository::parse_car(&repo.export_car()).unwrap();
        let (_, data) = commit_summary(full_blocks.get(&roots[0]).unwrap()).unwrap();
        assert!(full_blocks.contains_key(&data));
        assert_eq!(decoded_records(&repo.export_car()).len(), 20);
        // Idempotent: a second pass drops nothing.
        assert_eq!(repo.compact_before(&cutoff), CompactionStats::default());
    }

    #[test]
    fn compaction_keeps_live_old_records() {
        // A record created long ago but still live must survive compaction
        // and still reach consumers through full exports.
        let mut repo = new_repo("rosa");
        repo.create_record(post_nsid(), post("ancient but live"), now())
            .unwrap();
        for i in 0..10 {
            repo.create_record(
                post_nsid(),
                post(&format!("later {i}")),
                now().plus_days(30 + i),
            )
            .unwrap();
        }
        let store_before = repo.store_stats();
        let cutoff = repo.commits[8].rev;
        let stats = repo.compact_before(&cutoff);
        assert!(stats.commits_dropped > 0);
        assert_eq!(stats.bytes_reclaimed, 0, "live records must be retained");
        assert_eq!(repo.store_stats(), store_before);
        let records = decoded_records(&repo.export_car());
        assert!(records.contains(&post("ancient but live")));
        assert_eq!(records.len(), 11);
    }

    #[test]
    fn parse_car_rejects_corruption() {
        let mut repo = new_repo("henry");
        repo.create_record(post_nsid(), post("x"), now()).unwrap();
        let mut car = repo.export_car();
        // Flip a byte near the end (inside some block payload).
        let idx = car.len() - 3;
        car[idx] ^= 0xff;
        assert!(Repository::parse_car(&car).is_err());
        assert!(Repository::parse_car(&[]).is_err());
        // Crafted length varints whose frame end overflows `usize` are
        // errors like any other truncation, not panics: a header frame of
        // `u64::MAX` bytes, and a block frame of `u64::MAX - 3` after a
        // valid header.
        let mut huge_header = Vec::new();
        write_varint(u64::MAX, &mut huge_header);
        assert!(matches!(
            Repository::parse_car(&huge_header),
            Err(AtError::RepoError(_))
        ));
        let mut huge_block = new_repo("empty3").export_car();
        write_varint(u64::MAX - 3, &mut huge_block);
        huge_block.extend_from_slice(&[0u8; 40]);
        assert!(matches!(
            Repository::parse_car(&huge_block),
            Err(AtError::RepoError(_))
        ));
    }

    /// Every node block of a tree as the reference rebuild encodes it.
    fn tree_blocks(mst: &Mst) -> BTreeMap<Cid, Vec<u8>> {
        let (_, nodes) = mst.build_with(true);
        nodes.into_iter().map(|n| (n.cid, n.bytes)).collect()
    }

    /// The MST node blocks of an archive: those that decode as nodes
    /// (commits and records have no entry array).
    fn node_blocks(car: &[u8]) -> BTreeMap<Cid, Vec<u8>> {
        let (_, blocks) = Repository::parse_car(car).unwrap();
        blocks
            .into_iter()
            .filter(|(_, bytes)| crate::mst::reference::decode_node(bytes).is_ok())
            .collect()
    }

    /// The tree is held once and the store holds its values: exactly the
    /// tree's distinct values (content under two keys is stored once), and
    /// no node of the live tree as a rebuild from scratch encodes it.
    fn assert_store_holds_records_only(repo: &Repository, at: &str) {
        let values: BTreeSet<Cid> = repo.mst.iter().map(|(_, cid)| *cid).collect();
        assert_eq!(repo.store.len(), values.len(), "{at}");
        assert!(values.iter().all(|cid| repo.store.has(cid)), "{at}");
        assert!(
            tree_blocks(&repo.mst)
                .keys()
                .all(|cid| !repo.store.has(cid)),
            "{at}"
        );
    }

    /// The delta oracle: a `Full` delta since `since`, when the tree was
    /// `tree_then` and the full archive `car_then`, carries exactly the live
    /// tree's nodes that `tree_then` lacks, bytes included, and applied to
    /// `car_then` holds every block of a fresh full export. Returns the
    /// delta's node blocks.
    fn assert_full_delta_ships_the_node_difference(
        repo: &Repository,
        since: &Tid,
        (tree_then, car_then): (&Mst, &[u8]),
        at: &str,
    ) -> BTreeMap<Cid, Vec<u8>> {
        let delta = repo.export_car_since(since, DeltaScope::Full).unwrap();
        let then = tree_blocks(tree_then);
        let mut expected = tree_blocks(&repo.mst);
        expected.retain(|cid, _| !then.contains_key(cid));
        let shipped = node_blocks(&delta);
        assert_eq!(shipped, expected, "{at}");
        let merged = Repository::apply_delta(car_then, &delta).unwrap();
        let (roots, merged) = Repository::parse_car(&merged).unwrap();
        let (head_roots, head) = Repository::parse_car(&repo.export_car()).unwrap();
        assert_eq!(roots, head_roots, "{at}");
        for (cid, bytes) in &head {
            assert_eq!(merged.get(cid), Some(bytes), "{at}");
        }
        shipped
    }

    #[test]
    fn seeded_create_only_history_matches_the_oracles() {
        // Seeded random batches of creates over a small content pool, so
        // identical content lands under two keys, with one batch in ten
        // broken by one bad write at a random place (an existing key, a
        // write repeated, an invalid key). After every step the store holds
        // the tree's distinct values and nothing else, and a rejected batch
        // changed nothing. Every compaction drops the commits before its
        // cutoff and nothing else, and a second pass drops nothing. A
        // `Full` delta since a random retained revision ships exactly the
        // node difference the reference rebuild gives.
        use crate::testrand::TestRng;
        let collections = [post_nsid(), Nsid::parse(known::LIKE).unwrap()];
        let mut seen = (0, 0, 0, 0, 0); // see the final assert
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let mut rng = TestRng::new(seed);
            let mut repo = new_repo(&format!("oracle-{seed}"));
            // The tree and the full archive at every retained revision.
            let mut history: BTreeMap<Tid, (Mst, Vec<u8>)> = BTreeMap::new();
            let mut next_rkey = 0u64;
            for step in 0..300i64 {
                let at = now().plus_seconds(step * 3_600);
                let here = format!("seed {seed} step {step}");
                let mut batch: Vec<Write> = (0..1 + rng.below(5))
                    .map(|_| {
                        next_rkey += 1;
                        Write::Create {
                            collection: collections[rng.below(2) as usize].clone(),
                            rkey: format!("rkey{next_rkey}"),
                            record: post(&format!("content {}", rng.below(30))),
                        }
                    })
                    .collect();
                let broken = rng.below(10) == 0;
                if broken {
                    let present: Vec<&str> = repo.mst.iter().map(|(key, _)| key).collect();
                    let bad = match rng.below(3) {
                        0 if !present.is_empty() => {
                            let key = present[rng.below(present.len() as u64) as usize];
                            let (collection, rkey) = key.split_once('/').unwrap();
                            Write::Create {
                                collection: Nsid::parse(collection).unwrap(),
                                rkey: rkey.to_string(),
                                record: post("over a live key"),
                            }
                        }
                        1 => batch[rng.below(batch.len() as u64) as usize].clone(),
                        _ => create("not a key", "never lands"),
                    };
                    let place = rng.below(batch.len() as u64 + 1) as usize;
                    batch.insert(place, bad);
                }
                let car_before = repo.export_car();
                let stats_before = repo.store_stats();
                let rev_before = repo.rev();
                match repo.apply_writes(&batch, at) {
                    Ok(result) => {
                        assert!(!broken, "{here}: {batch:?}");
                        assert_eq!(result.ops.len(), batch.len(), "{here}");
                        assert!(result.ops.windows(2).all(|w| w[0].key < w[1].key));
                        seen.0 += 1;
                        let car = repo.export_car();
                        history.insert(repo.rev().unwrap(), (repo.mst.clone(), car));
                    }
                    Err(_) => {
                        assert!(broken, "{here}: {batch:?}");
                        seen.1 += 1;
                        assert_eq!(repo.export_car(), car_before, "{here}");
                        assert_eq!(repo.store_stats(), stats_before, "{here}");
                        assert_eq!(repo.rev(), rev_before, "{here}");
                    }
                }
                assert_store_holds_records_only(&repo, &here);
                seen.2 += usize::from(repo.store.len() < repo.mst.iter().count());
                if rng.below(12) == 0 && !repo.commits.is_empty() {
                    // A cutoff anywhere from before the oldest retained
                    // commit to past the head.
                    let cutoff = match rng.below(repo.commits.len() as u64 + 1) as usize {
                        index if index < repo.commits.len() => repo.commits[index].rev,
                        _ => Tid::from_micros(at.timestamp() as u64 * 1_000_000 + 1, 0),
                    };
                    let revs: Vec<Tid> = repo.commits.iter().map(|c| c.rev).collect();
                    let dropped = revs
                        .partition_point(|rev| *rev < cutoff)
                        .min(revs.len() - 1);
                    let (_, blocks_before) = Repository::parse_car(&repo.export_car()).unwrap();
                    let stats_before = repo.store_stats();
                    let stats = repo.compact_before(&cutoff);
                    assert_eq!(stats.commits_dropped, dropped, "{here}");
                    assert_eq!(stats.bytes_reclaimed, 0, "{here}");
                    let kept: Vec<Tid> = repo.commits.iter().map(|c| c.rev).collect();
                    assert_eq!(kept, revs[dropped..], "{here}");
                    assert_eq!(repo.store_stats(), stats_before, "{here}");
                    assert_store_holds_records_only(&repo, &here);
                    // The full export lost the dropped commits, nothing else.
                    let (_, blocks) = Repository::parse_car(&repo.export_car()).unwrap();
                    assert!(blocks.keys().all(|cid| blocks_before.contains_key(cid)));
                    let gone: Vec<&Vec<u8>> = blocks_before
                        .iter()
                        .filter(|(cid, _)| !blocks.contains_key(cid))
                        .map(|(_, bytes)| bytes)
                        .collect();
                    assert_eq!(gone.len(), dropped, "{here}");
                    assert!(gone.iter().all(|bytes| commit_summary(bytes).is_ok()));
                    // Idempotent.
                    assert_eq!(repo.compact_before(&cutoff), CompactionStats::default());
                    seen.3 += dropped;
                    let oldest = repo.commits[0].rev;
                    history.retain(|rev, _| *rev >= oldest);
                }
                if rng.below(6) == 0 && !repo.commits.is_empty() {
                    let since = repo.commits[rng.below(repo.commits.len() as u64) as usize].rev;
                    let (tree, car) = &history[&since];
                    let shipped = assert_full_delta_ships_the_node_difference(
                        &repo,
                        &since,
                        (tree, car),
                        &format!("{here} since {since}"),
                    );
                    seen.4 += usize::from(!shipped.is_empty());
                }
            }
        }
        let (committed, rejected, shared, compacted, node_deltas) = seen;
        assert!(
            committed > 700 && rejected > 40 && shared > 0 && compacted > 0 && node_deltas > 20,
            "the generator stopped reaching a case: {seen:?}"
        );
    }

    /// A repository holding one record of each of the nine kinds over
    /// several commits, so its archives carry commits, MST nodes and every
    /// shape of record block; returns it with a mid-history revision.
    fn nine_kind_repo() -> (Repository, Tid) {
        use crate::aturi::AtUri;
        use crate::record::*;
        let mut repo = new_repo("nine-kinds");
        let bob = Did::plc_from_seed(b"bob");
        let uri = AtUri::record(bob.clone(), post_nsid(), "3kdgeujwlq32y");
        let records = [
            post("a post"),
            Record::Like(LikeRecord {
                subject: uri.clone(),
                created_at: now(),
            }),
            Record::Repost(RepostRecord {
                subject: uri,
                created_at: now(),
            }),
            Record::Follow(FollowRecord {
                subject: bob.clone(),
                created_at: now(),
            }),
            Record::Block(BlockRecord {
                subject: bob.clone(),
                created_at: now(),
            }),
            Record::Profile(ProfileRecord {
                display_name: "Nine".into(),
                description: "kinds".into(),
                has_avatar: true,
                has_banner: false,
                created_at: now(),
            }),
            Record::FeedGenerator(FeedGeneratorRecord {
                service_did: bob,
                display_name: "feed".into(),
                description: "d".into(),
                created_at: now(),
            }),
            Record::LabelerService(LabelerServiceRecord {
                policies: vec![LabelValueDefinition {
                    value: "spoiler".into(),
                    severity: "inform".into(),
                    blurs: "content".into(),
                }],
                created_at: now(),
            }),
            Record::Unknown(UnknownRecord {
                record_type: Nsid::parse(known::WHTWND_ENTRY).unwrap(),
                value: Value::map([("title", Value::text("long-form"))]),
            }),
        ];
        let mut mid = None;
        for (i, record) in records.into_iter().enumerate() {
            repo.create_record(record.collection(), record, now().plus_seconds(i as i64))
                .unwrap();
            if i == 3 {
                mid = repo.rev();
            }
        }
        for i in 0..12 {
            repo.create_record(
                post_nsid(),
                post(&format!("filler {i}")),
                now().plus_days(1),
            )
            .unwrap();
        }
        (repo, mid.unwrap())
    }

    #[test]
    fn record_probe_agrees_with_the_decoder_on_every_exported_block() {
        let (repo, _) = nine_kind_repo();
        let car = repo.export_car();
        let (mut records, mut others) = (0, 0);
        for block in CarReader::new(&car).unwrap() {
            let (cid, bytes) = block.unwrap();
            let decodes = Record::from_cbor(bytes).is_ok();
            assert_eq!(Record::is_record_block(bytes), decodes, "{cid}");
            if decodes {
                records += 1;
            } else {
                others += 1;
            }
        }
        assert_eq!(records, repo.mst.iter().count());
        // Every retained commit and at least one MST node.
        assert!(others > repo.commits.len());
    }

    /// `parse_car` as it was before the borrowed reader existed: its own
    /// framing loop, an owned copy of every block and two digests per block.
    /// Kept as the oracle the reader is fuzzed against.
    fn reference_parse_car(bytes: &[u8]) -> Result<ParsedCar> {
        let (header_len, mut pos) = read_varint(bytes)?;
        let header_end = frame_end(pos, header_len, bytes.len())
            .ok_or_else(|| AtError::RepoError("truncated CAR header".into()))?;
        let header = cbor::decode(&bytes[pos..header_end])?;
        pos = header_end;
        let roots = header
            .get("roots")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_link)
            .copied()
            .collect();
        let mut blocks = BTreeMap::new();
        while pos < bytes.len() {
            let (len, read) = read_varint(&bytes[pos..])?;
            pos += read;
            let end = frame_end(pos, len, bytes.len())
                .filter(|_| len >= 36)
                .ok_or_else(|| AtError::RepoError("truncated CAR block".into()))?;
            let cid = Cid::from_bytes(&bytes[pos..pos + 36])?;
            let data = bytes[pos + 36..end].to_vec();
            if Cid::for_cbor(&data) != cid && Cid::for_raw(&data) != cid {
                return Err(AtError::RepoError("block does not match CID".into()));
            }
            blocks.insert(cid, data);
            pos = end;
        }
        Ok((roots, blocks))
    }

    #[test]
    fn car_reader_survives_mutation_and_agrees_with_the_reference_parser() {
        use crate::testrand::TestRng;
        let (repo, mid) = nine_kind_repo();
        let full = repo.export_car();
        let delta = repo.export_car_since(&mid, DeltaScope::Full).unwrap();
        let records_only = repo.export_car_since(&mid, DeltaScope::Records).unwrap();
        let mut rng = TestRng::new(0xca7_0001);
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..1_500u64 {
            let valid = [&full, &delta, &records_only][(round % 3) as usize];
            let mut car = valid.clone();
            let at = rng.below(car.len() as u64) as usize;
            match rng.below(6) {
                // Untouched: the valid archives must be accepted.
                0 => {}
                1 => car.truncate(at),
                2 => car[at] ^= 1 + rng.below(255) as u8,
                // A length varint of u64::MAX (or just under) spliced in.
                3 => {
                    let mut varint = Vec::new();
                    write_varint(u64::MAX - rng.below(40), &mut varint);
                    car.splice(at..at, varint);
                }
                // A block appended under the raw codec (accepted under its
                // own codec), or with the right digest under a codec that
                // is neither raw nor DAG-CBOR (rejected).
                kind => {
                    let data = rng.bytes(64);
                    let raw = Cid::for_raw(&data);
                    let cid = if kind == 4 {
                        raw
                    } else {
                        let mut bytes = raw.to_array();
                        bytes[1] = 0x70;
                        Cid::from_bytes(&bytes).unwrap()
                    };
                    let mut writer = CarWriter { out: car };
                    writer.block(&cid, &data);
                    car = writer.finish();
                }
            }
            let reference = reference_parse_car(&car);
            let read = CarReader::new(&car).and_then(|mut reader| {
                let mut blocks = Vec::new();
                for block in &mut reader {
                    blocks.push(block?);
                }
                // One error ends the iteration; so does the end of input.
                assert!(reader.next().is_none());
                Ok((reader.roots().to_vec(), blocks))
            });
            let parsed = Repository::parse_car(&car);
            assert_eq!(read.is_ok(), reference.is_ok(), "round {round}");
            assert_eq!(parsed.is_ok(), reference.is_ok(), "round {round}");
            let Ok((roots, blocks)) = read else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            let (reference_roots, reference_blocks) = reference.unwrap();
            assert_eq!(roots, reference_roots, "round {round}");
            let borrowed: BTreeMap<Cid, Vec<u8>> = blocks
                .iter()
                .map(|(cid, bytes)| (*cid, bytes.to_vec()))
                .collect();
            assert_eq!(borrowed, reference_blocks, "round {round}");
            assert_eq!(parsed.unwrap(), (reference_roots, reference_blocks));
            // Every slice really is a view into the input.
            let range = car.as_ptr_range();
            assert!(blocks
                .iter()
                .all(|(_, bytes)| bytes.is_empty() || range.contains(&bytes.as_ptr())));
        }
        assert!(accepted > 300 && rejected > 300, "{accepted} / {rejected}");
        // An error fuses the iterator even when valid frames follow it.
        let mut broken = full.clone();
        let header_end = {
            let (len, read) = read_varint(&broken).unwrap();
            read + len as usize
        };
        broken[header_end + 10] ^= 0xff; // inside the first block's CID
        let mut reader = CarReader::new(&broken).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX / 2,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let (back, read) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(read, buf.len());
        }
        assert!(read_varint(&[]).is_err());
        assert!(read_varint(&[0x80]).is_err());
    }
}
