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
//! Each commit additionally logs the CIDs of the record blocks it introduced,
//! so [`Repository::export_car_since`] can serve the
//! `com.atproto.sync.getRepo(did, since=rev)` delta path — only the records
//! created after a known revision — and [`Repository::apply_delta`] lets a
//! mirror reassemble the full archive from a cached CAR plus such a delta.
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
//! exactly the tree's distinct values, and no block needs a reference count:
//! the store's block count is the repository's record count
//! ([`Repository::record_blocks`]).
//!
//! A record block need not keep its bytes. A commit its owner can draw
//! again ([`Repository::apply_writes_drawn`] with a day: the simulated
//! world's user-days, each a pure function of the seed, the user and the
//! day) marks its new blocks with its day, a number of the owner's
//! choosing, and a release ([`Repository::release_before`]) lets the
//! in-memory store drop their bytes and keep only each block's slot. An
//! export that meets such a block asks the owner's [`RecordSource`] for
//! that day's writes, once per day, and serves a block only if it hashes to
//! the CID the tree holds under its key; anything else fails the export,
//! counted in [`Redraws`].
//!
//! Nor need the tree keep every node. The release then collapses each
//! frozen subtree whose values the store released to a stub (see
//! `crate::mst`), so the tree keeps its live spine: the right edges of its
//! collections, where new keys land, and the records no recipe draws (a
//! profile, a feed generator's declaration). A descent that meets a stub
//! draws it again through the same source: a full export and a `Full`
//! delta re-derive every stub on a copy of the tree, sharing each drawn day
//! with the released blocks they serve, and a write whose key falls in a
//! stub (never in a quiet study, whose keys land behind every stub) grafts
//! it back before it commits. A stub is accepted only if the keys drawn
//! inside its gap rebuild it to its CID: anything else fails the export or
//! the commit, counted as a mismatch in [`Redraws`], beside the subtrees
//! re-derived. A key whose block an earlier day wrote is drawn on its own
//! day, which the block's day does not name, so the repository remembers
//! those days; a commit no recipe draws that holds such a block keeps the
//! tree from collapsing at all.
//!
//! Order exists only where it reaches bytes or a store's read order, and is
//! made there: a full export sorts the record CIDs it frames (the tree's
//! distinct values), a delta export stages its blocks in a CID-ordered map,
//! and the archive parsers collect into ordered maps.
//!
//! A commit costs its batch, not its repository: the MST is updated in
//! place, hashing only the leaf-to-root paths the batch touched.
//!
//! ## Compaction
//!
//! [`Repository::compact_before`] bounds the grow-only history: commits (and
//! their log entries) older than a cutoff revision leave the delta-serving
//! window, and the store demotes its cold pages. No record block goes:
//! every one is the value of a key that stays. A release
//! ([`Repository::release_before`]) drops the *bytes* of the re-drawable
//! blocks committed under a day before a cutoff day, whether or not their
//! commits are still in the log, and collapses the subtrees that froze
//! with them; the blocks themselves stay, and exports draw them again. A
//! repository remembers the cutoff of its last release, so a second release
//! to the same or an earlier day costs nothing. The study's collector
//! compacts weekly from the first simulated day, so a repository's history
//! is bounded from its first commit, not from the day collection starts.
//! Inside its collection window the weekly mirror sync retires each
//! repository it lists right after fetching it: it compacts it, then
//! releases it, to the round's cutoff. A delta since a revision the mirror
//! holds then carries only blocks newer than the cutoff, and only full
//! exports re-draw. The invariant:
//! [`Repository::export_car_since`] still serves every retained
//! revision exactly; a request since a compacted revision fails with
//! [`AtError::RevisionCompacted`] so the caller can fall back to a full CAR
//! fetch *visibly* (the study pipeline surfaces these fallbacks in its
//! stream summary rather than hiding them). A pass costs the commits that
//! aged out, never the repository; a release costs the store's slots and
//! the tree's live spine.
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
use crate::cid::{Cid, CidMap, CidSet, CID_LEN, CODEC_DAG_CBOR, CODEC_RAW};
use crate::crypto::{sha256, Signature, SigningKey};
use crate::datetime::Datetime;
use crate::did::Did;
use crate::error::{AtError, Result};
use crate::mst::{validate_key, Mst};
use crate::nsid::Nsid;
use crate::record::Record;
use crate::tid::{Tid, TidClock};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A signed repository commit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Commit {
    /// The repository owner.
    pub(crate) did: Did,
    /// Commit format version (3 in the live network).
    pub(crate) version: u8,
    /// MST root CID after this commit.
    pub(crate) data: Cid,
    /// Revision TID, strictly increasing per repository.
    pub(crate) rev: Tid,
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
        raw::text(self.did.as_str(), out);
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
    pub(crate) cid: Cid,
}

impl RecordOp {
    /// The collection component of the key.
    pub fn collection(&self) -> &str {
        self.key.split('/').next().unwrap_or(&self.key)
    }
}

/// A write request handed to [`Repository::apply_writes_drawn`]. A repository
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

/// The outcome of applying a batch of writes: the new commit's revision and
/// CID plus the record operations, ready to be emitted on the firehose.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitResult {
    /// The new commit's revision.
    pub rev: Tid,
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
/// The MST node blocks dominate delta size: a consumer that keeps only the
/// record blocks (the §3 dataset mirror) skips them and verifies the head
/// commit alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaScope {
    /// The commits since + every live MST node + record blocks: everything
    /// a mirror needs to reassemble a full archive via
    /// [`Repository::apply_delta`].
    #[default]
    Full,
    /// Head commit + record blocks only: sufficient (and much smaller) for
    /// consumers that keep record blocks but not the tree.
    Records,
}

/// What a compaction pass dropped: the commits
/// [`Repository::compact_before`] drops, or the record bytes a release
/// lets go and the subtrees it collapses ([`Repository::release_before`]),
/// summed over a PDS or a fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Commits (and their log entries) dropped from the delta window.
    pub commits_dropped: usize,
    /// Payload bytes of re-drawable record blocks a release let go: the
    /// blocks stay, their bytes go, and an export draws them again. 0 from
    /// [`Repository::compact_before`], which drops no record block, and
    /// from a server lent no [`RecordSource`].
    pub bytes_reclaimed: usize,
    /// MST subtrees a release collapsed to their CID: a descent into one
    /// draws it again.
    pub subtrees_collapsed: usize,
}

impl CompactionStats {
    /// Fold another pass's stats into this one.
    pub fn absorb(&mut self, other: &CompactionStats) {
        self.commits_dropped += other.commits_dropped;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.subtrees_collapsed += other.subtrees_collapsed;
    }
}

/// Draws a repository's records again: the recipe of every commit its owner
/// marked re-drawable ([`Repository::apply_writes_drawn`]). The simulated
/// world lends one to the PDS fleet, which does not depend on it; an export
/// that meets a released block asks it for that block's day, and a descent
/// that meets a collapsed subtree for the days of its range.
pub trait RecordSource: std::fmt::Debug + Send + Sync {
    /// The writes of `did`'s re-drawable commit of `day` (the day number
    /// it was committed under), drawn again as they were committed; empty
    /// when there was none.
    fn redraw(&self, did: &Did, day: u16) -> Vec<Write>;
}

/// What exports and commits re-drew: the readings that keep a re-draw from
/// ever being silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Redraws {
    /// Released blocks served from a re-draw, each checked against the CID
    /// its tree holds.
    pub blocks: u64,
    /// Collapsed MST subtrees drawn again, each checked against its CID.
    pub subtrees: u64,
    /// Re-drawn records that did not hash to the CID the tree holds under
    /// their key, released blocks a re-draw did not yield, and collapsed
    /// subtrees that did not draw again to their CID. Each fails its export
    /// or commit: such a block or subtree is never served, nor left out.
    pub mismatches: u64,
}

impl Redraws {
    /// Fold other readings into these (counters add).
    pub fn absorb(&mut self, other: &Redraws) {
        self.blocks += other.blocks;
        self.subtrees += other.subtrees;
        self.mismatches += other.mismatches;
    }
}

/// The days one export or commit draws again through its owner's
/// [`RecordSource`], each day once: the released blocks an export serves and
/// the collapsed subtrees it re-derives share them.
struct Draws<'a> {
    did: &'a Did,
    source: Option<&'a dyn RecordSource>,
    store: &'a dyn BlockStore,
    /// The repository's [`Repository::borrowed_days`].
    borrowed: &'a [u16],
    /// Each day drawn so far: its records' keys, CIDs and bytes.
    days: BTreeMap<u16, Vec<(String, Cid, Vec<u8>)>>,
    /// The days the store released blocks of, once asked.
    released: Option<Vec<u16>>,
}

impl<'a> Draws<'a> {
    fn new(
        did: &'a Did,
        store: &'a dyn BlockStore,
        borrowed: &'a [u16],
        source: Option<&'a dyn RecordSource>,
    ) -> Draws<'a> {
        Draws {
            did,
            source,
            store,
            borrowed,
            days: BTreeMap::new(),
            released: None,
        }
    }

    /// Draw `day` again, or hand back what an earlier call drew of it.
    fn draw(&mut self, day: u16) -> Result<Vec<(String, Cid, Vec<u8>)>> {
        if let Some(drawn) = self.days.remove(&day) {
            return Ok(drawn);
        }
        let source = self.source.ok_or_else(|| {
            AtError::RepoError(format!(
                "{} released records and no record source draws them",
                self.did
            ))
        })?;
        let writes = source.redraw(self.did, day);
        let mut drawn = Vec::with_capacity(writes.len());
        for Write::Create {
            collection,
            rkey,
            record,
        } in writes
        {
            let mut bytes = Vec::new();
            record.encode_into(&mut bytes);
            drawn.push((record_key(&collection, &rkey), Cid::for_cbor(&bytes), bytes));
        }
        Ok(drawn)
    }

    /// The keys and values that re-derive a collapsed subtree whose values
    /// were drawn on days `first..=last`: those of the days in that range
    /// the store released blocks of (a day without one wrote nothing the
    /// subtree holds, or nothing at all), and of the borrowed days from
    /// `first` on, whose keys hold blocks of earlier days.
    fn pairs(&mut self, first: u16, last: u16) -> Result<Vec<(String, Cid)>> {
        let store = self.store;
        let released = self.released.get_or_insert_with(|| store.released_days());
        let mut days: Vec<u16> = released
            .iter()
            .copied()
            .filter(|day| (first..=last).contains(day))
            .chain(self.borrowed.iter().copied().filter(|&day| day >= first))
            .collect();
        days.sort_unstable();
        days.dedup();
        let mut pairs = Vec::new();
        for day in days {
            let drawn = self.draw(day)?;
            pairs.extend(drawn.iter().map(|(key, cid, _)| (key.clone(), *cid)));
            self.days.insert(day, drawn);
        }
        Ok(pairs)
    }
}

/// A user repository: block store + MST index + commit chain.
#[derive(Debug)]
pub struct Repository {
    did: Did,
    signing_key: SigningKey,
    /// The record index, updated in place, and the only copy of the tree:
    /// its node blocks are encoded from it when an archive is written. A
    /// release collapses its frozen subtrees to their CIDs, and a descent
    /// into one draws it again.
    mst: Mst,
    /// The record blocks, behind the pluggable store: exactly the tree's
    /// distinct values, since no key is ever removed or rewritten.
    store: Box<dyn BlockStore>,
    /// Retained commits (oldest first). Compaction drops the front.
    commits: Vec<Commit>,
    /// Aligned 1:1 with `commits`: the record blocks each commit first
    /// wrote, which a delta since any retained revision reads off the
    /// entries after it.
    log: Vec<Vec<Cid>>,
    /// CID of the head commit, cached so each new commit's `prev` pointer
    /// costs nothing (compaction only drops from the front, never the head).
    head_cid: Option<Cid>,
    /// Revision of the newest commit a compaction pass dropped; deltas since
    /// revisions at or below it must fall back to a full fetch.
    compacted_through: Option<Tid>,
    /// The cutoff day of the last release: a release to it or an earlier
    /// day has nothing left to do.
    released_through: u16,
    /// The days of re-drawable commits that hold, under a key of their own,
    /// a block an earlier commit wrote: a collapsed subtree draws such a
    /// key on its own day, which the block's day does not name.
    borrowed_days: Vec<u16>,
    /// Whether a release may collapse subtrees: not once a commit no recipe
    /// draws again holds a block an earlier commit wrote, since that block
    /// may be released while its key is drawn by no day.
    collapsible: bool,
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
        let seed = [did.as_str().as_bytes(), key_seed].concat();
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
            released_through: 0,
            borrowed_days: Vec::new(),
            collapsible: true,
            encode_buf: Vec::new(),
        }
    }

    /// The repository owner.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// The record blocks the repository serves: its tree's distinct values,
    /// which are exactly the store's blocks, whether it holds their bytes or
    /// released them.
    pub fn record_blocks(&self) -> usize {
        self.store.len()
    }

    /// The distinct values of `tree` (this repository's, with no stub),
    /// sorted: the archive frames its record blocks in ascending CID order,
    /// and a paged store is read in that order.
    fn record_cids(&self, tree: &Mst) -> Vec<Cid> {
        let mut cids: Vec<Cid> = Vec::with_capacity(self.store.len());
        tree.for_each_entry(|_, cid| cids.push(cid));
        cids.sort_unstable();
        cids.dedup();
        cids
    }

    /// The tree to read whole: this one, or, when it holds stubs, a copy
    /// with every stub drawn again through `draws` and grafted back. A
    /// stub that does not draw again to its CID fails the read.
    fn whole_tree(&self, draws: &mut Draws<'_>, tally: &mut Redraws) -> Result<Cow<'_, Mst>> {
        if self.mst.stubs() == 0 {
            return Ok(Cow::Borrowed(&self.mst));
        }
        let mut tree = self.mst.clone();
        let expanded = tree.expand(&mut |first, last| draws.pairs(first, last));
        tally.subtrees += *expanded.as_ref().unwrap_or(&0) as u64;
        tally.mismatches += u64::from(expanded.is_err());
        expanded.map(|_| Cow::Owned(tree))
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

    /// Fetch a record by collection and rkey: `None` when absent, and when
    /// the store released its bytes (only an export draws those again), as
    /// it did for every record under a collapsed subtree.
    pub fn get_record(&self, collection: &Nsid, rkey: &str) -> Option<Record> {
        let cid = self.mst.get_live(&record_key(collection, rkey))?;
        let bytes = self.store.get(&cid)?;
        Record::from_cbor(&bytes).ok()
    }

    /// [`Repository::apply_writes_drawn`] of a batch no recipe draws again,
    /// without a source: a key that falls in a collapsed subtree fails it.
    pub(crate) fn apply_writes(&mut self, writes: &[Write], now: Datetime) -> Result<CommitResult> {
        self.apply_writes_drawn(writes, now, None, None, &mut Redraws::default())
    }

    /// Apply a batch of record creations, producing a new signed commit.
    ///
    /// The batch is validated before its first mutation: every key must be
    /// a valid MST key, absent from the tree, and named once in the batch.
    /// A batch that passes is applied with no failure path, so a rejected
    /// batch leaves the repository's contents exactly as they were. Records
    /// are stored in write order; the commit's ops list the batch's keys in
    /// key order. A collapsed subtree a key of the batch falls in is drawn
    /// again through `source` first (counted into `tally`; one that does
    /// not draw again to its CID, or with no source, fails the batch).
    ///
    /// With a `day`, the batch is one its owner can draw again as the recipe of
    /// `day`, a day number of the owner's choosing (the simulated world's
    /// day index): the store may release the bytes of the blocks it adds
    /// once a release's cutoff day is past `day`
    /// ([`Repository::release_before`]), and an export then asks a
    /// [`RecordSource`] for the writes of `day`. One such commit per day:
    /// the day is the recipe's key.
    pub fn apply_writes_drawn(
        &mut self,
        writes: &[Write],
        now: Datetime,
        day: Option<u16>,
        source: Option<&dyn RecordSource>,
        tally: &mut Redraws,
    ) -> Result<CommitResult> {
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
        }
        let mut draws = Draws::new(&self.did, &*self.store, &self.borrowed_days, source);
        for key in &keys {
            let held = if self.mst.stubs() == 0 {
                self.mst.get(key)
            } else {
                let opened = self
                    .mst
                    .open(key, &mut |first, last| draws.pairs(first, last));
                tally.subtrees += opened.as_ref().map_or(0, |&(count, _)| count as u64);
                tally.mismatches += u64::from(opened.is_err());
                opened?.1
            };
            if held.is_some() {
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
        let mut fresh_blocks: Vec<Cid> = Vec::with_capacity(writes.len());
        let mut ops: Vec<RecordOp> = Vec::with_capacity(writes.len());
        for (key, Write::Create { record, .. }) in keys.into_iter().zip(writes) {
            self.encode_buf.clear();
            record.encode_into(&mut self.encode_buf);
            let cid = Cid::for_cbor(&self.encode_buf);
            bytes_written += self.encode_buf.len();
            // Content another key already holds is stored once.
            let fresh = match day {
                Some(day) => self.store.put_redrawable(cid, &self.encode_buf, day),
                None => self.store.put_slice(cid, &self.encode_buf),
            };
            if fresh {
                fresh_blocks.push(cid);
            } else if !fresh_blocks.contains(&cid) {
                // An earlier commit wrote this block: the key is drawn on
                // this commit's day, not on the block's.
                match day {
                    Some(day) if self.borrowed_days.last() != Some(&day) => {
                        self.borrowed_days.push(day)
                    }
                    Some(_) => {}
                    None => self.collapsible = false,
                }
            }
            let prior = self.mst.set(&key, cid);
            debug_assert!(prior.is_none(), "{key} was validated as absent");
            ops.push(RecordOp { key, cid });
        }
        ops.sort_unstable_by(|a, b| a.key.cmp(&b.key));

        let rev = self.clock.next(now);
        let mut commit = Commit {
            did: self.did.clone(),
            version: 3,
            data: self.mst.root_cid(),
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
        self.commits.push(commit);
        self.log.push(fresh_blocks);
        Ok(CommitResult {
            rev,
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
    ///
    /// # Panics
    ///
    /// When the store released blocks: such a repository is exported with
    /// its owner's source, through [`Repository::export_car_drawn`].
    pub fn export_car(&self) -> Vec<u8> {
        self.export_car_drawn(None, &mut Redraws::default())
            .expect("a repository that released no block exports without a record source")
    }

    /// [`Repository::export_car`], drawing every released block again
    /// through `source`, one re-draw per day, and counting into `tally`.
    /// Errors when a re-drawn record does not hash to the CID the tree
    /// holds under its key, when a released block is not re-drawn, or when
    /// blocks were released and there is no source: a released block is
    /// never served unchecked, nor left out.
    pub fn export_car_drawn(
        &self,
        source: Option<&dyn RecordSource>,
        tally: &mut Redraws,
    ) -> Result<Vec<u8>> {
        let mut draws = Draws::new(&self.did, &*self.store, &self.borrowed_days, source);
        let tree = self.whole_tree(&mut draws, tally)?;
        let record_cids = self.record_cids(&tree);
        let drawn = self.redraw_released(Some(&tree), &record_cids, &mut draws, tally)?;
        drop(draws);
        let roots: Vec<Cid> = self.head_cid.into_iter().collect();
        let mut car = CarWriter::new(&roots, None);
        for commit in &self.commits {
            let bytes = commit.to_cbor();
            car.block(&Cid::for_cbor(&bytes), &bytes);
        }
        tree.for_each_block(|cid, bytes| car.block(cid, bytes));
        for cid in &record_cids {
            match drawn.get(cid) {
                Some(bytes) => car.block(cid, bytes),
                None => {
                    if let Some(bytes) = self.store.get(cid) {
                        car.block(cid, &bytes);
                    }
                }
            }
        }
        Ok(car.finish())
    }

    /// The bytes of every block of `cids` the store released, drawn again
    /// through `draws`, once per day, and each checked against the CID
    /// `tree` holds under the key it was drawn for. `tree` is this
    /// repository's with no stub; `None` reads this one's, re-derived whole
    /// only if anything is drawn. Empty, with no source asked, when none
    /// was released; an error when any check fails (see
    /// [`Repository::export_car_drawn`]).
    fn redraw_released(
        &self,
        tree: Option<&Mst>,
        cids: &[Cid],
        draws: &mut Draws<'_>,
        tally: &mut Redraws,
    ) -> Result<CidMap<Vec<u8>>> {
        let mut wanted = CidSet::default();
        let mut days: Vec<u16> = Vec::new();
        for cid in cids {
            if let Some(day) = self.store.released_on(cid) {
                wanted.insert(*cid);
                days.push(day);
            }
        }
        let mut drawn = CidMap::default();
        if wanted.is_empty() {
            return Ok(drawn);
        }
        let whole;
        let tree = match tree {
            Some(tree) => tree,
            None => {
                whole = self.whole_tree(draws, tally)?;
                &*whole
            }
        };
        days.sort_unstable();
        days.dedup();
        let mut mismatches = 0u64;
        for day in days {
            for (key, cid, bytes) in draws.draw(day)? {
                if tree.get(&key) != Some(cid) {
                    mismatches += 1;
                } else if wanted.contains(&cid) {
                    drawn.entry(cid).or_insert(bytes);
                }
            }
        }
        mismatches += (wanted.len() - drawn.len()) as u64;
        tally.blocks += drawn.len() as u64;
        tally.mismatches += mismatches;
        if mismatches > 0 {
            return Err(AtError::RepoError(format!(
                "{}: {mismatches} re-drawn record(s) do not match the CIDs its tree holds",
                self.did
            )));
        }
        Ok(drawn)
    }

    /// `com.atproto.sync.getRepo(did, since=rev)`: export what a consumer
    /// synced to `since` is missing — the commits after `since`
    /// ([`DeltaScope::Records`] trims this to the head commit alone, which
    /// is all a records-only consumer verifies), every node of the live
    /// tree ([`DeltaScope::Full`] only), and every record block written
    /// after `since`. A [`DeltaScope::Full`] delta applied to a full
    /// archive at `since` therefore yields a superset of a fresh full
    /// export: commit chain, live tree and record store all intact.
    ///
    /// Errors when `since` is not a revision of this repository (a rewound
    /// or replaced repo, or a revision predating a takedown) — or, as
    /// [`AtError::RevisionCompacted`], when a compaction pass dropped it
    /// from the delta-serving window: either way the caller must fall back
    /// to a full [`Repository::export_car`] fetch. A `since` equal to the
    /// head revision yields an empty delta (header only).
    pub fn export_car_since(&self, since: &Tid, scope: DeltaScope) -> Result<Vec<u8>> {
        self.export_car_since_drawn(since, scope, None, &mut Redraws::default())
    }

    /// [`Repository::export_car_since`], drawing any released block again
    /// as [`Repository::export_car_drawn`] does. A delta since a revision
    /// newer than a release's cutoff carries only blocks newer than it, so
    /// it re-draws nothing.
    pub fn export_car_since_drawn(
        &self,
        since: &Tid,
        scope: DeltaScope,
        source: Option<&dyn RecordSource>,
        tally: &mut Redraws,
    ) -> Result<Vec<u8>> {
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
        let mut draws = Draws::new(&self.did, &*self.store, &self.borrowed_days, source);
        let mut tree = None;
        let newer = &self.commits[index + 1..];
        if !newer.is_empty() {
            blocks.insert(head_cid, head.to_cbor());
            if scope == DeltaScope::Full {
                // The intermediate commits too, so the merged archive's
                // `prev` chain never dangles.
                for commit in newer {
                    let bytes = commit.to_cbor();
                    blocks.insert(Cid::for_cbor(&bytes), bytes);
                }
                let whole = tree.insert(self.whole_tree(&mut draws, tally)?);
                whole.for_each_block(|cid, bytes| {
                    blocks.insert(*cid, bytes.to_vec());
                });
            }
        }
        let record_cids: Vec<Cid> = self.log[index + 1..].concat();
        let mut drawn = self.redraw_released(tree.as_deref(), &record_cids, &mut draws, tally)?;
        for cid in &record_cids {
            // A block the store cannot return is left out, as the full
            // export leaves it out.
            if let Some(bytes) = drawn.remove(cid).or_else(|| self.store.get(cid)) {
                blocks.insert(*cid, bytes);
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
    ///   of a key, and no key is ever removed or rewritten. (Their bytes may
    ///   go in a release, [`Repository::release_before`].)
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
    /// Idempotent: a second pass with the same cutoff drops nothing. The
    /// study's collector passes `today − 14 days` every 7 days from the
    /// first simulated day; inside its collection window the mirror sync
    /// passes it to each repository it lists right after syncing its head,
    /// which a pass keeps, and then releases the repository.
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
                // Draining keeps the capacity of the longest history; give
                // back what more than doubles the retained window.
                self.commits.shrink_to(2 * self.commits.len());
                self.log.shrink_to(2 * self.log.len());
                stats.commits_dropped = floor;
            }
        }
        self.store.evict_cold();
        stats
    }

    /// Release the bytes of every re-drawable record block
    /// ([`Repository::apply_writes_drawn`]) committed under a day before
    /// `day`, whether or not its commit is still in the log, then collapse
    /// each frozen subtree whose values are all released to a stub (see
    /// `crate::mst`). Each block stays in the tree and the store, which
    /// keeps only its slot, so `getRepo` answers the same; an export draws
    /// it, and the stubs, again through its owner's [`RecordSource`].
    /// Returns the payload bytes released and the subtrees collapsed. A
    /// release to the cutoff of the last one, or to an earlier day, does
    /// nothing. The caller holds that source: a repository released without
    /// one cannot be exported. The study's mirror sync releases each
    /// repository it lists right after compacting it, once the mirror holds
    /// every record the release lets go.
    pub fn release_before(&mut self, day: u16) -> CompactionStats {
        let mut stats = CompactionStats::default();
        if day <= self.released_through {
            return stats;
        }
        self.released_through = day;
        stats.bytes_reclaimed = self.store.release_before(day);
        if stats.bytes_reclaimed > 0 && self.collapsible {
            let store = &*self.store;
            stats.subtrees_collapsed = self.mst.collapse(&|cid| store.released_on(&cid));
        }
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
/// needing the full `Commit` struct (delta consumers hold raw blocks).
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
            .collection_entries(collection.as_str())
            .into_iter()
            .filter_map(|(key, cid)| {
                let rkey = key.rsplit('/').next()?.to_string();
                let record = Record::from_cbor(&self.store.get(&cid)?).ok()?;
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
        assert_eq!(repo.mst.entries().len(), 1);
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
        assert_eq!(*repo.log.last().unwrap(), stored);
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
        assert_eq!(repo.mst.entries().len(), 3);
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
        for (_, cid) in repo.mst.entries() {
            assert!(blocks.contains_key(&cid));
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
        // The head commit and the whole live tree are in the merged store.
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
        // store) and frames everything, every live node included, ascending.
        let store = ReadLog::default();
        let gets = store.gets.clone();
        let did = Did::plc_from_seed(b"read-order");
        let mut repo = Repository::with_store(did, b"network-secret", Box::new(store));
        for i in 0..40 {
            repo.create_record(post_nsid(), post(&format!("base {i}")), now())
                .unwrap();
        }
        let since = repo.rev().unwrap();
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

        let written: Vec<Cid> = repo.log.concat();
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
        let log_order: Vec<Cid> = repo.log[commits_at_since..].concat();
        assert!(!ascending(&log_order));
        assert_eq!(take_gets(), log_order);
        let framed = frames(&delta);
        assert!(ascending(&framed));
        let nodes = tree_blocks(&repo.mst);
        assert!(nodes.len() > 1 && nodes.keys().all(|cid| framed.contains(cid)));
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
        let layout = repo.mst.layout();
        let car = repo.export_car();
        let stats = repo.store_stats();
        let rev = repo.rev();
        for (case, batch) in &rejected {
            assert!(repo.apply_writes(batch, now()).is_err(), "{case}");
            assert_eq!(repo.export_car(), car, "{case}");
            assert_eq!(repo.store_stats(), stats, "{case}");
            assert_eq!(repo.rev(), rev, "{case}");
            assert!(repo.mst == tree && repo.mst.root_cid() == tree.root_cid());
            assert_eq!(repo.mst.layout(), layout, "{case}");
        }
        let fresh_cid = Cid::for_cbor(&post("lands last").to_cbor());
        assert!(!repo.store.has(&fresh_cid));
        // The next commit logs its one record and commits to the root the
        // reference rebuild gives, with nothing left over from the rejected
        // batches.
        repo.apply_writes(&[fresh], now()).unwrap();
        assert_eq!(repo.head().unwrap().data, repo.mst.build_with(true).0);
        assert_eq!(*repo.log.last().unwrap(), [fresh_cid]);
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
            ..CompactionStats::default()
        };
        assert_eq!(stats, expected);
        assert_eq!(repo.commits.len(), 2);
        assert_eq!(repo.log.len(), repo.commits.len());
        assert_eq!(repo.compacted_through, Some(expected_floor));
        assert!(repo.commits.capacity() <= 2 * repo.commits.len());
        assert!(repo.log.capacity() <= 2 * repo.log.len());
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

    /// A stub [`RecordSource`]: each day's writes, kept as they were
    /// committed; `tamper` changes the first post's text on the way out.
    #[derive(Debug, Default)]
    struct DayRecipes {
        days: BTreeMap<u16, Vec<Write>>,
        tamper: bool,
    }

    impl RecordSource for DayRecipes {
        fn redraw(&self, _did: &Did, day: u16) -> Vec<Write> {
            let mut writes = self.days.get(&day).cloned().unwrap_or_default();
            if let (
                true,
                Some(Write::Create {
                    record: Record::Post(post),
                    ..
                }),
            ) = (self.tamper, writes.first_mut())
            {
                post.text.push('!');
            }
            writes
        }
    }

    /// Two repositories with one history: a profile no recipe draws, then
    /// twelve days of three posts each, which `kept` commits as they are
    /// and `released` as re-drawable, each day's writes in the recipes.
    /// Returns both, the recipes and the revision of day 8.
    fn twelve_days() -> (Repository, Repository, DayRecipes, Tid) {
        let did = Did::plc_from_seed(b"tess");
        let (mut kept, mut released) = (
            Repository::new(did.clone(), b"k"),
            Repository::new(did.clone(), b"k"),
        );
        let mut recipes = DayRecipes::default();
        let profile = Write::Create {
            collection: post_nsid(),
            rkey: "self".into(),
            record: post("not drawn again"),
        };
        for repo in [&mut kept, &mut released] {
            repo.apply_writes(std::slice::from_ref(&profile), now())
                .unwrap();
        }
        let mut cutoff_rev = None;
        for day in 0..12i64 {
            let at = now().plus_days(day).plus_seconds(60);
            // Every third day repeats a post another day wrote: its block
            // is stored once, under the day that wrote it first.
            let text = if day % 3 == 2 {
                "again".to_string()
            } else {
                format!("day {day}")
            };
            let writes: Vec<Write> = (0..3)
                .map(|n| Write::Create {
                    collection: post_nsid(),
                    rkey: format!("d{day:02}n{n}"),
                    record: Record::Post(PostRecord::simple(
                        if n == 0 {
                            text.as_str()
                        } else {
                            "same every day"
                        },
                        "en",
                        now(),
                    )),
                })
                .collect();
            kept.apply_writes(&writes, at).unwrap();
            let result = released
                .apply_writes_drawn(&writes, at, Some(day as u16), None, &mut Redraws::default())
                .unwrap();
            recipes.days.insert(day as u16, writes);
            if day == 8 {
                cutoff_rev = Some(result.rev);
            }
        }
        (kept, released, recipes, cutoff_rev.unwrap())
    }

    /// Two repositories with one history, but one commits its days as
    /// re-drawable and then releases them: each full export is the other's,
    /// byte for byte, every released block re-drawn once and checked; a
    /// delta since a kept revision re-draws nothing; and a source that
    /// draws the wrong bytes, draws nothing, or is missing fails the export.
    #[test]
    fn released_blocks_export_as_if_kept() {
        let (mut kept, mut released, recipes, since) = twelve_days();
        let cutoff = 8;
        let (full, delta) = (
            kept.export_car(),
            kept.export_car_since(&since, DeltaScope::Full).unwrap(),
        );
        let before = released.store_stats();

        let freed = released.release_before(cutoff);
        assert!(freed.bytes_reclaimed > 0);
        let collapsed = freed.subtrees_collapsed as u64;
        assert!(collapsed > 0, "{freed:?}");
        let after = released.store_stats();
        assert_eq!(
            after.logical_bytes,
            before.logical_bytes - freed.bytes_reclaimed
        );
        assert_eq!(after.blocks, before.blocks, "a released block stays");
        assert_eq!(
            released.release_before(cutoff),
            CompactionStats::default(),
            "idempotent"
        );
        let mut tally = Redraws::default();
        let drawn = released.export_car_drawn(Some(&recipes), &mut tally);
        assert_eq!(drawn.unwrap(), full);
        // Days 0 to 7: six first posts, one "again", one "same every day";
        // and every collapsed subtree, drawn again from the same days.
        assert_eq!(
            tally,
            Redraws {
                blocks: 8,
                subtrees: collapsed,
                mismatches: 0
            }
        );
        assert_eq!(
            released.mst.stubs() as u64,
            collapsed,
            "an export grafts nothing"
        );
        // A `Full` delta since a kept revision ships the live tree, so it
        // draws the collapsed subtrees again, and no released block; a
        // `Records` delta draws nothing.
        let mut quiet = Redraws::default();
        let since_drawn =
            released.export_car_since_drawn(&since, DeltaScope::Full, Some(&recipes), &mut quiet);
        assert_eq!(since_drawn.unwrap(), delta);
        let subtrees_only = Redraws {
            subtrees: collapsed,
            ..Redraws::default()
        };
        assert_eq!(quiet, subtrees_only);
        let mut quiet = Redraws::default();
        let records =
            released.export_car_since_drawn(&since, DeltaScope::Records, None, &mut quiet);
        assert_eq!(
            records.unwrap(),
            kept.export_car_since(&since, DeltaScope::Records).unwrap()
        );
        assert_eq!(quiet, Redraws::default());
        // Drawn after the cutoff's day: its bytes are still held.
        let recent = kept.mst.get("app.bsky.feed.post/d10n0").unwrap();
        assert!(released.store.get(&recent).is_some());

        // Wrong bytes, no bytes, no source: a loud failure, counted.
        let tampered = DayRecipes {
            tamper: true,
            ..recipes
        };
        let mut tally = Redraws::default();
        assert!(released
            .export_car_drawn(Some(&tampered), &mut tally)
            .is_err());
        assert!(tally.mismatches > 0, "{tally:?}");
        let mut tally = Redraws::default();
        assert!(released
            .export_car_drawn(Some(&DayRecipes::default()), &mut tally)
            .is_err());
        assert_eq!(
            tally,
            Redraws {
                blocks: 0,
                subtrees: 0,
                mismatches: 1
            },
            "the first collapsed subtree fails to draw again"
        );
        assert!(released
            .export_car_drawn(None, &mut Redraws::default())
            .is_err());
        // Only the export that meets a released block needs the source.
        assert_eq!(
            kept.export_car_drawn(None, &mut Redraws::default())
                .unwrap(),
            full
        );

        // A write that lands in a collapsed subtree draws it again first
        // and then commits what the repository that kept everything
        // commits. Drawn wrong, or with no source, the subtree fails the
        // batch, counted, and the contents stay as they were.
        let recipes = DayRecipes {
            tamper: false,
            ..tampered
        };
        let tampered = DayRecipes {
            tamper: true,
            days: recipes.days.clone(),
        };
        let inside = [create("d03n5", "lands in a collapsed subtree")];
        let (at, stubs) = (now().plus_days(20), released.mst.stubs());
        let mut tally = Redraws::default();
        let wrong = released.apply_writes_drawn(&inside, at, None, Some(&tampered), &mut tally);
        assert!(wrong.is_err());
        assert_eq!(tally.mismatches, 1, "{tally:?}");
        assert!(released.apply_writes(&inside, at).is_err());
        assert_eq!(released.mst.stubs(), stubs);
        assert_eq!(released.rev(), kept.rev());
        kept.apply_writes(&inside, at).unwrap();
        let mut tally = Redraws::default();
        released
            .apply_writes_drawn(&inside, at, None, Some(&recipes), &mut tally)
            .unwrap();
        assert_eq!((tally.subtrees, tally.mismatches), (1, 0), "{tally:?}");
        assert_eq!(released.mst.stubs(), stubs - 1);
        let drawn = released.export_car_drawn(Some(&recipes), &mut Redraws::default());
        assert_eq!(drawn.unwrap(), kept.export_car());
    }

    /// Where nothing collapses, each released block an export serves is
    /// checked on its own, against the CID the tree holds under the key it
    /// was drawn for: a commit no recipe draws, holding a block day 0
    /// wrote, keeps the tree whole, so every released key stays on the
    /// live tree. An empty source leaves each released block undrawn; a
    /// tampered one draws each day's first post to bytes its key does not
    /// hold, and so leaves those blocks undrawn too.
    #[test]
    fn released_blocks_are_checked_one_by_one_where_nothing_collapses() {
        let (mut kept, mut released, recipes, since) = twelve_days();
        let borrowed = Write::Create {
            collection: post_nsid(),
            rkey: "zz".into(),
            record: Record::Post(PostRecord::simple("same every day", "en", now())),
        };
        for repo in [&mut kept, &mut released] {
            repo.apply_writes(std::slice::from_ref(&borrowed), now().plus_days(12))
                .unwrap();
        }
        let freed = released.release_before(8);
        assert!(freed.bytes_reclaimed > 0);
        assert_eq!(freed.subtrees_collapsed, 0);
        assert_eq!(released.mst.stubs(), 0);

        let mut tally = Redraws::default();
        let drawn = released.export_car_drawn(Some(&recipes), &mut tally);
        assert_eq!(drawn.unwrap(), kept.export_car());
        let eight = Redraws {
            blocks: 8,
            subtrees: 0,
            mismatches: 0,
        };
        assert_eq!(tally, eight);
        let mut quiet = Redraws::default();
        let since_drawn =
            released.export_car_since_drawn(&since, DeltaScope::Full, Some(&recipes), &mut quiet);
        assert_eq!(
            since_drawn.unwrap(),
            kept.export_car_since(&since, DeltaScope::Full).unwrap()
        );
        assert_eq!(quiet, Redraws::default());

        // Drawn by no day: all eight released blocks.
        let mut tally = Redraws::default();
        assert!(released
            .export_car_drawn(Some(&DayRecipes::default()), &mut tally)
            .is_err());
        let undrawn = Redraws {
            blocks: 0,
            subtrees: 0,
            mismatches: 8,
        };
        assert_eq!(tally, undrawn);
        // Tampered: days 0 to 4, 6 and 7 are drawn, and each draws its first
        // post wrong (seven keys whose CIDs do not match), which leaves
        // seven released blocks undrawn; "same every day" draws right.
        let tampered = DayRecipes {
            tamper: true,
            ..recipes
        };
        let mut tally = Redraws::default();
        assert!(released
            .export_car_drawn(Some(&tampered), &mut tally)
            .is_err());
        let wrong = Redraws {
            blocks: 1,
            subtrees: 0,
            mismatches: 14,
        };
        assert_eq!(tally, wrong);
    }

    #[test]
    fn compaction_gives_back_the_capacity_of_a_long_history() {
        // A year of daily commits compacted to its last week: the commit
        // list and its log hold at most twice what they retain, and the
        // retained commits and their deltas are untouched.
        let mut repo = new_repo("saul");
        for day in 0..365 {
            repo.create_record(post_nsid(), post(&format!("d{day}")), now().plus_days(day))
                .unwrap();
        }
        let kept = repo.commits[358..].to_vec();
        let since = kept[0].rev;
        let delta = repo.export_car_since(&since, DeltaScope::Full).unwrap();
        let stats = repo.compact_before(&since);
        assert_eq!(stats.commits_dropped, 358);
        assert_eq!(repo.commits, kept);
        assert_eq!(repo.log.len(), kept.len());
        assert!(repo.commits.capacity() <= 2 * kept.len());
        assert!(repo.log.capacity() <= 2 * kept.len());
        assert_eq!(
            repo.export_car_since(&since, DeltaScope::Full).unwrap(),
            delta
        );
        assert_eq!(decoded_records(&repo.export_car()).len(), 365);
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
        let values: BTreeSet<Cid> = repo.mst.entries().into_iter().map(|(_, cid)| cid).collect();
        assert_eq!(repo.store.len(), values.len(), "{at}");
        assert!(values.iter().all(|cid| repo.store.has(cid)), "{at}");
        assert!(
            tree_blocks(&repo.mst)
                .keys()
                .all(|cid| !repo.store.has(cid)),
            "{at}"
        );
    }

    /// The delta oracle: a `Full` delta since `since`, when the full
    /// archive was `car_then`, carries every node of the live tree with the
    /// bytes a rebuild from scratch encodes (none when `since` is the head),
    /// and applied to `car_then` holds every block of a fresh full export.
    /// Returns the number of node blocks it carries.
    fn assert_full_delta_ships_the_live_tree(
        repo: &Repository,
        since: &Tid,
        car_then: &[u8],
        at: &str,
    ) -> usize {
        let delta = repo.export_car_since(since, DeltaScope::Full).unwrap();
        let shipped = node_blocks(&delta);
        if repo.rev() == Some(*since) {
            assert!(shipped.is_empty(), "{at}");
        } else {
            assert_eq!(shipped, tree_blocks(&repo.mst), "{at}");
        }
        let merged = Repository::apply_delta(car_then, &delta).unwrap();
        let (roots, merged) = Repository::parse_car(&merged).unwrap();
        let (head_roots, head) = Repository::parse_car(&repo.export_car()).unwrap();
        assert_eq!(roots, head_roots, "{at}");
        for (cid, bytes) in &head {
            assert_eq!(merged.get(cid), Some(bytes), "{at}");
        }
        shipped.len()
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
        // `Full` delta since a random retained revision ships the live tree
        // as the reference rebuild encodes it.
        use crate::testrand::TestRng;
        let collections = [post_nsid(), Nsid::parse(known::LIKE).unwrap()];
        let mut seen = (0, 0, 0, 0, 0); // see the final assert
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let mut rng = TestRng::new(seed);
            let mut repo = new_repo(&format!("oracle-{seed}"));
            // The full archive at every retained revision.
            let mut history: BTreeMap<Tid, Vec<u8>> = BTreeMap::new();
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
                    let present: Vec<String> =
                        repo.mst.entries().into_iter().map(|(key, _)| key).collect();
                    let bad = match rng.below(3) {
                        0 if !present.is_empty() => {
                            let key = &present[rng.below(present.len() as u64) as usize];
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
                        history.insert(repo.rev().unwrap(), repo.export_car());
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
                seen.2 += usize::from(repo.store.len() < repo.mst.entries().len());
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
                    let at = format!("{here} since {since}");
                    let shipped =
                        assert_full_delta_ships_the_live_tree(&repo, &since, &history[&since], &at);
                    seen.4 += usize::from(shipped > 0);
                }
            }
        }
        let (committed, rejected, shared, compacted, tree_deltas) = seen;
        assert!(
            committed > 700 && rejected > 40 && shared > 0 && compacted > 0 && tree_deltas > 20,
            "the generator stopped reaching a case: {seen:?}"
        );
    }

    /// What a records-only mirror relies on to keep no CID: a `Records`
    /// delta since any retained revision `r` carries no record block the
    /// full export at `r` holds, and the two together are the head's full
    /// export. Seeded re-drawable days over a small content pool, so a
    /// later day's key often holds a block an earlier day wrote (the
    /// repository's borrowed days), with compaction passes in between.
    #[test]
    fn a_records_delta_carries_no_record_the_export_at_its_revision_holds() {
        use crate::testrand::TestRng;
        let records = |car: &[u8]| -> BTreeSet<Cid> {
            let (_, blocks) = Repository::parse_car(car).unwrap();
            let blocks = blocks.into_iter();
            blocks
                .filter(|(_, bytes)| Record::is_record_block(bytes))
                .map(|(cid, _)| cid)
                .collect()
        };
        let collections = [post_nsid(), Nsid::parse(known::LIKE).unwrap()];
        for seed in [0xde17_a001u64, 0xde17_a002] {
            let mut rng = TestRng::new(seed);
            let mut repo = new_repo(&format!("delta-{seed}"));
            // The record blocks of the full export at every revision.
            let mut history: BTreeMap<Tid, BTreeSet<Cid>> = BTreeMap::new();
            for day in 0..60u16 {
                let at = now().plus_days(i64::from(day));
                let writes: Vec<Write> = (0..1 + rng.below(4))
                    .map(|n| Write::Create {
                        collection: collections[rng.below(2) as usize].clone(),
                        rkey: format!("d{day:03}n{n}"),
                        record: post(&format!("content {}", rng.below(12))),
                    })
                    .collect();
                let mut tally = Redraws::default();
                let result = repo
                    .apply_writes_drawn(&writes, at, Some(day), None, &mut tally)
                    .unwrap();
                history.insert(result.rev, records(&repo.export_car()));
                if rng.below(10) == 0 {
                    let index = rng.below(repo.commits.len() as u64) as usize;
                    repo.compact_before(&repo.commits[index].rev.clone());
                }
            }
            assert!(!repo.borrowed_days.is_empty(), "seed {seed}");
            assert!(repo.compacted_through.is_some(), "seed {seed}");
            assert!(
                repo.commits.len() >= 5,
                "seed {seed}: {}",
                repo.commits.len()
            );
            let head = records(&repo.export_car());
            for commit in &repo.commits {
                let since = commit.rev;
                let delta = repo.export_car_since(&since, DeltaScope::Records).unwrap();
                let (then, carried) = (&history[&since], records(&delta));
                assert!(then.is_disjoint(&carried), "seed {seed} since {since}");
                let union: BTreeSet<Cid> = then.union(&carried).copied().collect();
                assert_eq!(union, head, "seed {seed} since {since}");
            }
        }
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
        assert_eq!(records, repo.mst.entries().len());
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
