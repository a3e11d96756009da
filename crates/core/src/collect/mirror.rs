//! The incremental repository mirror: the snapshot protocol.
//!
//! The repositories dataset is kept the way a real AT Protocol mirror stays
//! current. An `IncrementalRepoMirror` rides along with the weekly
//! `sync.listRepos` snapshots:
//!
//! 1. every `listRepos` page carries each repo's latest revision TID; the
//!    mirror compares it with the revision its state is synced to;
//! 2. an unchanged revision costs **zero** fetches; a changed one is
//!    fetched as a `com.atproto.sync.getRepo(did, since=rev)` **delta** —
//!    the head commit plus the record blocks created after the mirror's
//!    revision (`DeltaScope::Records`: this mirror keeps what the study
//!    reads of each record, so it skips the MST node blocks a full-fidelity
//!    block mirror would request — see `bsky_atproto::repo`);
//! 3. new DIDs, revision rewinds, and failed or unverifiable deltas fall
//!    back to a full CAR fetch; DIDs that vanish from `listRepos`
//!    (deletions) drop their mirror state and are counted as skips;
//! 4. at the window end the mirror syncs once more and emits one
//!    [`crate::pipeline::Observation::Repo`] per DID in first-seen order.
//!
//! Cost: O(changed bytes) across the window;
//! [`crate::pipeline::StreamSummary`] reports the bytes actually fetched,
//! the full/delta split, and any skipped repos.
//!
//! What one round costs, per listed DID:
//!
//! * **unchanged revision** — its `listRepos` row, a lookup of its hosting
//!   PDS and a comparison with the mirrored revision and host. No fetch, no
//!   block touched.
//! * **advanced revision** — one delta fetch and one pass over it with the
//!   borrowed CAR reader: a SHA-256 per block (the CID check), a walk of
//!   each block's top-level item heads to find its `$type`
//!   ([`Record::is_record_block`]), one decode of the head commit to check
//!   its revision, and then, once the whole delta has verified, exactly one
//!   [`Record::from_cbor`] of each *new* record block. Nothing is inserted
//!   before the whole delta has verified.
//! * **new DID** (also a rewind, a re-homed repo or a failed delta) — the
//!   same pass over a full CAR.
//!
//! A mirrored record is decoded once, when it arrives, and the mirror keeps
//! no block: only a fixed-size projection of what the analyzers read (the
//! collection, `createdAt`, a post's first language, a follow's, block's or
//! like's subject). Names in it are interned mirror-wide, so a record costs
//! the same bytes whatever its text, embeds or facets. A block that claims a
//! `$type` and then fails its lexicon is kept as a marker and counted in
//! [`StreamSummary::repo_records_undecodable`] when its snapshot is emitted.
//! Emission moves each DID's projections into its [`RepoSnapshot`] and
//! decodes nothing. On the PDS side the round's compaction pass costs what
//! aged out of the window, not the repository (see `bsky_atproto::repo`,
//! "Compaction").
//!
//! The paper's naive reading of §3 — download and decode every repository
//! CAR once, at the window end, O(total repo bytes) — is not a selectable
//! mode. It survives as the **test oracle** in this module's tests: a test
//! streams a world, fetches every collected DID's full CAR at the window
//! end, decodes it, projects every record the way the mirror does, and
//! requires the mirror's emitted snapshots to be equal record for record
//! (and the mirror to have fetched strictly fewer bytes). The mirror only
//! ever adds what a delta carries, which is exact because a repository only
//! creates records: `bsky_atproto::repo::Write` has no update and no
//! delete, so a record the mirror holds stays in its repository, and the
//! weekly compaction drops commits, never a record block. (Account deletion
//! drops a whole repository, which the mirror handles per DID.)

use crate::pipeline::StreamSummary;
use bsky_atproto::cid::Cid;
use bsky_atproto::error::AtError;
use bsky_atproto::nsid::known;
use bsky_atproto::record::Record;
use bsky_atproto::repo::{commit_summary, CarReader, DeltaScope};
use bsky_atproto::{Datetime, Did, Nsid, Tid};
use bsky_pds::PdsFleet;
use bsky_relay::Relay;
use bsky_simnet::faults::{FaultPlan, RetryPolicy, TimeoutClass};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::num::NonZeroU32;
use std::sync::Arc;

/// One DID's repository at the window end, as the analyzers read it.
#[derive(Debug, Clone)]
pub struct RepoSnapshot {
    /// Repository owner.
    pub(crate) did: Did,
    /// Every record the mirror held for the DID, in CID order, each CID
    /// once, undecodable markers included.
    records: Vec<MirroredRecord>,
    /// The mirror's name tables, which the records' ids index.
    names: Arc<MirrorNames>,
}

impl RepoSnapshot {
    /// The decodable records, in CID order.
    pub fn records(&self) -> impl Iterator<Item = RecordView<'_>> {
        self.records
            .iter()
            .filter_map(|record| self.names.view(record))
    }
}

/// What the study reads of one repository record: every field an analyzer
/// looks at, with its names resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordView<'a> {
    /// The record's collection (its `$type`).
    pub collection: &'a Nsid,
    /// The record's self-reported creation time, when its lexicon has one.
    pub(crate) created_at: Option<Datetime>,
    /// A post's first language.
    pub(crate) lang: Option<&'a str>,
    /// The subject DID of a follow, a block or a like.
    pub(crate) subject: Option<&'a Did>,
    /// Whether a like's subject is a feed generator.
    pub(crate) likes_feed_generator: bool,
}

/// The index of a name in one of the mirror's [`Interned`] tables.
type NameId = NonZeroU32;

/// One mirrored record: its CID and a fixed-size projection of what the
/// study reads, owning no heap memory (its names are ids into the mirror's
/// [`MirrorNames`]). A few dozen bytes however long the post was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MirroredRecord {
    cid: Cid,
    /// `None` marks a block that claimed a `$type` and then failed its
    /// lexicon's decode: kept so each emission counts it.
    collection: Option<NameId>,
    /// Meaningful only when `dated`: an `Option<Datetime>` would take a
    /// word more than the flag beside it.
    created_at: Datetime,
    dated: bool,
    lang: Option<NameId>,
    subject: Option<NameId>,
    likes_feed_generator: bool,
}

/// Distinct values, each named by a [`NameId`] in first-seen order (and
/// held twice: in its slot, and as its lookup key). The lookup is ordered,
/// not hashed: a default `HashMap` draws fresh hash keys in every process,
/// so its layout, and the work of each lookup, would differ from one run of
/// the same input to the next.
#[derive(Debug, Clone)]
struct Interned<T> {
    values: Vec<T>,
    ids: BTreeMap<T, NameId>,
}

impl<T> Default for Interned<T> {
    fn default() -> Interned<T> {
        Interned {
            values: Vec::new(),
            ids: BTreeMap::new(),
        }
    }
}

impl<T: Clone + Ord> Interned<T> {
    fn id<Q>(&mut self, value: &Q) -> NameId
    where
        T: Borrow<Q>,
        Q: Ord + ToOwned<Owned = T> + ?Sized,
    {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.values.len() + 1)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("fewer than 2^32 distinct names");
        self.values.push(value.to_owned());
        self.ids.insert(value.to_owned(), id);
        id
    }

    fn get(&self, id: NameId) -> &T {
        &self.values[id.get() as usize - 1]
    }
}

/// The mirror-wide name tables behind every [`MirroredRecord`].
#[derive(Debug, Clone, Default)]
struct MirrorNames {
    collections: Interned<Nsid>,
    langs: Interned<String>,
    subjects: Interned<Did>,
}

impl MirrorNames {
    /// Project one record, decoded from the block `cid` names, or a marker
    /// when the decode failed. The one place a record becomes what the
    /// study keeps of it; the oracle test projects its own decode with it.
    fn project(&mut self, cid: Cid, record: Option<&Record>) -> MirroredRecord {
        let mut out = MirroredRecord {
            cid,
            collection: None,
            created_at: Datetime::default(),
            dated: false,
            lang: None,
            subject: None,
            likes_feed_generator: false,
        };
        let Some(record) = record else {
            return out;
        };
        out.collection = Some(self.collections.id(&record.collection()));
        if let Some(created_at) = record.created_at() {
            out.created_at = created_at;
            out.dated = true;
        }
        match record {
            Record::Post(post) => {
                out.lang = post.langs.first().map(|lang| self.langs.id(lang.as_str()))
            }
            Record::Follow(follow) => out.subject = Some(self.subjects.id(&follow.subject)),
            Record::Block(block) => out.subject = Some(self.subjects.id(&block.subject)),
            Record::Like(like) => {
                out.subject = Some(self.subjects.id(like.subject.did()));
                out.likes_feed_generator = like
                    .subject
                    .collection()
                    .is_some_and(|collection| collection.as_str() == known::FEED_GENERATOR);
            }
            _ => {}
        }
        out
    }

    /// `record` with its names resolved, or `None` for a marker.
    fn view(&self, record: &MirroredRecord) -> Option<RecordView<'_>> {
        Some(RecordView {
            collection: self.collections.get(record.collection?),
            created_at: record.dated.then_some(record.created_at),
            lang: record.lang.map(|id| self.langs.get(id).as_str()),
            subject: record.subject.map(|id| self.subjects.get(id)),
            likes_feed_generator: record.likes_feed_generator,
        })
    }
}

/// Mirrored repository state for one DID, synced to a known revision.
#[derive(Debug, Clone, Default)]
struct MirroredRepo {
    /// The revision the state is synced to (`None`: no commits yet).
    rev: Option<Tid>,
    /// One projection per fetched block that carries a record's `$type` —
    /// the same view a reader of the full CAR takes, so these in CID order
    /// are what a window-end full export decodes to. Sorted by CID, each
    /// CID once, at exact capacity: this order reaches the analyzers, and
    /// each fetched archive's CID-sorted records are merged in.
    records: Vec<MirroredRecord>,
    /// The PDS hostname the state was fetched from. A repo that re-homes
    /// (account migration) is backfilled with a full fetch: deltas across
    /// a host change are not trusted.
    host: Option<String>,
    /// The last sync pass whose `listRepos` view named the DID; a pass
    /// forgets every entry that is a pass behind.
    listed_in: u64,
}

/// The incremental repository mirror: per-DID repo state maintained across
/// weekly `sync.listRepos` snapshots, each record kept as its fixed-size
/// projection, never as its block.
///
/// [`IncrementalRepoMirror::sync`] performs one rev-aware pass: repos whose
/// revision is unchanged cost nothing, advanced repos are fetched as
/// verified `getRepo(since)` deltas, and only new or rewound DIDs (or
/// failed deltas) pay for a full CAR. A delta rejected because the PDS
/// *compacted* the mirror's revision out of its window is counted into
/// [`StreamSummary::repo_compaction_fallbacks`] before the full refetch —
/// never silently. The mirror deliberately speaks to [`Relay`] +
/// [`PdsFleet`] rather than a whole world, so its fallback behaviour is
/// unit-testable in isolation.
#[derive(Debug)]
pub(crate) struct IncrementalRepoMirror {
    /// Keyed by the DID itself: `Did` orders exactly as its string form
    /// does (`plc` < `web`, then the identifier), and a lookup renders
    /// nothing.
    repos: BTreeMap<Did, MirroredRepo>,
    /// Sync passes made so far (see `MirroredRepo::listed_in`).
    passes: u64,
    /// The names every DID's records refer to. Shared with the emitted
    /// snapshots; an insert after an emission copies them first.
    names: Arc<MirrorNames>,
    /// The deterministic fault schedule (quiet by default).
    faults: Arc<FaultPlan>,
    /// Retry policy for full `getRepo` fetches.
    retry_full: RetryPolicy,
    /// Retry policy for `getRepo(since)` delta fetches.
    retry_delta: RetryPolicy,
}

impl Default for IncrementalRepoMirror {
    fn default() -> IncrementalRepoMirror {
        IncrementalRepoMirror::new()
    }
}

impl IncrementalRepoMirror {
    /// An empty mirror under the quiet fault plan.
    pub(crate) fn new() -> IncrementalRepoMirror {
        IncrementalRepoMirror::with_faults(
            Arc::new(FaultPlan::quiet()),
            RetryPolicy::for_class(TimeoutClass::RepoFetch),
            RetryPolicy::for_class(TimeoutClass::DeltaFetch),
        )
    }

    /// An empty mirror with an explicit [`FaultPlan`] and per-class retry
    /// policies. Faults resolve as pure functions of `(seed, DID, day)`
    /// before any wire traffic; retries, backoff and give-ups are counted
    /// into the sync summary — never silent.
    pub(crate) fn with_faults(
        faults: Arc<FaultPlan>,
        retry_full: RetryPolicy,
        retry_delta: RetryPolicy,
    ) -> IncrementalRepoMirror {
        IncrementalRepoMirror {
            repos: BTreeMap::new(),
            passes: 0,
            names: Arc::default(),
            faults,
            retry_full,
            retry_delta,
        }
    }

    /// Insert one DID's freshly fetched record blocks, CID-sorted and still
    /// borrowed from the verified CAR they arrived in, by merging them into
    /// the DID's list: a CID the DID already holds, or one repeated in the
    /// archive, counts once. Each new block is decoded here, once, and only
    /// its projection is kept.
    fn insert_records(&mut self, did: &Did, records: &[(Cid, &[u8])]) -> &mut MirroredRepo {
        if !self.repos.contains_key(did) {
            self.repos.insert(did.clone(), MirroredRepo::default());
        }
        let entry = self.repos.get_mut(did).expect("present or just inserted");
        entry.listed_in = self.passes;
        if records.is_empty() {
            return entry;
        }
        let names = Arc::make_mut(&mut self.names);
        let held = std::mem::take(&mut entry.records);
        let mut merged = Vec::with_capacity(held.len() + records.len());
        let mut held = held.into_iter().peekable();
        for &(cid, bytes) in records {
            merged.extend(std::iter::from_fn(|| held.next_if(|old| old.cid < cid)));
            let seen = |record: &MirroredRecord| record.cid == cid;
            if held.peek().is_some_and(seen) || merged.last().is_some_and(seen) {
                continue;
            }
            merged.push(names.project(cid, Record::from_cbor(bytes).ok().as_ref()));
        }
        merged.extend(held);
        merged.shrink_to_fit();
        entry.records = merged;
        entry
    }

    /// One rev-aware sync pass over the relay's `listRepos` view. Fetch
    /// traffic and skips are accounted into `summary`. A DID whose revision
    /// and host are unchanged costs one map lookup: nothing is rendered or
    /// allocated for it.
    pub(crate) fn sync(
        &mut self,
        relay: &mut Relay,
        fleet: &mut PdsFleet,
        now: Datetime,
        summary: &mut StreamSummary,
    ) {
        self.passes += 1;
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = relay.list_repos(cursor.as_deref(), 500);
            for (did, current) in page {
                let host = fleet.locate(&did);
                // A repo whose hosting PDS changed since the last sync
                // (mass migration after a host outage, or organic churn)
                // is backfilled with a full fetch even when its revision
                // is unchanged: deltas across a host change are not
                // trusted. Counted — never a silent code path.
                let mut host_changed = false;
                if let Some(entry) = self.repos.get_mut(&did) {
                    entry.listed_in = self.passes;
                    host_changed = entry.host.as_deref() != host;
                    if host_changed {
                        summary.backfill_full_fetches += 1;
                    } else if entry.rev == current {
                        continue; // unchanged since the last snapshot
                    }
                }
                let host = host.map(str::to_string);
                if host_changed || !self.try_delta(relay, fleet, now, &did, current, summary) {
                    self.full_fetch(relay, fleet, now, &did, current, host, summary);
                }
            }
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        // DIDs the relay no longer lists are deleted accounts: their repos
        // are exactly the ones a window-end full refetch fails to download
        // and counts as skips, so the mirror forgets them — and counts them
        // the same way — here.
        let vanished: Vec<Did> = self
            .repos
            .iter()
            .filter(|(_, entry)| entry.listed_in != self.passes)
            .map(|(did, _)| did.clone())
            .collect();
        summary.repo_snapshot_skips += vanished.len() as u64;
        for did in vanished {
            self.repos.remove(&did);
        }
    }

    /// Attempt a `getRepo(since)` delta sync; `false` means the caller must
    /// fall back to a full fetch (no prior state, rev rewind, fetch error,
    /// or a delta that fails verification).
    fn try_delta(
        &mut self,
        relay: &mut Relay,
        fleet: &mut PdsFleet,
        now: Datetime,
        did: &Did,
        current: Option<Tid>,
        summary: &mut StreamSummary,
    ) -> bool {
        let Some(since) = self.repos.get(did).and_then(|entry| entry.rev) else {
            return false;
        };
        // A revision that did not advance (rewind) cannot be a delta.
        let Some(current) = current else {
            return false;
        };
        if current <= since {
            return false;
        }
        // Injected flakiness resolves before any wire traffic. A permanent
        // give-up abandons the delta; the caller's full fetch retries
        // independently (its own operation class draws its own failures).
        if !resolve_retries(
            &self.faults,
            self.retry_delta,
            "delta",
            &did.as_string(),
            now,
            summary,
        ) {
            return false;
        }
        let delta = match relay.get_repo_since(did, &since, DeltaScope::Records, fleet) {
            Ok(delta) => delta,
            Err(AtError::RevisionCompacted(_)) => {
                // The PDS compacted our revision out of its delta window;
                // the caller falls back to a full fetch and the summary
                // records that it happened — never silently.
                summary.repo_compaction_fallbacks += 1;
                return false;
            }
            Err(_) => return false,
        };
        // The bytes were fetched whether or not the delta verifies — a
        // rejected delta still travelled, and the full-fetch fallback adds
        // its own bytes on top.
        summary.snapshot_bytes_fetched += delta.len() as u64;
        let Some(records) = verified_delta_records(&delta, current) else {
            return false;
        };
        summary.repo_delta_fetches += 1;
        self.insert_records(did, &records).rev = Some(current);
        true
    }

    /// Full CAR fetch, replacing any previous state for the DID. A failed
    /// fetch (account deleted / migrated away mid-snapshot) is counted as a
    /// skip and drops the state.
    #[allow(clippy::too_many_arguments)]
    fn full_fetch(
        &mut self,
        relay: &mut Relay,
        fleet: &mut PdsFleet,
        now: Datetime,
        did: &Did,
        current: Option<Tid>,
        host: Option<String>,
        summary: &mut StreamSummary,
    ) {
        // Injected flakiness: a full fetch abandoned after the retry
        // budget is a counted skip, exactly like a vanished account.
        let key = did.as_string();
        if !resolve_retries(&self.faults, self.retry_full, "full", &key, now, summary) {
            summary.repo_snapshot_skips += 1;
            self.repos.remove(did);
            return;
        }
        match relay.get_repo(did, fleet, now) {
            Ok(car) => {
                summary.snapshot_bytes_fetched += car.len() as u64;
                summary.repo_full_fetches += 1;
                let Some(scan) = scan_car(&car) else {
                    summary.repo_snapshot_skips += 1;
                    self.repos.remove(did);
                    return;
                };
                // Replace: a full fetch supersedes any previous state
                // (rewound repos must not retain pre-rewind records).
                self.repos.remove(did);
                let entry = self.insert_records(did, &scan.records);
                entry.rev = current;
                entry.host = host;
            }
            Err(_) => {
                summary.repo_snapshot_skips += 1;
                self.repos.remove(did);
            }
        }
    }

    /// Move a mirrored DID's records into its emitted snapshot, or `None`
    /// when the DID is not mirrored. Emission is the mirror's last use of
    /// the state, so nothing is copied or decoded; each undecodable marker
    /// is counted into [`StreamSummary::repo_records_undecodable`] here —
    /// never silently.
    pub(crate) fn take_snapshot(
        &mut self,
        did: &Did,
        summary: &mut StreamSummary,
    ) -> Option<RepoSnapshot> {
        let entry = self.repos.remove(did)?;
        let undecodable = entry.records.iter().filter(|r| r.collection.is_none());
        summary.repo_records_undecodable += undecodable.count() as u64;
        Some(RepoSnapshot {
            did: did.clone(),
            records: entry.records,
            names: Arc::clone(&self.names),
        })
    }
}

/// Resolve the injected-failure/retry sequence for one `(op, key, day)`
/// request before it touches the wire: retries and their simulated backoff
/// are counted into the summary; `false` means the retry budget was
/// exhausted (a counted permanent give-up — the caller must not issue the
/// real request, so fetched-byte accounting can never double-count).
fn resolve_retries(
    faults: &FaultPlan,
    policy: RetryPolicy,
    op: &str,
    key: &str,
    now: Datetime,
    summary: &mut StreamSummary,
) -> bool {
    let day = now.timestamp().div_euclid(86_400) as u64;
    let failures = faults.fetch_failures(op, key, day);
    if failures == 0 {
        return true;
    }
    let mut rng = faults.retry_rng(op, key, day);
    let outcome = policy.outcome(failures, &mut rng);
    summary.retry_attempts += u64::from(outcome.retries);
    summary.retry_backoff_ms += outcome.backoff_ms;
    if outcome.gave_up {
        summary.fetch_retry_giveups += 1;
        return false;
    }
    true
}

/// What one pass over a fetched CAR yields, all of it borrowed from the
/// archive: the head commit block the header's root names (when the archive
/// carries it) and the record blocks in CID order.
struct ScannedCar<'a> {
    head_commit: Option<&'a [u8]>,
    records: Vec<(Cid, &'a [u8])>,
}

/// One pass over a fetched CAR, or `None` when it is malformed. The reader
/// checks the framing and verifies every block against its CID; blocks are
/// classified by their top-level `$type` alone (commit and MST node blocks
/// carry none and fall out), so nothing is decoded and nothing is copied
/// here: a record block is decoded when the mirror inserts it. The whole archive is read before the caller sees any of it: one
/// bad block anywhere rejects it all.
fn scan_car(car: &[u8]) -> Option<ScannedCar<'_>> {
    let mut reader = CarReader::new(car).ok()?;
    let root = reader.roots().first().copied();
    let mut scan = ScannedCar {
        head_commit: None,
        records: Vec::new(),
    };
    for block in &mut reader {
        let (cid, bytes) = block.ok()?;
        if Some(cid) == root {
            scan.head_commit = Some(bytes);
        }
        if Record::is_record_block(bytes) {
            scan.records.push((cid, bytes));
        }
    }
    // CID order whatever the archive's own (exports already are): the
    // mirror merges each archive into a DID's CID-sorted list.
    scan.records.sort_unstable_by_key(|&(cid, _)| cid);
    Some(scan)
}

/// The record blocks of a delta CAR, after verifying it: every block must
/// match its CID (checked by the reader), the head commit block must be
/// present, and its revision must be the one `listRepos` reported. `None`
/// when verification fails (the caller falls back to a full fetch) — and
/// nothing reaches the mirror before the whole delta has passed.
fn verified_delta_records(delta: &[u8], expected_rev: Tid) -> Option<Vec<(Cid, &[u8])>> {
    let scan = scan_car(delta)?;
    let (rev, _data) = commit_summary(scan.head_commit?).ok()?;
    (rev == expected_rev).then_some(scan.records)
}

#[cfg(test)]
mod tests;
