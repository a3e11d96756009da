//! Dataset collection (§3 of the paper), as a streaming producer.
//!
//! [`Collector::stream`] drives a [`World`] day by day and *emits* the same
//! six datasets the study gathered — through the same service interfaces —
//! as [`Observation`]s into an [`ObservationSink`]:
//!
//! * **User Identifier Dataset** — weekly `sync.listRepos` snapshots from the
//!   Relay during March–April 2024, one observation per newly seen DID.
//! * **DID Documents** — a full PLC-directory export plus `did:web`
//!   documents fetched over HTTPS.
//! * **Repositories Dataset** — a snapshot of every repository, downloaded as
//!   CAR archives through the Relay's `sync.getRepo`, decoded, emitted, and
//!   dropped.
//! * **Firehose Dataset** — a continuous subscription from 2024-03-06. The
//!   producer interleaves chunked day steps ([`World::step_chunk`]) with
//!   subscription reads, so it never holds more than one chunk's worth of
//!   events — peak in-flight is independent of the day's volume.
//! * **Labeling Services** — metadata when each service record is announced,
//!   then a daily `subscribeLabels` read per labeler (including rescinded
//!   labels), so labels stream out close to their publication time.
//! * **Feed Generators / Feed Posts** — generator records discovered in the
//!   repositories, metadata via `getFeedGenerator`, retained entries via
//!   `getFeed` hydration.
//!
//! ## The snapshot protocol
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
//!    revision (`DeltaScope::Records`: this mirror keeps record blocks and
//!    decodes them once, at the window end, so it skips the MST node blocks
//!    a full-fidelity block mirror would request — see
//!    `bsky_atproto::repo`);
//! 3. new DIDs, revision rewinds, and failed or unverifiable deltas fall
//!    back to a full CAR fetch; DIDs that vanish from `listRepos`
//!    (deletions) drop their mirror state and are counted as skips;
//! 4. at the window end the mirror syncs once more and emits one
//!    [`Observation::Repo`] per DID in first-seen order.
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
//!   ([`Record::is_record_block`] — no block is decoded), one decode of the
//!   head commit to check its revision, and then exactly one copy of each
//!   *new* record block, into the mirror's store. Nothing is inserted
//!   before the whole delta has verified.
//! * **new DID** (also a rewind, a re-homed repo or a failed delta) — the
//!   same pass over a full CAR.
//!
//! The mirror never reads its store during a round, and a mirrored block is
//! decoded once per study: at the window end, when
//! `IncrementalRepoMirror::records` builds the emitted snapshots. A block
//! that fails that decode (or that the store cannot return) is left out and
//! counted in [`StreamSummary::repo_records_undecodable`]. On the PDS side
//! the round's compaction pass costs what aged out of the window, not the
//! repository (see `bsky_atproto::repo`, "Compaction").
//!
//! The paper's naive reading of §3 — download and decode every repository
//! CAR once, at the window end, O(total repo bytes) — is not a selectable
//! mode. It survives as the **test oracle** in this file: a test streams a
//! world, fetches every collected DID's full CAR at the window end, decodes
//! it, and requires the mirror's emitted snapshots to be equal record for
//! record (and the mirror to have fetched strictly fewer bytes). The mirror
//! only ever adds what a delta carries, which is exact because a repository
//! only creates records: `bsky_atproto::repo::Write` has no update and no
//! delete, so a record the mirror holds stays in its repository, and the
//! weekly compaction drops commits, never a record block. (Account deletion
//! drops a whole repository, which the mirror handles per DID.)

use crate::observatory::{cell_trace, ActivityClass, TraceKind, WireTraceDay};
use crate::pipeline::{Observation, ObservationSink, StreamSummary, StudyCtx};
use bsky_atproto::blockstore::{BlockStore, StoreConfig, StoreStats};
use bsky_atproto::cid::{Cid, CidMap};
use bsky_atproto::error::AtError;
use bsky_atproto::firehose::EventBody;
use bsky_atproto::framing::FramingPolicy;
use bsky_atproto::record::Record;
use bsky_atproto::repo::{commit_summary, CarReader, DeltaScope};
use bsky_atproto::{AtUri, Datetime, Did, Nsid, Tid};
use bsky_feedgen::RetentionPolicy;
use bsky_identity::DidDocument;
use bsky_labeler::LabelerOperator;
use bsky_pds::PdsFleet;
use bsky_relay::Relay;
use bsky_simnet::faults::{FaultPlan, RetryPolicy, TimeoutClass};
use bsky_simnet::http::HttpResponse;
use bsky_simnet::net::HostingClass;
use bsky_workload::World;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A decoded repository snapshot.
#[derive(Debug, Clone)]
pub struct RepoSnapshot {
    /// Repository owner.
    pub(crate) did: Did,
    /// All live records: `(collection, rkey, record)`.
    pub records: Vec<(Nsid, String, Record)>,
}

/// One curated post of a feed-generator dataset entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeedPost {
    /// The post URI: the allocation the world made when the post was
    /// written, shared with every feed that curated it.
    pub(crate) uri: Arc<AtUri>,
    /// The post's self-reported creation time.
    pub(crate) created_at: Datetime,
    /// When the generator curated it.
    pub(crate) curated_at: Datetime,
}

/// Feed-generator dataset entry.
///
/// In a sharded run every shard emits one entry per feed, carrying only the
/// curation and likes its own population produced; `FeedGenEntry::absorb`
/// combines them into exactly the entry the serial crawl produces.
#[derive(Debug, Clone)]
pub struct FeedGenEntry {
    /// The generator's URI.
    pub(crate) uri: AtUri,
    /// Creator account.
    pub(crate) creator: Did,
    /// Display name.
    pub(crate) display_name: String,
    /// Description.
    pub(crate) description: String,
    /// Hosting platform name (from the service DID / world metadata).
    pub(crate) platform: String,
    /// When the feed was created (declaration record timestamp).
    pub(crate) created_at: Datetime,
    /// The generator's retention policy (needed to merge shard-local
    /// retained entry lists into the global retained set).
    pub(crate) retention: RetentionPolicy,
    /// Likes observed on the generator record.
    pub(crate) like_count: u64,
    /// Retained, hydrated curated entries in canonical `(curated_at, uri)`
    /// order. Use [`FeedGenEntry::served_posts`] for the capped
    /// `getFeed`-style view.
    pub(crate) posts: Vec<FeedPost>,
}

/// `getFeed` page cap applied when serving a feed's posts.
pub(crate) const GET_FEED_LIMIT: usize = 1_000;

impl FeedGenEntry {
    /// Fold another shard's entry for the same feed into this one: likes
    /// add, curated entries merge under the canonical order, and the
    /// retention policy is re-applied so the result equals what a single
    /// generator observing both shards' posts would have retained.
    pub(crate) fn absorb(&mut self, other: FeedGenEntry) {
        debug_assert_eq!(self.uri, other.uri);
        self.like_count += other.like_count;
        self.posts.extend(other.posts);
        // Canonical curation order — the same structural (curated_at, uri)
        // comparison `FeedGenerator::push_entry` maintains, so re-applying
        // Count retention below selects exactly the entries a single
        // generator would have kept.
        self.posts
            .sort_by(|a, b| (a.curated_at, &a.uri).cmp(&(b.curated_at, &b.uri)));
        self.posts.dedup_by(|a, b| a.uri == b.uri);
        if let RetentionPolicy::Count(max) = self.retention {
            if self.posts.len() > max {
                let excess = self.posts.len() - max;
                self.posts.drain(0..excess);
            }
        }
    }

    /// The `getFeed` view of the retained entries: newest first by post
    /// creation time (ties broken by URI), capped at [`GET_FEED_LIMIT`].
    pub(crate) fn served_posts(&self) -> Vec<&FeedPost> {
        let mut out: Vec<&FeedPost> = self.posts.iter().collect();
        out.sort_by(|a, b| {
            b.created_at
                .cmp(&a.created_at)
                .then_with(|| a.uri.cmp(&b.uri))
        });
        out.truncate(GET_FEED_LIMIT);
        out
    }
}

/// Labeling-service dataset entry: the service's metadata. Its labels
/// arrive separately, as [`Observation::Labels`] batches.
#[derive(Debug, Clone)]
pub struct LabelerEntry {
    /// The labeler's account DID.
    pub(crate) did: Did,
    /// Display name.
    pub(crate) name: String,
    /// Operator class.
    pub(crate) operator: LabelerOperator,
    /// Endpoint hosting classification (from the active measurements).
    pub(crate) hosting: HostingClass,
    /// Whether the endpoint answered.
    pub(crate) functional: bool,
}

/// Default number of pending relay events per producer chunk.
pub const DEFAULT_CHUNK_EVENTS: usize = 256;

/// Mirrored repository state for one DID, synced to a known revision. The
/// record block bytes live in the mirror's shared [`BlockStore`]; the entry
/// keeps only their CIDs.
#[derive(Debug, Clone, Default)]
struct MirroredRepo {
    /// The revision the state is synced to (`None`: no commits yet).
    rev: Option<Tid>,
    /// CIDs of every fetched block that carries a record's `$type` — the
    /// same view a reader of the full CAR takes, so decoding these in CID
    /// order reproduces what a window-end full export decodes to. Sorted,
    /// each CID once, at exact capacity: `records` decodes in this order,
    /// which reaches the analyzers, and each fetched archive's CID-sorted
    /// records are merged in.
    record_cids: Vec<Cid>,
    /// The PDS hostname the state was fetched from. A repo that re-homes
    /// (account migration) is backfilled with a full fetch: deltas across
    /// a host change are not trusted.
    host: Option<String>,
    /// The last sync pass whose `listRepos` view named the DID; a pass
    /// forgets every entry that is a pass behind.
    listed_in: u64,
}

/// The incremental repository mirror: per-DID repo state maintained across
/// weekly `sync.listRepos` snapshots, with the record blocks in a pluggable
/// [`BlockStore`] (in-memory by default; the paged backend bounds the
/// mirror's resident footprint by spilling cold blocks to disk).
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
    /// Record blocks, CID-addressed and shared across DIDs.
    store: Box<dyn BlockStore>,
    /// How many DIDs hold each block that two or more of them hold:
    /// identical records fetched from different repositories share one
    /// block, which must survive until its last holder is dropped. A stored
    /// block with no entry has one holder, as nearly every block does.
    /// Looked up per block, never iterated.
    shared: CidMap<u32>,
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
    /// An empty mirror over the default in-memory store.
    pub(crate) fn new() -> IncrementalRepoMirror {
        IncrementalRepoMirror::with_store(StoreConfig::default().build())
    }

    /// An empty mirror over an explicit block store.
    pub(crate) fn with_store(store: Box<dyn BlockStore>) -> IncrementalRepoMirror {
        IncrementalRepoMirror::with_store_faults(
            store,
            Arc::new(FaultPlan::quiet()),
            RetryPolicy::for_class(TimeoutClass::RepoFetch),
            RetryPolicy::for_class(TimeoutClass::DeltaFetch),
        )
    }

    /// An empty mirror with an explicit [`FaultPlan`] and per-class retry
    /// policies. Faults resolve as pure functions of `(seed, DID, day)`
    /// before any wire traffic; retries, backoff and give-ups are counted
    /// into the sync summary — never silent.
    pub(crate) fn with_store_faults(
        store: Box<dyn BlockStore>,
        faults: Arc<FaultPlan>,
        retry_full: RetryPolicy,
        retry_delta: RetryPolicy,
    ) -> IncrementalRepoMirror {
        IncrementalRepoMirror {
            repos: BTreeMap::new(),
            passes: 0,
            store,
            shared: CidMap::default(),
            faults,
            retry_full,
            retry_delta,
        }
    }

    /// Residency/spill statistics of the mirror's block store.
    pub(crate) fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Insert one DID's freshly fetched record blocks, CID-sorted and still
    /// borrowed from the CAR they arrived in, by merging their CIDs into the
    /// DID's list: a CID the DID already holds, or one repeated in the
    /// archive, counts once. A block is copied once, into the store, when no
    /// DID holds it yet; a block the store already has gains a holder in
    /// `shared` instead.
    fn insert_records(&mut self, did: &Did, records: &[(Cid, &[u8])]) -> &mut MirroredRepo {
        if !self.repos.contains_key(did) {
            self.repos.insert(did.clone(), MirroredRepo::default());
        }
        let entry = self.repos.get_mut(did).expect("present or just inserted");
        entry.listed_in = self.passes;
        if records.is_empty() {
            return entry;
        }
        let held = std::mem::take(&mut entry.record_cids);
        let mut merged = Vec::with_capacity(held.len() + records.len());
        let mut held = held.into_iter().peekable();
        for &(cid, bytes) in records {
            merged.extend(std::iter::from_fn(|| held.next_if(|old| *old < cid)));
            if held.peek() == Some(&cid) || merged.last() == Some(&cid) {
                continue;
            }
            if !self.store.put_slice(cid, bytes) {
                *self.shared.entry(cid).or_insert(1) += 1;
            }
            merged.push(cid);
        }
        merged.extend(held);
        merged.shrink_to_fit();
        entry.record_cids = merged;
        entry
    }

    /// Drop one DID's state, deleting the blocks no other DID holds.
    fn drop_state(&mut self, did: &Did) {
        if let Some(entry) = self.repos.remove(did) {
            for cid in entry.record_cids {
                match self.shared.entry(cid) {
                    Entry::Occupied(mut holders) if *holders.get() > 2 => *holders.get_mut() -= 1,
                    Entry::Occupied(holders) => {
                        holders.remove();
                    }
                    Entry::Vacant(_) => {
                        self.store.delete(&cid);
                    }
                }
            }
        }
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
            self.drop_state(&did);
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
            self.drop_state(did);
            return;
        }
        match relay.get_repo(did, fleet, now) {
            Ok(car) => {
                summary.snapshot_bytes_fetched += car.len() as u64;
                summary.repo_full_fetches += 1;
                let Some(scan) = scan_car(&car) else {
                    summary.repo_snapshot_skips += 1;
                    self.drop_state(did);
                    return;
                };
                // Replace: a full fetch supersedes any previous state
                // (rewound repos must not retain pre-rewind records).
                self.drop_state(did);
                let entry = self.insert_records(did, &scan.records);
                entry.rev = current;
                entry.host = host;
            }
            Err(_) => {
                summary.repo_snapshot_skips += 1;
                self.drop_state(did);
            }
        }
    }

    /// The decoded records of a mirrored DID in CID order — the exact
    /// contents a full CAR fetched now would decode to — or `None` when the
    /// DID is not mirrored. Reads go through the block store, paging in and
    /// CID-verifying any spilled blocks. This is the one place a mirrored
    /// block is decoded; a block the store cannot return, or one that
    /// claimed a `$type` and then fails its lexicon, is left out of the
    /// snapshot and counted into
    /// [`StreamSummary::repo_records_undecodable`] — never silently.
    pub(crate) fn records(
        &self,
        did: &Did,
        summary: &mut StreamSummary,
    ) -> Option<Vec<(Nsid, String, Record)>> {
        let entry = self.repos.get(did)?;
        let mut records = Vec::with_capacity(entry.record_cids.len());
        for cid in &entry.record_cids {
            match self.store.get(cid).map(|bytes| Record::from_cbor(&bytes)) {
                Some(Ok(record)) => records.push((record.collection(), String::new(), record)),
                _ => summary.repo_records_undecodable += 1,
            }
        }
        Some(records)
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
/// here. The whole archive is read before the caller sees any of it: one
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
    // mirror's store sees the same insertion order for the same blocks.
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

/// Days of history the weekly compaction pass keeps in every repository's
/// delta-serving window. Two weekly `listRepos` snapshots fit comfortably,
/// so the incremental mirror's deltas (at most one week old) never hit the
/// fallback in steady state.
pub(crate) const COMPACTION_WINDOW_DAYS: i64 = 14;

/// Drives a [`World`] and emits the datasets as observations.
#[derive(Debug)]
pub struct Collector {
    chunk_events: usize,
    /// Backend for the mirror's record-block store (rebuilt per stream).
    store_config: StoreConfig,
    mirror: IncrementalRepoMirror,
    firehose_cursor: u64,
    seen_identifiers: BTreeSet<Did>,
    identifier_order: Vec<Did>,
    /// Labeler registry entries already announced to the sink.
    labelers_emitted: usize,
    /// Per-labeler `subscribeLabels` cursors.
    label_cursors: Vec<usize>,
    observations: u64,
    /// Active wire framing policy (padding × batching) for this run's
    /// firehose wire. Accounted in the summary; the §10 report sweeps every
    /// mitigation cell counterfactually regardless of this setting.
    framing: FramingPolicy,
    /// Injected-fault plan for the client side of this run (flaky fetches,
    /// DNS failures, cursor gaps/rewinds). The quiet plan draws no
    /// randomness and counts nothing.
    faults: Arc<FaultPlan>,
    /// Retry/backoff policy per timeout class.
    retry_full: RetryPolicy,
    retry_delta: RetryPolicy,
    retry_dns: RetryPolicy,
    /// Observatory ground truth: DID → (handle, activity class), built from
    /// the population plan at stream start.
    identity_map: BTreeMap<String, (String, ActivityClass)>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Create a collector with the default chunk size.
    pub fn new() -> Collector {
        Collector::with_chunk_size(DEFAULT_CHUNK_EVENTS)
    }

    /// Create a collector that crawls after every `chunk_events` pending
    /// relay events. Smaller chunks bound the in-flight batch tighter at
    /// the cost of more crawl round-trips.
    pub fn with_chunk_size(chunk_events: usize) -> Collector {
        Collector {
            chunk_events: chunk_events.max(1),
            store_config: StoreConfig::default(),
            mirror: IncrementalRepoMirror::new(),
            firehose_cursor: 0,
            seen_identifiers: BTreeSet::new(),
            identifier_order: Vec::new(),
            labelers_emitted: 0,
            label_cursors: Vec::new(),
            observations: 0,
            framing: FramingPolicy::default(),
            faults: Arc::new(FaultPlan::quiet()),
            retry_full: RetryPolicy::for_class(TimeoutClass::RepoFetch),
            retry_delta: RetryPolicy::for_class(TimeoutClass::DeltaFetch),
            retry_dns: RetryPolicy::for_class(TimeoutClass::DnsLookup),
            identity_map: BTreeMap::new(),
        }
    }

    /// Select the block-store backend for the producer's repo mirror
    /// (builder style). The world's own stores are chosen when the world is
    /// built — see [`bsky_workload::WorldSpec`] / [`crate::RunSpec::store`].
    pub fn store(mut self, store: StoreConfig) -> Collector {
        self.store_config = store;
        self
    }

    /// Select the active wire framing policy (builder style): the padding
    /// and batching mitigations applied to this run's own firehose wire
    /// (repro `--padding` / `--batch-window`). Deterministic functions of
    /// the frame content, accounted into the summary's wire counters; §4–§10
    /// report bytes are invariant under this knob by construction.
    pub fn framing(mut self, framing: FramingPolicy) -> Collector {
        self.framing = framing;
        self
    }

    /// Select the injected-fault plan driving the *client* side of this run
    /// (builder style): flaky/timed-out repo fetches, DNS failures on the
    /// identity path, firehose cursor gaps and rewinds. Every decision is a
    /// pure function of `(seed, key, day)` — recomputable on any shard —
    /// and every retry, give-up, or dropped event is a named counter in the
    /// [`StreamSummary`], never silent. The quiet plan leaves the stream
    /// byte-identical to a collector built without this call.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> Collector {
        self.faults = faults;
        self
    }

    fn emit<S: ObservationSink>(&mut self, sink: &mut S, obs: &Observation<'_>, world: &World) {
        self.observations += 1;
        sink.observe(obs, &StudyCtx::new(world));
    }

    /// Run the world to its end date while streaming every observation to
    /// the sink, then emit the final snapshots. One pass; nothing is
    /// retained here beyond per-DID dedup state, and at most one chunk of
    /// firehose events is in flight at any time.
    ///
    /// The sink may itself be concurrent: under `--pipeline` this producer
    /// feeds a `crate::shard::PipelinedSink`, which materializes each
    /// borrowed [`Observation`] into an owned batch and ships it to analyzer
    /// worker threads. The bounded channel's backpressure transfers the
    /// one-chunk memory bound across the thread boundary unchanged.
    pub fn stream<S: ObservationSink>(&mut self, world: &mut World, sink: &mut S) -> StreamSummary {
        // Each stream is a complete, independent collection: reset the
        // per-run producer state so a reused collector starts fresh.
        self.firehose_cursor = 0;
        self.mirror = IncrementalRepoMirror::with_store_faults(
            self.store_config.build(),
            self.faults.clone(),
            self.retry_full,
            self.retry_delta,
        );
        self.seen_identifiers.clear();
        self.identifier_order.clear();
        self.labelers_emitted = 0;
        self.label_cursors.clear();
        self.observations = 0;
        // Observatory ground truth: the plan's activity weights classify
        // every planned DID; labeler/feed-generator service DIDs fall back
        // to `Lurking` at lookup time.
        self.identity_map = (0..world.plan.len())
            .map(|index| {
                let profile = world.plan.profile(index);
                (
                    profile.did.as_string(),
                    (
                        profile.handle.as_str().to_string(),
                        ActivityClass::of_weight(profile.activity_weight),
                    ),
                )
            })
            .collect();
        let mut summary = StreamSummary::default();
        let firehose_start = world.config.firehose_collection_start;
        let collection_end = world.config.end;
        self.emit(
            sink,
            &Observation::WindowStart {
                firehose_collection_start: firehose_start,
                collection_end,
            },
            world,
        );
        let mut last_listrepos: Option<Datetime> = None;
        while !world.finished() {
            let Some(mut cursor) = world.begin_day() else {
                break;
            };
            let today = cursor.day();
            let day_abs = today.timestamp().div_euclid(86_400) as u64;
            let day_start_cursor = self.firehose_cursor;
            summary.days += 1;
            self.emit(sink, &Observation::DayBoundary { day: today }, world);
            // Interleave chunked simulation with subscription reads: the
            // producer drains the relay continuously (discarding pre-window
            // events), so neither the relay backlog nor a heavy day ever
            // accumulates into one oversized batch.
            loop {
                let done = world.step_chunk(&mut cursor, self.chunk_events);
                let sub = world.relay.subscribe(self.firehose_cursor);
                self.firehose_cursor = sub.cursor;
                summary.peak_in_flight_events = summary.peak_in_flight_events.max(sub.events.len());
                for event in sub.events.iter().filter(|e| e.time >= firehose_start) {
                    // Injected cursor gap: the subscriber's cursor skips
                    // over this commit, so the event never reaches the
                    // analyzers. Counted, never silent; Table 1's
                    // firehose-event total counts only *observed* events,
                    // exactly like a real consumer that lost frames. A
                    // pure function of `(seed, DID, event-day)`, so every
                    // shard drops the same events.
                    if !self.faults.is_quiet() {
                        if let EventBody::Commit { did, .. } = &event.body {
                            let event_day = event.time.timestamp().div_euclid(86_400) as u64;
                            if self.faults.drops_commit(&did.as_string(), event_day) {
                                summary.cursor_gap_drops += 1;
                                continue;
                            }
                        }
                    }
                    summary.firehose_events += 1;
                    self.observations += 1;
                    sink.observe(&Observation::Firehose(event), &StudyCtx::new(world));
                }
                if done {
                    break;
                }
            }
            world.end_day(cursor);
            // Injected cursor rewind: the relay re-serves today's frames
            // from the day-start cursor (as a restarted subscriber would
            // request). The replayed events are counted — they model the
            // duplicate wire traffic a real rewind costs — but not
            // re-observed: the analyzers already consumed them, and
            // idempotent re-observation is exactly what a consumer's dedup
            // layer provides. The real cursor is untouched.
            if !self.faults.is_quiet() && self.faults.rewinds_cursor(day_abs) {
                let replay = world.relay.subscribe(day_start_cursor);
                summary.cursor_rewind_replays += replay
                    .events
                    .iter()
                    .filter(|e| e.time >= firehose_start)
                    .count() as u64;
            }
            // Drain the relay's passive wire tap at the day boundary: one
            // observatory record per traced connection per day. Day-end
            // flushing makes each record a pure function of the day's
            // (time, size) multiset — independent of chunking — and bounds
            // tap memory to a single day of connections.
            self.flush_wire_traces(world, sink, &mut summary, firehose_start);
            // Labeler metadata for services announced today (exactly one
            // shard owns each labeler DID), then today's label batches from
            // every stream.
            self.emit_new_labelers(world, sink);
            self.emit_new_labels(world, sink);
            // Weekly listRepos snapshots during the collection window.
            if today >= firehose_start {
                let due = match last_listrepos {
                    None => true,
                    Some(prev) => today.days_since(prev) >= 7,
                };
                if due {
                    self.snapshot_user_identifiers(world, sink, &mut summary);
                    // The mirror rides along with the weekly identifier
                    // snapshot: the revs just listed tell it which repos
                    // to delta-sync now instead of re-fetching everything
                    // at the window end.
                    self.mirror
                        .sync(&mut world.relay, &mut world.fleet, today, &mut summary);
                    // Weekly compaction pass: repositories drop commits
                    // that aged out of the delta window, never a record
                    // block (see the module docs). Cadence and cutoff
                    // derive only from simulated time, so every shard and
                    // backend compacts identically.
                    let cutoff_day = today.plus_days(-COMPACTION_WINDOW_DAYS);
                    let cutoff =
                        Tid::from_micros(cutoff_day.timestamp().max(0) as u64 * 1_000_000, 0);
                    world.compact_repos(&cutoff);
                    last_listrepos = Some(today);
                    summary.listrepos_snapshots += 1;
                }
            }
        }
        // Final snapshots at the end of the window.
        self.snapshot_user_identifiers(world, sink, &mut summary);
        self.snapshot_did_documents(world, sink, &mut summary);
        self.snapshot_feed_generators(world, sink);
        self.snapshot_repositories(world, sink, &mut summary);
        self.emit(sink, &Observation::WindowEnd { at: collection_end }, world);
        summary.observations = self.observations;
        // End-of-run storage accounting: fleet repos + the producer's own
        // repo mirror.
        let mut store_stats = world.fleet.store_stats();
        store_stats.absorb(&self.mirror.store_stats());
        summary.resident_block_bytes = store_stats.resident_bytes as u64;
        summary.spilled_block_bytes = store_stats.spilled_bytes as u64;
        // Corrupt spill-file blocks read as absent (the store verifies
        // every read-back by CID); any such loss would make the emitted
        // snapshots incomplete, so the count is surfaced — never silent.
        summary.store_corrupt_reads = store_stats.corrupt_reads;
        // Workload-side injected-fault accounting (outage migrations, spam
        // waves, label/tombstone storms) flows into the same summary so
        // every injected fault in a scenario run shows up as a named
        // counter. All zero under the quiet plan.
        let fault_counters = world.fault_counters();
        summary.outage_migrations = fault_counters.outage_migrations;
        summary.spam_posts_injected = fault_counters.spam_posts_injected;
        summary.storm_labels_applied = fault_counters.storm_labels_applied;
        summary.storm_tombstones = fault_counters.storm_tombstones;
        // Federation accounting: frames the super-relay accepted from the
        // regional tier and cross-relay dedup activity (all zero in a
        // single-relay run). Diagnostics only — the report stays
        // byte-identical to the single-relay topology.
        let relay_stats = world.relay.stats();
        summary.relay_events_forwarded = relay_stats.events_forwarded();
        summary.relay_duplicates_dropped = relay_stats.duplicates_dropped();
        summary.relay_dedup_tracked = relay_stats.dedup_tracked();
        summary
    }

    fn emit_new_labelers<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        while self.labelers_emitted < world.labelers.all().len() {
            let index = self.labelers_emitted;
            self.labelers_emitted += 1;
            self.label_cursors.push(0);
            let labeler = &world.labelers.all()[index];
            let entry = LabelerEntry {
                did: labeler.did().clone(),
                name: labeler.display_name().to_string(),
                operator: labeler.operator(),
                hosting: labeler.hosting(),
                functional: labeler.is_functional(),
            };
            // Every shard instantiates every labeler, but the metadata is a
            // global singleton: only the shard owning the labeler's DID
            // announces it. (Label batches, by contrast, flow from every
            // shard — each shard's labeler copy labels that shard's posts.)
            if world.owns_did(&entry.did) {
                self.emit(sink, &Observation::Labeler(&entry), world);
            }
        }
    }

    fn emit_new_labels<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        for index in 0..self.labelers_emitted {
            let labeler = &world.labelers.all()[index];
            let (labels, next) = labeler.subscribe_labels(self.label_cursors[index]);
            if !labels.is_empty() {
                self.observations += 1;
                sink.observe(
                    &Observation::Labels {
                        src: labeler.did(),
                        labels,
                    },
                    &StudyCtx::new(world),
                );
            }
            self.label_cursors[index] = next;
        }
    }

    /// Drain the relay's passive wire tap and emit one
    /// [`Observation::WireTrace`] per connection that carried in-window
    /// traffic today. Also accounts the *active* framing policy's wire into
    /// the summary — the one knob-dependent surface; the §10 report itself
    /// sweeps every mitigation cell from the raw captures.
    fn flush_wire_traces<S: ObservationSink>(
        &mut self,
        world: &mut World,
        sink: &mut S,
        summary: &mut StreamSummary,
        firehose_start: Datetime,
    ) {
        let start = firehose_start.timestamp();
        for (conn, trace) in world.relay.take_wire_traces() {
            // Dropped frames are surfaced even when the day itself falls
            // outside the collection window — never silent.
            summary.observer_trace_drops += trace.dropped;
            // Warmup traffic before the firehose window is not collected;
            // drop it exactly as the firehose reader does.
            let frames: Vec<(i64, u64)> = trace
                .frames
                .iter()
                .copied()
                .filter(|&(time, _)| time >= start)
                .collect();
            if frames.is_empty() {
                continue;
            }
            let Ok(did) = Did::parse(&conn) else {
                continue;
            };
            let day = frames[0].0.div_euclid(86_400);
            let class = self
                .identity_map
                .get(&conn)
                .map(|(_, class)| *class)
                .unwrap_or(ActivityClass::Lurking);
            let record =
                WireTraceDay::from_frames(TraceKind::Repo, did, day, class, &frames, trace.dropped);
            let active = cell_trace(
                &frames,
                self.framing.padding,
                self.framing.batch.window_secs,
            );
            summary.wire_frames += active.frames;
            summary.padding_overhead_bytes +=
                active.wire_bytes.saturating_sub(record.payload_bytes);
            self.emit(sink, &Observation::WireTrace(&record), world);
        }
    }

    fn snapshot_user_identifiers<S: ObservationSink>(
        &mut self,
        world: &World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        // Identity resolution rides along with the listRepos snapshot: for
        // each newly listed planned DID the study client resolves the
        // `_atproto.<handle>` TXT record, like the paper's handle-ownership
        // checks. The lookups form one DNS wire trace per snapshot.
        let mut lookup_frames: Vec<(i64, u64)> = Vec::new();
        let when = world.today.timestamp();
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = world.relay.list_repos(cursor.as_deref(), 500);
            for (did, rev) in page {
                // Every snapshot lists every DID again: only a new one is
                // cloned into the set or rendered for the lookup.
                if !self.seen_identifiers.contains(&did) {
                    self.seen_identifiers.insert(did.clone());
                    if let Some((handle, _)) = self.identity_map.get(&did.as_string()) {
                        // Injected DNS flakiness resolves before the real
                        // lookup: transient SERVFAILs are retried under the
                        // DnsLookup policy; a give-up leaves the handle
                        // unverified this snapshot (counted, never silent).
                        let day = when.div_euclid(86_400) as u64;
                        let failures = self.faults.dns_failures(handle, day);
                        if failures > 0 {
                            let mut rng = self.faults.retry_rng("dns", handle, day);
                            let outcome = self.retry_dns.outcome(failures, &mut rng);
                            summary.retry_attempts += u64::from(outcome.retries);
                            summary.retry_backoff_ms += outcome.backoff_ms;
                            summary.dns_servfails += u64::from(outcome.retries);
                            if outcome.gave_up {
                                summary.dns_servfails += 1;
                                summary.dns_retry_giveups += 1;
                            }
                        }
                        summary.identity_lookups += 1;
                        // Modeled DNS query + response bytes for the
                        // `_atproto.<handle>` TXT lookup (one frame per
                        // lookup regardless of injected retries: the
                        // retried queries are simulated-time stalls, not
                        // extra observed wire records).
                        lookup_frames.push((when, 64 + 9 + handle.len() as u64));
                    }
                    self.identifier_order.push(did.clone());
                    let rev = rev.map(|t| t.to_string_form());
                    self.emit(
                        sink,
                        &Observation::UserIdentifier {
                            did: &did,
                            rev: rev.as_deref(),
                        },
                        world,
                    );
                }
            }
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        if !lookup_frames.is_empty() {
            let record = WireTraceDay::from_frames(
                TraceKind::Dns,
                Did::plc_from_seed(b"dns-resolver-client"),
                when.div_euclid(86_400),
                ActivityClass::Lurking,
                &lookup_frames,
                0,
            );
            self.emit(sink, &Observation::WireTrace(&record), world);
        }
    }

    fn snapshot_did_documents<S: ObservationSink>(
        &mut self,
        world: &World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        // Full PLC export (paginated).
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = world.plc.export(cursor.as_deref(), 1_000);
            for doc in page {
                self.emit(
                    sink,
                    &Observation::DidDocument {
                        doc,
                        via_web: false,
                    },
                    world,
                );
            }
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        // did:web documents: fetch /.well-known/did.json for did:web users.
        for index in 0..world.users.len() {
            let Some(domain) = world.users[index].did.web_domain() else {
                continue;
            };
            let url = format!("https://{domain}/.well-known/did.json");
            // A non-OK response or an unparseable document leaves this
            // did:web user without a document in the dataset — counted,
            // never a silent `if let` fall-through.
            match world.web.get(&url) {
                HttpResponse::Ok(body) => match DidDocument::from_wire(&body) {
                    Ok(doc) => {
                        self.emit(
                            sink,
                            &Observation::DidDocument {
                                doc: &doc,
                                via_web: true,
                            },
                            world,
                        );
                    }
                    Err(_) => summary.did_doc_fetch_failures += 1,
                },
                _ => summary.did_doc_fetch_failures += 1,
            }
        }
    }

    /// Emit the §3 repositories dataset at the window end: one snapshot per
    /// collected DID in first-seen order, served from the mirror.
    fn snapshot_repositories<S: ObservationSink>(
        &mut self,
        world: &mut World,
        sink: &mut S,
        summary: &mut StreamSummary,
    ) {
        let end = world.config.end;
        // Catch-up sync for anything that changed since the last weekly
        // snapshot, then serve every emission from mirrored state.
        self.mirror
            .sync(&mut world.relay, &mut world.fleet, end, summary);
        // Take the order list out of `self` for the duration of the loop
        // (the body needs `&mut self` to emit) instead of cloning one DID
        // per collected user.
        let order = std::mem::take(&mut self.identifier_order);
        for did in &order {
            let Some(records) = self.mirror.records(did, summary) else {
                continue; // deleted mid-window; skip counted at sync
            };
            let snapshot = RepoSnapshot {
                did: did.clone(),
                records,
            };
            self.emit(sink, &Observation::Repo(&snapshot), world);
        }
        self.identifier_order = order;
    }

    fn snapshot_feed_generators<S: ObservationSink>(&mut self, world: &World, sink: &mut S) {
        for index in 0..world.feedgens.len() {
            let info = &world.feedgen_info[index];
            let platform = info.platform_name.clone();
            let created_at = info.plan.created_at;
            let generator = &world.feedgens[index];
            // Hydrate the retained entries as `getFeed` does on the live
            // network, which silently drops posts its index no longer holds.
            // Every entry is a post its author committed, and the index
            // forgets a post only when its author's `#tombstone` arrives over
            // the relay — the event that also drops the author from the
            // relay's `listRepos`. So an entry hydrates while the relay lists
            // its author. Personalised feeds serve nothing to the study's
            // anonymous crawler.
            let posts: Vec<FeedPost> = if generator.is_personalized() {
                Vec::new()
            } else {
                generator
                    .entries()
                    .iter()
                    .filter(|entry| world.relay.lists_repo(entry.uri.did()))
                    .map(|entry| FeedPost {
                        uri: Arc::clone(&entry.uri),
                        created_at: entry.post_created_at,
                        curated_at: entry.curated_at,
                    })
                    .collect()
            };
            let record = generator.record();
            let entry = FeedGenEntry {
                uri: generator.uri().clone(),
                creator: generator.creator().clone(),
                display_name: record.display_name.clone(),
                description: record.description.clone(),
                platform,
                created_at,
                retention: generator.retention(),
                like_count: generator.like_count(),
                posts,
            };
            self.emit(sink, &Observation::FeedGenerator(&entry), world);
        }
    }
}

// Production collects under the default policy of every timeout class;
// a test overrides one.
#[cfg(test)]
impl Collector {
    /// Override the retry/backoff policy for one timeout class (builder
    /// style). Defaults come from [`RetryPolicy::for_class`].
    pub(crate) fn retry(mut self, class: TimeoutClass, policy: RetryPolicy) -> Collector {
        match class {
            TimeoutClass::RepoFetch => self.retry_full = policy,
            TimeoutClass::DeltaFetch => self.retry_delta = policy,
            TimeoutClass::DnsLookup => self.retry_dns = policy,
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OwnedObservation;
    use bsky_atproto::firehose::Event;
    use bsky_atproto::repo::Repository;
    use bsky_workload::{ScenarioConfig, WorldSpec};

    fn small_config(seed: u64) -> ScenarioConfig {
        let mut config = ScenarioConfig::test_scale(seed);
        config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
        config.firehose_collection_start = Datetime::from_ymd(2024, 3, 6).unwrap();
        config.scale = 40_000;
        config
    }

    /// Stream `config`'s world into a recording tape.
    fn collected(config: ScenarioConfig) -> (World, Vec<OwnedObservation>, StreamSummary) {
        let mut world = World::new(config);
        let mut tape = Vec::new();
        let summary = Collector::new().stream(&mut world, &mut tape);
        (world, tape, summary)
    }

    fn identifiers(tape: &[OwnedObservation]) -> Vec<&Did> {
        tape.iter()
            .filter_map(|obs| match obs {
                OwnedObservation::UserIdentifier { did, .. } => Some(did),
                _ => None,
            })
            .collect()
    }

    fn repositories(tape: &[OwnedObservation]) -> Vec<&RepoSnapshot> {
        tape.iter()
            .filter_map(|obs| match obs {
                OwnedObservation::Repo(snapshot) => Some(snapshot),
                _ => None,
            })
            .collect()
    }

    fn firehose_events(tape: &[OwnedObservation]) -> Vec<&Event> {
        tape.iter()
            .filter_map(|obs| match obs {
                OwnedObservation::Firehose(event) => Some(event),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn collector_gathers_all_datasets() {
        let config = small_config(5);
        let (world, tape, _) = collected(config);
        let has = |pred: fn(&OwnedObservation) -> bool| tape.iter().any(pred);
        assert!(has(|o| matches!(o, OwnedObservation::DidDocument { .. })));
        assert!(has(|o| matches!(o, OwnedObservation::FeedGenerator(_))));
        assert!(has(|o| matches!(o, OwnedObservation::Labeler(_))));
        // Identifiers are unique.
        let mut dids: Vec<String> = identifiers(&tape).iter().map(|d| d.to_string()).collect();
        assert!(!dids.is_empty());
        let before = dids.len();
        dids.sort();
        dids.dedup();
        assert_eq!(dids.len(), before);
        // Firehose events all postdate the collection start.
        let events = firehose_events(&tape);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.time >= config.firehose_collection_start));
        // Some repository snapshot decoded at least one record.
        assert!(repositories(&tape).iter().any(|r| !r.records.is_empty()));
        // Label interactions were observed.
        let label_interactions: usize = tape
            .iter()
            .map(|obs| match obs {
                OwnedObservation::Labels { labels, .. } => labels.len(),
                _ => 0,
            })
            .sum();
        assert!(label_interactions > 0);
        // The world is still usable afterwards.
        assert!(world.finished());
    }

    #[test]
    fn feed_snapshots_drop_the_posts_of_crawled_tombstones() {
        // A storm deletes a fifth of the accounts three quarters into the
        // window: each feed snapshot serves exactly its curated posts whose
        // author the relay still lists, so the storm's authors lose theirs.
        let config = small_config(5);
        let spec = bsky_simnet::faults::FaultSpec {
            tombstone_day: Some(0.75),
            tombstone_prob: 0.2,
            ..Default::default()
        };
        let days = config.end.days_since(config.start) as usize;
        let plan = Arc::new(FaultPlan::build(config.seed, days, spec));
        let mut world = World::from_spec(WorldSpec::new(config).faults(Arc::clone(&plan)));
        let mut tape = Vec::new();
        Collector::new().faults(plan).stream(&mut world, &mut tape);
        assert!(world.fault_counters().storm_tombstones > 0);
        let mut dropped = 0;
        for obs in &tape {
            let OwnedObservation::FeedGenerator(feed) = obs else {
                continue;
            };
            let generator = world.feedgens.iter().find(|g| *g.uri() == feed.uri);
            let generator = generator.expect("a snapshot names a live generator");
            if generator.is_personalized() {
                continue;
            }
            let curated: Vec<&AtUri> = generator.entries().iter().map(|e| &*e.uri).collect();
            let served: Vec<&AtUri> = feed.posts.iter().map(|p| &*p.uri).collect();
            let listed = |uri: &&AtUri| world.relay.lists_repo(uri.did());
            let kept: Vec<&AtUri> = curated.iter().copied().filter(listed).collect();
            assert_eq!(served, kept, "{}", feed.uri);
            dropped += curated.len() - served.len();
        }
        assert!(dropped > 0, "the storm's authors had no curated post");
    }

    #[test]
    fn repositories_cover_most_identifiers() {
        let (_, tape, _) = collected(small_config(5));
        let ratio = repositories(&tape).len() as f64 / identifiers(&tape).len() as f64;
        assert!(ratio > 0.9, "repo coverage {ratio}");
    }

    #[test]
    fn collector_can_be_reused_across_worlds() {
        let config = small_config(5);
        let mut collector = Collector::new();
        let mut first = Vec::new();
        collector.stream(&mut World::new(config), &mut first);
        let mut second = Vec::new();
        collector.stream(&mut World::new(config), &mut second);
        // Per-run producer state resets, so the second collection sees the
        // same world from scratch instead of deduplicating against run one.
        assert_eq!(identifiers(&first).len(), identifiers(&second).len());
        assert_eq!(repositories(&first).len(), repositories(&second).len());
        assert!(!identifiers(&second).is_empty());
    }

    #[test]
    fn stream_summary_reports_bounded_inflight() {
        let (_, tape, summary) = collected(small_config(5));
        let retained = firehose_events(&tape).len();
        assert_eq!(summary.firehose_events as usize, retained);
        assert_eq!(summary.observations as usize, tape.len());
        assert!(summary.peak_in_flight_events > 0);
        // The producer never holds more than one chunk, which is far
        // smaller than the full firehose dataset the recording tape kept.
        assert!(summary.peak_in_flight_events < retained);
        assert!(summary.observations > summary.firehose_events);
        assert!(summary.days > 0);
        assert!(summary.render().contains("in flight"));
    }

    #[test]
    fn chunk_size_bounds_in_flight_events() {
        let mut config = small_config(5);
        config.end = Datetime::from_ymd(2024, 4, 10).unwrap();
        let mut world = World::new(config);
        let mut tape = Vec::new();
        let summary = Collector::with_chunk_size(32).stream(&mut world, &mut tape);
        // One chunk plus one user's commit burst bounds the batch.
        assert!(
            summary.peak_in_flight_events < 32 + 64,
            "peak {} not bounded by chunk",
            summary.peak_in_flight_events
        );
    }

    /// The window-end oracle (see the module docs): the paper's naive
    /// reading of §3 — one full CAR per collected DID, fetched and decoded
    /// at the window end — must yield exactly the snapshots the mirror
    /// emitted, for more bytes.
    #[test]
    fn incremental_and_full_refetch_repositories_are_identical() {
        for seed in [7u64, 31] {
            let (mut world, tape, summary) = collected(small_config(seed));
            let end = world.config.end;
            let mut car_bytes = 0u64;
            let mut oracle: Vec<RepoSnapshot> = Vec::new();
            for did in identifiers(&tape) {
                // Deleted mid-window: no snapshot either way.
                let Ok(car) = world.relay.get_repo(did, &mut world.fleet, end) else {
                    continue;
                };
                car_bytes += car.len() as u64;
                let (_roots, blocks) =
                    Repository::parse_car(&car).expect("relay serves valid CARs");
                // Every block that decodes as a record, in CID order.
                let records = blocks
                    .values()
                    .filter_map(|bytes| Record::from_cbor(bytes).ok())
                    .map(|record| (record.collection(), String::new(), record))
                    .collect();
                oracle.push(RepoSnapshot {
                    did: did.clone(),
                    records,
                });
            }
            // Same DIDs in the same order, same decoded records.
            let emitted = repositories(&tape);
            assert!(!emitted.is_empty(), "seed {seed}");
            assert_eq!(emitted.len(), oracle.len(), "seed {seed}");
            for (a, b) in emitted.iter().zip(&oracle) {
                assert_eq!(a.did, b.did, "seed {seed}");
                assert_eq!(
                    a.records, b.records,
                    "seed {seed}: records diverge for {}",
                    a.did
                );
            }
            // The mirror really used deltas and fetched strictly fewer
            // bytes than the window-end full download.
            assert!(summary.repo_delta_fetches > 0, "seed {seed}: {summary:?}");
            assert!(
                summary.snapshot_bytes_fetched < car_bytes,
                "seed {seed}: mirror fetched {} bytes vs {car_bytes} for full CARs",
                summary.snapshot_bytes_fetched,
            );
        }
    }

    mod mirror {
        use super::*;
        use bsky_atproto::blockstore::StoreStats;
        use bsky_atproto::cbor::Value;
        use bsky_atproto::nsid::known;
        use bsky_atproto::record::{PostRecord, UnknownRecord};
        use bsky_atproto::Cid;
        use bsky_atproto::Handle;
        use bsky_pds::PdsFleet;
        use bsky_relay::Relay;
        use std::sync::atomic::{AtomicU64, Ordering};

        fn now() -> Datetime {
            Datetime::from_ymd(2024, 4, 2)
                .unwrap()
                .plus_seconds(9 * 3600)
        }

        fn post(text: &str) -> Record {
            Record::Post(PostRecord::simple(text, "en", now()))
        }

        fn post_on(fleet: &mut PdsFleet, did: &Did, text: &str, at: Datetime) {
            fleet
                .pds_for_mut(did)
                .unwrap()
                .create_record(did, Nsid::parse(known::POST).unwrap(), post(text), at)
                .unwrap();
        }

        fn setup(users: usize) -> (Relay, PdsFleet, Vec<Did>) {
            let mut fleet = PdsFleet::with_default_servers_store(2, &StoreConfig::default());
            let mut dids = Vec::new();
            for i in 0..users {
                let did = Did::plc_from_seed(format!("mirror-user{i}").as_bytes());
                fleet
                    .create_account_on(
                        "pds001.host.bsky.network",
                        did.clone(),
                        Handle::parse(&format!("mu{i}.bsky.social")).unwrap(),
                        now(),
                    )
                    .unwrap();
                for p in 0..10 {
                    post_on(&mut fleet, &did, &format!("u{i} post {p}"), now());
                }
                dids.push(did);
            }
            let mut relay = Relay::default();
            relay.crawl(&fleet, now());
            (relay, fleet, dids)
        }

        /// How many blocks a [`CountingStore`] was newly handed and how
        /// many reads it served.
        #[derive(Debug, Default)]
        struct CountingTotals {
            puts: AtomicU64,
            gets: AtomicU64,
        }

        impl CountingTotals {
            fn puts(&self) -> u64 {
                self.puts.load(Ordering::Relaxed)
            }

            fn gets(&self) -> u64 {
                self.gets.load(Ordering::Relaxed)
            }
        }

        /// A transparent store wrapper whose totals stay with the test
        /// while the store disappears into the mirror.
        #[derive(Debug)]
        struct CountingStore {
            inner: Box<dyn BlockStore>,
            totals: Arc<CountingTotals>,
        }

        impl BlockStore for CountingStore {
            fn get(&self, cid: &Cid) -> Option<Vec<u8>> {
                let out = self.inner.get(cid);
                if out.is_some() {
                    self.totals.gets.fetch_add(1, Ordering::Relaxed);
                }
                out
            }
            fn put(&mut self, cid: Cid, bytes: Vec<u8>) -> bool {
                let fresh = self.inner.put(cid, bytes);
                if fresh {
                    self.totals.puts.fetch_add(1, Ordering::Relaxed);
                }
                fresh
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

        /// A mirror over a counting in-memory store.
        fn counted_mirror() -> (IncrementalRepoMirror, Arc<CountingTotals>) {
            let totals = Arc::new(CountingTotals::default());
            let store = CountingStore {
                inner: StoreConfig::mem().build(),
                totals: totals.clone(),
            };
            (IncrementalRepoMirror::with_store(Box::new(store)), totals)
        }

        #[test]
        fn unchanged_revs_cost_no_fetches() {
            let (mut relay, mut fleet, dids) = setup(3);
            let (mut mirror, store) = counted_mirror();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(mirror.repos.len(), 3);
            assert_eq!(summary.repo_full_fetches, 3);
            let after_first = summary;
            let puts_after_first = store.puts();
            // Nothing changed: the second weekly sync is free — no fetch,
            // no block written.
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(summary, after_first);
            assert_eq!(store.puts(), puts_after_first);
            // Syncing never reads a block back and stores each record block
            // once: what the store was handed is what the snapshots decode.
            assert_eq!(store.gets(), 0);
            let mirrored: usize = dids
                .iter()
                .map(|did| mirror.records(did, &mut summary).unwrap().len())
                .sum();
            assert!(mirrored >= 30);
            assert_eq!(store.puts(), mirrored as u64);
            assert_eq!(summary.repo_records_undecodable, 0);
        }

        #[test]
        fn advanced_revs_sync_with_deltas() {
            let (mut relay, mut fleet, dids) = setup(3);
            let (mut mirror, store) = counted_mirror();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            let full_bytes = summary.snapshot_bytes_fetched;
            let puts_after_first = store.puts();

            // One user posts; only that repo is re-synced, as a delta.
            post_on(&mut fleet, &dids[1], "fresh", now().plus_days(1));
            relay.crawl(&fleet, now().plus_days(1));
            mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
            assert_eq!(summary.repo_full_fetches, 3, "no extra full fetch");
            assert_eq!(summary.repo_delta_fetches, 1);
            let delta_bytes = summary.snapshot_bytes_fetched - full_bytes;
            assert!(delta_bytes > 0);
            assert!(delta_bytes < full_bytes / 3, "delta must be small");
            // The delta cost the store its one new record block — the head
            // commit it carried was verified, not kept — and no read.
            assert_eq!(store.puts(), puts_after_first + 1);
            assert_eq!(store.gets(), 0);
            // The mirrored state now includes the new record.
            let records = mirror.records(&dids[1], &mut summary).unwrap();
            assert!(records.iter().any(|(_, _, r)| *r == post("fresh")));
        }

        #[test]
        fn deleted_accounts_drop_mirrored_state() {
            let (mut relay, mut fleet, dids) = setup(2);
            let mut mirror = IncrementalRepoMirror::new();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(mirror.repos.len(), 2);
            fleet
                .pds_for_mut(&dids[0])
                .unwrap()
                .delete_account(&dids[0], now().plus_days(1))
                .unwrap();
            relay.crawl(&fleet, now().plus_days(1));
            mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
            assert_eq!(mirror.repos.len(), 1);
            assert!(mirror.records(&dids[0], &mut summary).is_none());
            assert!(mirror.records(&dids[1], &mut summary).is_some());
            // The dropped repo is a dataset gap, counted as a skip.
            assert_eq!(summary.repo_snapshot_skips, 1);
        }

        #[test]
        fn replaced_repo_falls_back_to_full_refetch() {
            let (mut relay, mut fleet, dids) = setup(2);
            let did = dids[0].clone();
            let mut mirror = IncrementalRepoMirror::new();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(summary.repo_full_fetches, 2);
            let old_rev = mirror
                .repos
                .get(&did)
                .map(|m| m.rev)
                .unwrap()
                .unwrap()
                .to_string();

            // The account is deleted on pds001 and re-created from scratch
            // on pds002 before the next snapshot: its repository history —
            // and its revision sequence — restarts. pds001 sorts first, so
            // the crawl sees the tombstone before the re-registration.
            fleet
                .pds_for_mut(&did)
                .unwrap()
                .delete_account(&did, now().plus_days(1))
                .unwrap();
            fleet
                .create_account_on(
                    "pds002.host.bsky.network",
                    did.clone(),
                    Handle::parse("mu0-reborn.bsky.social").unwrap(),
                    now().plus_days(1),
                )
                .unwrap();
            post_on(&mut fleet, &did, "rewound", now().plus_days(1));
            relay.crawl(&fleet, now().plus_days(1));

            mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
            // The mirror could not delta from a revision the new repo never
            // had: it re-fetched the whole (new) repository.
            assert_eq!(summary.repo_full_fetches, 3);
            let new_rev = mirror
                .repos
                .get(&did)
                .map(|m| m.rev)
                .unwrap()
                .unwrap()
                .to_string();
            assert_ne!(new_rev, old_rev);
            let records = mirror.records(&did, &mut summary).unwrap();
            assert!(records.iter().any(|(_, _, r)| *r == post("rewound")));
            assert!(
                !records.iter().any(|(_, _, r)| *r == post("u0 post 0")),
                "replaced repos must not retain pre-rewind records"
            );
        }

        #[test]
        fn compacted_source_revisions_fall_back_to_full_fetch_counted() {
            let (mut relay, mut fleet, dids) = setup(2);
            let mut mirror = IncrementalRepoMirror::new();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(summary.repo_full_fetches, 2);

            // One repo advances, then the source compacts the mirror's
            // synced revision out of its delta-serving window.
            let later = now().plus_days(30);
            post_on(&mut fleet, &dids[0], "after window", later);
            // Everything before the new head's commit time goes.
            let cutoff = Tid::from_micros(later.timestamp() as u64 * 1_000_000, 0);
            let stats = fleet.compact_all(&cutoff);
            assert!(stats.commits_dropped > 0);
            relay.crawl(&fleet, later);

            mirror.sync(&mut relay, &mut fleet, later, &mut summary);
            // The delta attempt failed because of compaction — counted,
            // then satisfied by a full fetch.
            assert_eq!(summary.repo_compaction_fallbacks, 1, "{summary:?}");
            assert_eq!(summary.repo_delta_fetches, 0);
            assert_eq!(summary.repo_full_fetches, 3);
            let records = mirror.records(&dids[0], &mut summary).unwrap();
            assert!(records.iter().any(|(_, _, r)| *r == post("after window")));
        }

        #[test]
        fn undecodable_mirrored_blocks_are_counted_not_dropped() {
            // A block that claims the post lexicon and lacks its required
            // fields: the `$type` probe mirrors it, the window-end decode
            // refuses it. It must show up in the summary, once, and not in
            // the snapshot.
            let (mut relay, mut fleet, dids) = setup(2);
            let post_nsid = Nsid::parse(known::POST).unwrap();
            let imposter = Record::Unknown(UnknownRecord {
                record_type: post_nsid.clone(),
                value: Value::map([("note", Value::text("no text, no createdAt"))]),
            });
            assert!(Record::is_record_block(&imposter.to_cbor()));
            assert!(Record::from_cbor(&imposter.to_cbor()).is_err());
            fleet
                .pds_for_mut(&dids[0])
                .unwrap()
                .create_record(&dids[0], post_nsid, imposter, now().plus_days(1))
                .unwrap();
            relay.crawl(&fleet, now().plus_days(1));

            let mut mirror = IncrementalRepoMirror::new();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
            assert_eq!(summary.repo_records_undecodable, 0, "counted at decode");
            let healthy = mirror.records(&dids[1], &mut summary).unwrap();
            assert_eq!(summary.repo_records_undecodable, 0);
            let gapped = mirror.records(&dids[0], &mut summary).unwrap();
            assert_eq!(summary.repo_records_undecodable, 1);
            assert_eq!(gapped.len(), healthy.len());
            assert!(gapped.iter().all(|(_, _, r)| matches!(r, Record::Post(_))));

            // Rendered only when non-zero, and shards add up exactly.
            assert!(!StreamSummary::default().render().contains("undecodable"));
            assert!(summary.render().contains("1 mirrored block(s) undecodable"));
            let mut merged = StreamSummary::default();
            merged.absorb(&summary);
            merged.absorb(&summary);
            assert_eq!(merged.repo_records_undecodable, 2);
        }

        #[test]
        fn paged_mirror_serves_identical_records_while_spilling() {
            use bsky_atproto::blockstore::StoreConfig;
            let (mut relay, mut fleet, dids) = setup(4);
            let mut mem = IncrementalRepoMirror::new();
            let paged_config = StoreConfig::paged().page_size(512).resident_pages(1);
            let mut paged = IncrementalRepoMirror::with_store(paged_config.build());
            let mut s1 = StreamSummary::default();
            let mut s2 = StreamSummary::default();
            mem.sync(&mut relay, &mut fleet, now(), &mut s1);
            paged.sync(&mut relay, &mut fleet, now(), &mut s2);
            assert!(
                paged.store_stats().spilled_bytes > 0,
                "mirror must spill: {:?}",
                paged.store_stats()
            );
            assert!(paged.store_stats().resident_bytes < mem.store_stats().resident_bytes);
            for did in &dids {
                assert_eq!(
                    paged.records(did, &mut s2),
                    mem.records(did, &mut s1),
                    "{did}"
                );
            }
            assert_eq!(s1.repo_records_undecodable + s2.repo_records_undecodable, 0);
            // Dropping every DID empties the store.
            for did in &dids {
                paged.drop_state(did);
            }
            assert_eq!(paged.store_stats().blocks, 0);
            assert_eq!(paged.store_stats().logical_bytes, 0);
        }

        #[test]
        fn a_block_two_dids_hold_outlives_either_of_them() {
            // Two repositories hold an identical record, so the mirror
            // stores it once and lists it in `shared`. Losing one holder —
            // its DID vanishes from `listRepos`, or a full refetch replaces
            // its state — leaves the block to the other; losing both empties
            // the store and the map. On both backends.
            let said_twice = post("said twice");
            let shared = Cid::for_cbor(&said_twice.to_cbor());
            let later = now().plus_days(1);
            for config in [
                StoreConfig::mem(),
                StoreConfig::paged().page_size(512).resident_pages(1),
            ] {
                for replaced in [false, true] {
                    let here = format!("{config:?}, replaced: {replaced}");
                    let (mut relay, mut fleet, dids) = setup(2);
                    for did in &dids {
                        post_on(&mut fleet, did, "said twice", now());
                    }
                    relay.crawl(&fleet, now());
                    let mut mirror = IncrementalRepoMirror::with_store(config.build());
                    let mut summary = StreamSummary::default();
                    mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
                    assert_eq!(mirror.shared.get(&shared), Some(&2), "{here}");
                    let blocks = mirror.store_stats().blocks;

                    let (gone, keeper) = (&dids[0], &dids[1]);
                    fleet
                        .pds_for_mut(gone)
                        .unwrap()
                        .delete_account(gone, later)
                        .unwrap();
                    if replaced {
                        fleet
                            .create_account_on(
                                "pds002.host.bsky.network",
                                gone.clone(),
                                Handle::parse("mu0-reborn.bsky.social").unwrap(),
                                later,
                            )
                            .unwrap();
                        post_on(&mut fleet, gone, "said once", later);
                    }
                    relay.crawl(&fleet, later);
                    mirror.sync(&mut relay, &mut fleet, later, &mut summary);
                    let full_fetches = 2 + u64::from(replaced);
                    assert_eq!(summary.repo_full_fetches, full_fetches, "{here}");
                    assert!(mirror.shared.is_empty(), "{here}");
                    let kept = mirror.records(keeper, &mut summary).unwrap();
                    assert!(kept.iter().any(|(_, _, r)| *r == said_twice), "{here}");
                    let replacement = mirror
                        .records(gone, &mut summary)
                        .map(|records| records.into_iter().map(|(_, _, r)| r).collect::<Vec<_>>());
                    let expected = replaced.then(|| vec![post("said once")]);
                    assert_eq!(replacement, expected, "{here}");
                    // The dropped DID's own ten posts left; the shared block
                    // stayed; a replacement added its one post.
                    let expected = blocks - 10 + usize::from(replaced);
                    assert_eq!(mirror.store_stats().blocks, expected, "{here}");
                    assert_eq!(summary.repo_records_undecodable, 0, "{here}");

                    for did in &dids {
                        mirror.drop_state(did);
                    }
                    assert_eq!(mirror.store_stats().blocks, 0, "{here}");
                    assert_eq!(mirror.store_stats().logical_bytes, 0, "{here}");
                    assert!(mirror.shared.is_empty(), "{here}");
                }
            }
        }

        #[test]
        fn repos_without_commits_are_mirrored_once() {
            let mut fleet = PdsFleet::with_default_servers_store(1, &StoreConfig::default());
            let did = Did::plc_from_seed(b"mirror-quiet");
            fleet
                .create_account_on(
                    "pds001.host.bsky.network",
                    did.clone(),
                    Handle::parse("quiet.bsky.social").unwrap(),
                    now(),
                )
                .unwrap();
            let mut relay = Relay::default();
            relay.crawl(&fleet, now());
            let mut mirror = IncrementalRepoMirror::new();
            let mut summary = StreamSummary::default();
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(summary.repo_full_fetches, 1);
            assert_eq!(mirror.repos.get(&did).map(|m| m.rev), Some(None));
            // No commits, no rev change: the next sync is free; the first
            // commit then syncs as a full fetch (no `since` to delta from).
            mirror.sync(&mut relay, &mut fleet, now(), &mut summary);
            assert_eq!(summary.repo_full_fetches, 1);
            post_on(&mut fleet, &did, "first", now().plus_days(1));
            relay.crawl(&fleet, now().plus_days(1));
            mirror.sync(&mut relay, &mut fleet, now().plus_days(1), &mut summary);
            assert_eq!(summary.repo_full_fetches, 2);
            assert_eq!(summary.repo_delta_fetches, 0);
        }
    }

    /// A flaky-fetch run whose retry budget always outlasts the injected
    /// failure cap must fetch exactly the bytes the clean run fetches — a
    /// retried request is the *same* request, re-issued after simulated
    /// backoff, never an extra accounted download.
    #[test]
    fn retries_never_double_count_fetched_bytes() {
        let mut config = ScenarioConfig::test_scale(31);
        config.start = Datetime::from_ymd(2024, 2, 20).unwrap();
        config.end = Datetime::from_ymd(2024, 4, 20).unwrap();
        config.scale = 40_000;
        let total_days = config.end.days_since(config.start).max(0) as usize;

        let clean = {
            let mut world = World::new(config);
            let mut analyzers = crate::shard::StudyAnalyzers::default();
            Collector::new().stream(&mut world, &mut analyzers)
        };

        // Injected failure runs are capped below 6 failures; 8 attempts can
        // always outlast them, so nothing ever gives up and every fetch
        // eventually happens exactly once.
        let patient = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 100,
            max_delay_ms: 1_000,
            timeout_ms: 5_000,
        };
        let spec = bsky_simnet::faults::FaultSpec {
            flaky_fetch: 0.3,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::build(config.seed, total_days, spec));
        let flaky = {
            let mut world = World::new(config);
            let mut analyzers = crate::shard::StudyAnalyzers::default();
            Collector::new()
                .faults(plan)
                .retry(TimeoutClass::RepoFetch, patient)
                .retry(TimeoutClass::DeltaFetch, patient)
                .stream(&mut world, &mut analyzers)
        };

        assert!(flaky.retry_attempts > 0, "flakiness never triggered");
        assert!(flaky.retry_backoff_ms > 0, "retries cost no simulated time");
        assert_eq!(flaky.fetch_retry_giveups, 0, "patient policy gave up");
        assert_eq!(
            flaky.snapshot_bytes_fetched, clean.snapshot_bytes_fetched,
            "retries double-counted fetched bytes"
        );
        assert_eq!(flaky.repo_full_fetches, clean.repo_full_fetches);
        assert_eq!(flaky.repo_delta_fetches, clean.repo_delta_fetches);
        assert_eq!(flaky.firehose_events, clean.firehose_events);
    }
}
