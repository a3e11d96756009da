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
//! no block and no CID: only an 8-byte projection of what the analyzers
//! read (the collection, the month of `createdAt`, a post's first language
//! or a follow's, block's or like's subject, and whether a like's subject
//! is a feed generator). Collections, months and names are interned
//! mirror-wide, each month rendered `YYYY-MM` once, so a record costs the
//! same bytes whatever its text, embeds or facets. A block that claims a
//! `$type` and then fails its lexicon is kept as a marker and counted in
//! [`StreamSummary::repo_records_undecodable`] when its snapshot is emitted.
//! Emission moves each DID's projections into its [`RepoSnapshot`] and
//! decodes nothing. On the PDS side compaction costs what aged out of the
//! window, not the repository (see `bsky_atproto::repo`, "Compaction"). It
//! runs every 7 days from the first simulated day: before the window as a
//! pass over the whole fleet, so the first round's full fetches carry each
//! head and at most three weeks of other commits, and inside it as part of
//! each round's sync, never between two. Compaction keeps every head, and
//! the sync compacts a repository right after syncing the mirror to its
//! head, so the next round's delta since it is served (a fetch that gave
//! up leaves an older revision, which a later round may find compacted: a
//! counted fallback to a full fetch).
//!
//! *When a repository forgets.* Inside the window the sync retires each DID
//! it lists right after handling it — fetched, delta-synced or unchanged,
//! and whether or not its fetch failed — to the round's [`Cutoff`]
//! ([`IncrementalRepoMirror::sync`]): its commits before the cutoff leave
//! the delta window, and the bytes of the user-day records committed before
//! the cutoff day go, which the mirror then holds, with the subtrees of the
//! repository's tree that froze with them. The PDS keeps each block, but
//! not its bytes, and each collapsed subtree as its CID. So a store holds a
//! DID's old bytes only while the mirror fetches them, not until the whole
//! round is done. A repository the relay does not list is left as it is
//! until the next round that lists it retires it. A delta since a revision
//! the mirror holds carries only newer records, so it reads none of them; a
//! full fetch (a backfill, a compaction fallback, a retry after a failed
//! delta) has its PDS draw them, and the collapsed subtrees, again from the
//! world's recipe and check each against its CID, counted in the stream
//! summary. The window end's catch-up sync retires nothing.
//!
//! *Why no CID is kept.* A full fetch replaces a DID's records with the
//! archive's, each distinct record block once (the scan skips a CID the
//! archive repeats). A delta is appended: a `DeltaScope::Records` delta
//! since revision `r` carries only the record blocks the repository's
//! commits after `r` wrote first, and none of those is in the full export
//! at `r`, which the mirror holds (pinned in `bsky_atproto::repo`'s tests).
//! So no record arrives twice, and the mirror never needs to ask which
//! records it holds. That is exact because a repository only creates
//! records: `bsky_atproto::repo::Write` has no update and no delete, so a
//! record the mirror holds stays in its repository, and the weekly
//! compaction drops commits and, in the window, the bytes of records the
//! PDS can draw again, never a record block. (Account deletion drops a
//! whole repository, which the mirror handles per DID.) A DID's records
//! therefore reach the analyzers in arrival order, and every analyzer of
//! [`crate::pipeline::Observation::Repo`] reads them as a multiset: counts
//! and sets.
//!
//! The paper's naive reading of §3 — download and decode every repository
//! CAR once, at the window end, O(total repo bytes) — is not a selectable
//! mode. It survives as the **test oracle** in this module's tests: a test
//! streams a world, fetches every collected DID's full CAR at the window
//! end, decodes it, projects every record the way the mirror does, and
//! requires each DID's records, resolved, to be the same multiset as the
//! mirror emitted (and the mirror to have fetched strictly fewer bytes).

use crate::pipeline::StreamSummary;
use bsky_atproto::cid::Cid;
use bsky_atproto::error::AtError;
use bsky_atproto::nsid::known;
use bsky_atproto::record::Record;
use bsky_atproto::repo::{commit_summary, CarReader, DeltaScope};
use bsky_atproto::{Datetime, Did, Nsid, Tid};
use bsky_pds::PdsFleet;
use bsky_relay::Relay;
use bsky_workload::faults::{FaultPlan, RetryPolicy, TimeoutClass};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::num::{NonZeroU16, NonZeroU32, NonZeroU8};
use std::sync::Arc;

/// One DID's repository at the window end, as the analyzers read it.
#[derive(Debug, Clone)]
pub struct RepoSnapshot {
    /// Repository owner.
    pub(crate) did: Did,
    /// Every record the mirror held for the DID, in arrival order, each
    /// record once, undecodable markers included.
    records: Vec<MirroredRecord>,
    /// The mirror's name tables, which the records' ids index.
    names: Arc<MirrorNames>,
}

impl RepoSnapshot {
    /// The decodable records, in arrival order: read them as a multiset.
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
    /// The `YYYY-MM` month of the record's self-reported creation time,
    /// when its lexicon has one.
    pub(crate) month: Option<&'a str>,
    /// A post's first language.
    pub(crate) lang: Option<&'a str>,
    /// The subject DID of a follow, a block or a like.
    pub(crate) subject: Option<&'a Did>,
    /// Whether a like's subject is a feed generator.
    pub(crate) likes_feed_generator: bool,
}

/// The index of a name in one of the mirror's [`Interned`] tables.
type NameId = NonZeroU32;

/// The index of a collection in [`MirrorNames::collections`]. The world
/// writes a handful of lexicons; a mirror that meets a 256th panics.
type CollectionId = NonZeroU8;

/// The index of a month in [`MirrorNames::months`]: 5 461 years of them.
type MonthId = NonZeroU16;

/// One mirrored record: an 8-byte projection of what the study reads,
/// owning no heap memory (its names are ids into the mirror's
/// [`MirrorNames`]) and holding no CID (see the module docs), however long
/// the post was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MirroredRecord {
    /// `None` marks a block that claimed a `$type` and then failed its
    /// lexicon's decode: kept so each emission counts it.
    collection: Option<CollectionId>,
    /// [`MirroredRecord::LANG`] and [`MirroredRecord::LIKES_FEED_GENERATOR`].
    flags: u8,
    /// The month of `createdAt`, when the record has one.
    month: Option<MonthId>,
    /// A post's first language (with [`MirroredRecord::LANG`]), or the
    /// subject of a follow, a block or a like.
    name: Option<NameId>,
}

impl MirroredRecord {
    /// `name` is a language, not a subject.
    const LANG: u8 = 1;
    /// A like whose subject is a feed generator.
    const LIKES_FEED_GENERATOR: u8 = 2;
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

/// The months records were created in, each keyed by its number (the
/// date's `month_number`) and rendered `YYYY-MM` once, in first-seen order.
#[derive(Debug, Clone, Default)]
struct Months {
    rendered: Vec<String>,
    ids: BTreeMap<i64, MonthId>,
}

impl Months {
    fn id(&mut self, at: Datetime) -> MonthId {
        let date = at.date();
        let number = date.month_number();
        if let Some(&id) = self.ids.get(&number) {
            return id;
        }
        let id = u16::try_from(self.rendered.len() + 1)
            .ok()
            .and_then(NonZeroU16::new)
            .expect("fewer than 2^16 distinct months");
        self.rendered.push(date.year_month());
        self.ids.insert(number, id);
        id
    }

    fn get(&self, id: MonthId) -> &str {
        &self.rendered[usize::from(id.get()) - 1]
    }
}

/// The mirror-wide name tables behind every [`MirroredRecord`].
#[derive(Debug, Clone, Default)]
struct MirrorNames {
    collections: Interned<Nsid>,
    months: Months,
    langs: Interned<String>,
    subjects: Interned<Did>,
}

impl MirrorNames {
    /// Project one decoded record, or a marker when the decode failed. The
    /// one place a record becomes what the study keeps of it; the oracle
    /// test projects its own decode with it.
    fn project(&mut self, record: Option<&Record>) -> MirroredRecord {
        let mut out = MirroredRecord {
            collection: None,
            flags: 0,
            month: None,
            name: None,
        };
        let Some(record) = record else {
            return out;
        };
        let collection = self.collections.id(&record.collection());
        out.collection =
            Some(CollectionId::try_from(collection).expect("fewer than 2^8 distinct collections"));
        out.month = record.created_at().map(|at| self.months.id(at));
        match record {
            Record::Post(post) => {
                out.flags |= MirroredRecord::LANG;
                out.name = post.langs.first().map(|lang| self.langs.id(lang.as_str()));
            }
            Record::Follow(follow) => out.name = Some(self.subjects.id(&follow.subject)),
            Record::Block(block) => out.name = Some(self.subjects.id(&block.subject)),
            Record::Like(like) => {
                out.name = Some(self.subjects.id(like.subject.did()));
                let collection = like.subject.collection();
                if collection.is_some_and(|c| c.as_str() == known::FEED_GENERATOR) {
                    out.flags |= MirroredRecord::LIKES_FEED_GENERATOR;
                }
            }
            _ => {}
        }
        out
    }

    /// `record` with its names resolved, or `None` for a marker.
    fn view(&self, record: &MirroredRecord) -> Option<RecordView<'_>> {
        let lang = record.flags & MirroredRecord::LANG != 0;
        Some(RecordView {
            collection: self.collections.get(record.collection?.into()),
            month: record.month.map(|id| self.months.get(id)),
            lang: record
                .name
                .filter(|_| lang)
                .map(|id| self.langs.get(id).as_str()),
            subject: record
                .name
                .filter(|_| !lang)
                .map(|id| self.subjects.get(id)),
            likes_feed_generator: record.flags & MirroredRecord::LIKES_FEED_GENERATOR != 0,
        })
    }
}

/// Mirrored repository state for one DID, synced to a known revision.
#[derive(Debug, Clone, Default)]
struct MirroredRepo {
    /// The revision the state is synced to (`None`: no commits yet).
    rev: Option<Tid>,
    /// One projection per record block the DID's archives carried — the
    /// same view a reader of a full CAR takes, so as a multiset these are
    /// what a window-end full export decodes to. A full fetch replaces the
    /// list and a delta appends to it, at exact capacity each time.
    records: Vec<MirroredRecord>,
    /// The PDS hostname the state was fetched from. A repo that re-homes
    /// (account migration) is backfilled with a full fetch: deltas across
    /// a host change are not trusted.
    host: Option<String>,
    /// The last sync pass whose `listRepos` view named the DID; a pass
    /// forgets every entry that is a pass behind.
    listed_in: u64,
}

/// Where a sync retires each repository it lists: commits before `rev`
/// leave its delta window, and the bytes of the records its user-days
/// before `day` wrote go.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cutoff {
    pub(crate) rev: Tid,
    pub(crate) day: u16,
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

    /// Append one DID's freshly fetched record blocks, still borrowed from
    /// the verified CAR they arrived in, to the DID's list (a full fetch
    /// removes the list first). Each block is decoded here, once, and only
    /// its projection is kept; its CID only ordered the archive.
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
        entry.records.reserve_exact(records.len());
        for &(_, bytes) in records {
            let record = Record::from_cbor(bytes).ok();
            entry.records.push(names.project(record.as_ref()));
        }
        entry
    }

    /// One rev-aware sync pass over the relay's `listRepos` view. Fetch
    /// traffic and skips are accounted into `summary`. A DID whose revision
    /// and host are unchanged costs one map lookup: nothing is rendered or
    /// allocated for it. Under a `cutoff` each listed DID's repository is
    /// retired right after the DID is handled, whatever its fetch did
    /// (`PdsFleet::retire_repo`): the mirror then holds every record the
    /// release lets go, and the PDS store holds their bytes only while the
    /// mirror fetches them. What the retirements drop counts into `summary`.
    pub(crate) fn sync(
        &mut self,
        relay: &mut Relay,
        fleet: &mut PdsFleet,
        now: Datetime,
        cutoff: Option<Cutoff>,
        summary: &mut StreamSummary,
    ) {
        let retire = |fleet: &mut PdsFleet, did: &Did, summary: &mut StreamSummary| {
            if let Some(Cutoff { rev, day }) = &cutoff {
                let stats = fleet.retire_repo(did, rev, *day);
                summary.commits_dropped += stats.commits_dropped as u64;
                summary.store_bytes_reclaimed += stats.bytes_reclaimed as u64;
                summary.subtrees_collapsed += stats.subtrees_collapsed as u64;
            }
        };
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
                        // Unchanged since the last snapshot.
                        retire(fleet, &did, summary);
                        continue;
                    }
                }
                let host = host.map(str::to_string);
                if host_changed || !self.try_delta(relay, fleet, now, &did, current, summary) {
                    self.full_fetch(relay, fleet, now, &did, current, host, summary);
                }
                retire(fleet, &did, summary);
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
            did.as_str(),
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
        let key = did.as_str();
        if !resolve_retries(&self.faults, self.retry_full, "full", key, now, summary) {
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
                // Synced to the archive's own head, which a later delta
                // starts from: the listed revision unless the relay lags
                // the PDS, and then a delta since the listed one would
                // carry records the archive held already.
                let head = scan.head_commit.and_then(|head| commit_summary(head).ok());
                let entry = self.insert_records(did, &scan.records);
                entry.rev = head.map_or(current, |(rev, _)| Some(rev));
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
/// carries it) and the record blocks in CID order, each CID once.
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
    // A block the archive repeats is one record: sorted (exports already
    // are), so a repeat sits beside its first copy.
    scan.records.sort_unstable_by_key(|&(cid, _)| cid);
    scan.records.dedup_by_key(|&mut (cid, _)| cid);
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
