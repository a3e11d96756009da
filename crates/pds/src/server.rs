//! The Personal Data Server.
//!
//! A PDS hosts the repositories of the accounts registered with it and
//! exposes the `com.atproto.sync.*` endpoints the Relay crawls: `listRepos`
//! (paginated DID + latest revision), `getRepo` (CAR export, with a
//! `since=rev` delta variant serving only the blocks created after a known
//! revision) and an event outbox that stands in for `subscribeRepos` at the
//! PDS level (§2, §3).
//!
//! The outbox drains. Every event has an *absolute position* — 0 for the
//! first event the server ever produced — and a crawler's cursor is such a
//! position, so it keeps its meaning however much of the outbox is still
//! held. `Pds::trim_outbox` lets go of the events below a position and
//! counts them; [`Pds::events_since`] serves from the first event still held.
//! Who trims owns the contract: only events every crawler of this server has
//! taken may go. A crawler that asks for a position already let go is served
//! from the first retained event and can tell — the slice it gets starts
//! later than it asked — and must count the gap rather than hide it (the
//! relay does, in `RelayStats::outbox_positions_skipped`).

use crate::account::{Account, AccountStatus};
use bsky_atproto::blockstore::{StoreConfig, StoreStats};
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::record::Record;
use bsky_atproto::repo::{CommitResult, CompactionStats, DeltaScope, Repository, Write};
use bsky_atproto::{Datetime, Did, Handle, Nsid, Tid};
use std::collections::BTreeMap;

/// Who operates a PDS (§2: Bluesky PBC runs the defaults, self-hosting is
/// possible since federation opened).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdsOperator {
    /// One of the default `*.host.bsky.network` servers run by Bluesky PBC.
    BlueskyPbc,
    /// A community / self-hosted server.
    SelfHosted,
}

/// An event produced by a PDS, to be picked up by the Relay crawler.
#[derive(Debug, Clone, PartialEq)]
pub struct PdsEvent {
    /// When the PDS registered the event.
    pub at: Datetime,
    /// The account concerned.
    pub did: Did,
    /// What happened.
    pub detail: PdsEventDetail,
}

/// Event payloads a PDS can emit.
#[derive(Debug, Clone, PartialEq)]
pub enum PdsEventDetail {
    /// A repository commit (new records, updates, deletions).
    Commit(CommitResult),
    /// The account's handle changed.
    HandleChange(Handle),
    /// The account's DID document changed (PDS migration, key rotation, ...).
    IdentityUpdate,
    /// The account was deleted.
    AccountDelete,
}

/// A Personal Data Server instance. Its event outbox is read by absolute
/// position and drains under `Pds::trim_outbox`; the module docs state who
/// may trim and what a crawler that fell behind is owed.
#[derive(Debug)]
pub struct Pds {
    hostname: String,
    operator: PdsOperator,
    accounts: BTreeMap<Did, Account>,
    repos: BTreeMap<Did, Repository>,
    /// The events still held, oldest first: `outbox[i]` is the event at
    /// absolute position `outbox_trimmed + i`.
    outbox: Vec<PdsEvent>,
    /// Events let go by [`Pds::trim_outbox`]: the position of `outbox[0]`.
    outbox_trimmed: usize,
    /// Block-store backend every hosted repository is created over.
    store_config: StoreConfig,
}

impl Pds {
    /// Create a PDS whose hosted repositories use an explicit block-store
    /// backend (e.g. the paged disk-spill store).
    pub fn with_store(
        hostname: impl Into<String>,
        operator: PdsOperator,
        store_config: StoreConfig,
    ) -> Pds {
        Pds {
            hostname: hostname.into(),
            operator,
            accounts: BTreeMap::new(),
            repos: BTreeMap::new(),
            outbox: Vec::new(),
            outbox_trimmed: 0,
            store_config,
        }
    }

    /// The PDS hostname.
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The service endpoint URL placed in DID documents.
    pub fn endpoint(&self) -> String {
        format!("https://{}", self.hostname)
    }

    /// Who operates this PDS.
    pub(crate) fn operator(&self) -> PdsOperator {
        self.operator
    }

    /// Create an account and its empty repository.
    pub(crate) fn create_account(&mut self, did: Did, handle: Handle, at: Datetime) -> Result<()> {
        if self.accounts.contains_key(&did) {
            return Err(AtError::RepoError(format!("{did} already hosted here")));
        }
        self.accounts
            .insert(did.clone(), Account::new(did.clone(), handle, at));
        self.repos.insert(
            did.clone(),
            Repository::with_store(
                did.clone(),
                self.hostname.as_bytes(),
                self.store_config.build(),
            ),
        );
        self.outbox.push(PdsEvent {
            at,
            did,
            detail: PdsEventDetail::IdentityUpdate,
        });
        Ok(())
    }

    /// Access a hosted repository.
    pub fn repo(&self, did: &Did) -> Option<&Repository> {
        self.repos.get(did)
    }

    /// Whether `did` has an active account here: the status every write
    /// checks first.
    pub fn is_active(&self, did: &Did) -> bool {
        let account = self.accounts.get(did);
        account.is_some_and(|a| a.status == AccountStatus::Active)
    }

    /// Apply a batch of writes to a hosted repository, emitting a commit
    /// event for the Relay.
    pub fn apply_writes(
        &mut self,
        did: &Did,
        writes: &[Write],
        at: Datetime,
    ) -> Result<CommitResult> {
        match self.accounts.get(did) {
            Some(a) if a.status == AccountStatus::Active => {}
            Some(_) => return Err(AtError::RepoError(format!("{did} is not active"))),
            None => return Err(AtError::RepoError(format!("{did} not hosted here"))),
        }
        let repo = self
            .repos
            .get_mut(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} has no repo")))?;
        let result = repo.apply_writes(writes, at)?;
        self.outbox.push(PdsEvent {
            at,
            did: did.clone(),
            detail: PdsEventDetail::Commit(result.clone()),
        });
        Ok(result)
    }

    /// Convenience: create a single record keyed by a fresh TID.
    pub fn create_record(
        &mut self,
        did: &Did,
        collection: Nsid,
        record: Record,
        at: Datetime,
    ) -> Result<(String, CommitResult)> {
        if !self.is_active(did) {
            return Err(AtError::RepoError(format!("{did} is not active")));
        }
        let repo = self
            .repos
            .get_mut(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))?;
        let (rkey, result) = repo.create_record(collection, record, at)?;
        self.outbox.push(PdsEvent {
            at,
            did: did.clone(),
            detail: PdsEventDetail::Commit(result.clone()),
        });
        Ok((rkey, result))
    }

    /// Change an account's handle, emitting a handle-change event.
    pub fn change_handle(&mut self, did: &Did, new_handle: Handle, at: Datetime) -> Result<()> {
        let account = self
            .accounts
            .get_mut(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))?;
        account.handle = new_handle.clone();
        self.outbox.push(PdsEvent {
            at,
            did: did.clone(),
            detail: PdsEventDetail::HandleChange(new_handle),
        });
        Ok(())
    }

    /// Delete an account, emitting a tombstone event. The repository is
    /// dropped from this PDS.
    pub fn delete_account(&mut self, did: &Did, at: Datetime) -> Result<()> {
        let account = self
            .accounts
            .get_mut(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))?;
        account.status = AccountStatus::Deleted;
        self.repos.remove(did);
        self.outbox.push(PdsEvent {
            at,
            did: did.clone(),
            detail: PdsEventDetail::AccountDelete,
        });
        Ok(())
    }

    /// Remove a repository as part of a migration to another PDS, returning
    /// it so the destination can import it. The account entry stays as a
    /// deactivated stub.
    pub(crate) fn migrate_out(&mut self, did: &Did, at: Datetime) -> Result<Repository> {
        let repo = self
            .repos
            .remove(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))?;
        if let Some(account) = self.accounts.get_mut(did) {
            account.status = AccountStatus::Deactivated;
        }
        self.outbox.push(PdsEvent {
            at,
            did: did.clone(),
            detail: PdsEventDetail::IdentityUpdate,
        });
        Ok(repo)
    }

    /// Import a repository migrated from another PDS.
    pub(crate) fn migrate_in(
        &mut self,
        repo: Repository,
        handle: Handle,
        at: Datetime,
    ) -> Result<()> {
        let did = repo.did().clone();
        if self.repos.contains_key(&did) {
            return Err(AtError::RepoError(format!("{did} already hosted here")));
        }
        self.repos.insert(did.clone(), repo);
        self.accounts
            .entry(did.clone())
            .and_modify(|a| a.status = AccountStatus::Active)
            .or_insert_with(|| Account::new(did.clone(), handle.clone(), at));
        self.outbox.push(PdsEvent {
            at,
            did,
            detail: PdsEventDetail::IdentityUpdate,
        });
        Ok(())
    }

    // ----- com.atproto.sync.* -----

    /// `sync.getRepo`: CAR export of a hosted repository.
    pub fn get_repo(&mut self, did: &Did) -> Result<Vec<u8>> {
        self.repos
            .get(did)
            .map(Repository::export_car)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))
    }

    /// `sync.getRepo` with `since`: a delta CAR carrying only the blocks
    /// created after the given revision, at the requested [`DeltaScope`]
    /// (full block fidelity for mirrors, records-only for dataset
    /// consumers). Errors when the DID is not hosted here or the revision
    /// is unknown (rewound / replaced repo), in which case the caller must
    /// fall back to a full [`Pds::get_repo`].
    pub fn get_repo_since(&mut self, did: &Did, since: &Tid, scope: DeltaScope) -> Result<Vec<u8>> {
        self.repos
            .get(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted here")))?
            .export_car_since(since, scope)
    }

    /// Events at or after the absolute outbox position `cursor` (the
    /// Relay's per-PDS crawl cursor) that are still held. Returns the slice
    /// and the next cursor; the slice ends at that cursor, so its first
    /// event sits at `next - slice.len()` — later than `cursor` exactly when
    /// positions the caller never saw were trimmed.
    pub fn events_since(&self, cursor: usize) -> (&[PdsEvent], usize) {
        let start = cursor
            .saturating_sub(self.outbox_trimmed)
            .min(self.outbox.len());
        (
            &self.outbox[start..],
            self.outbox_trimmed + self.outbox.len(),
        )
    }

    /// Let go of every held event below the absolute position `upto`,
    /// returning how many went. The caller vouches that every crawler of
    /// this server is at or past `upto`. A position at or below what was
    /// already trimmed is a no-op, so trimming twice is idempotent.
    pub(crate) fn trim_outbox(&mut self, upto: usize) -> usize {
        let gone = upto
            .saturating_sub(self.outbox_trimmed)
            .min(self.outbox.len());
        self.outbox.drain(..gone);
        self.outbox_trimmed += gone;
        gone
    }

    /// Run the compaction pass over every hosted repository: commits that
    /// aged out of the delta-serving window ending at `cutoff` are dropped
    /// (see [`Repository::compact_before`]).
    pub(crate) fn compact_repos(&mut self, cutoff: &Tid) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for repo in self.repos.values_mut() {
            stats.absorb(&repo.compact_before(cutoff));
        }
        stats
    }

    /// Aggregate block-store statistics over every hosted repository.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for repo in self.repos.values() {
            stats.absorb(&repo.store_stats());
        }
        stats
    }

    /// All hosted DIDs.
    pub fn hosted_dids(&self) -> Vec<Did> {
        self.repos.values().map(|r| r.did().clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::PostRecord;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 1)
            .unwrap()
            .plus_seconds(8 * 3600)
    }

    fn post(text: &str) -> Record {
        Record::Post(PostRecord::simple(text, "en", now()))
    }

    fn pds_with_alice() -> (Pds, Did) {
        let mut pds = Pds::with_store(
            "pds001.host.bsky.network",
            PdsOperator::BlueskyPbc,
            StoreConfig::default(),
        );
        let did = Did::plc_from_seed(b"alice");
        pds.create_account(
            did.clone(),
            Handle::parse("alice.bsky.social").unwrap(),
            now(),
        )
        .unwrap();
        (pds, did)
    }

    #[test]
    fn account_lifecycle_and_events() {
        let (mut pds, did) = pds_with_alice();
        assert_eq!(pds.accounts.len(), 1);
        assert!(pds.repo(&did).is_some());
        assert_eq!(pds.endpoint(), "https://pds001.host.bsky.network");

        let (_, result) = pds
            .create_record(
                &did,
                Nsid::parse(known::POST).unwrap(),
                post("hello"),
                now(),
            )
            .unwrap();
        assert_eq!(result.ops.len(), 1);

        pds.change_handle(&did, Handle::parse("alice.example.com").unwrap(), now())
            .unwrap();
        assert_eq!(pds.accounts[&did].handle.as_str(), "alice.example.com");

        let (events, next) = pds.events_since(0);
        // identity (create), commit, handle change
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0].detail, PdsEventDetail::IdentityUpdate));
        assert!(matches!(events[1].detail, PdsEventDetail::Commit(_)));
        assert!(matches!(events[2].detail, PdsEventDetail::HandleChange(_)));
        // Cursor semantics.
        let (later, _) = pds.events_since(next);
        assert!(later.is_empty());

        pds.delete_account(&did, now()).unwrap();
        assert!(pds.repo(&did).is_none());
        assert!(pds
            .create_record(&did, Nsid::parse(known::POST).unwrap(), post("x"), now())
            .is_err());
        let (events, _) = pds.events_since(next);
        assert!(matches!(events[0].detail, PdsEventDetail::AccountDelete));
    }

    #[test]
    fn outbox_trim_keeps_positions_absolute() {
        let (mut pds, did) = pds_with_alice();
        for text in ["one", "two", "three"] {
            pds.create_record(&did, Nsid::parse(known::POST).unwrap(), post(text), now())
                .unwrap();
        }
        // identity + three commits at positions 0..4.
        let all: Vec<PdsEvent> = pds.events_since(0).0.to_vec();
        assert_eq!((all.len(), pds.events_since(0).1), (4, 4));
        // (events let go, events held): the held slice from the start ends
        // at the absolute position of the next event.
        let outbox = |pds: &Pds| {
            let (held, next) = pds.events_since(0);
            (next - held.len(), held.len())
        };
        assert_eq!(pds.trim_outbox(2), 2);
        assert_eq!(outbox(&pds), (2, 2));
        // A cursor at or past the trim point is served exactly as before.
        assert_eq!(pds.events_since(2), (&all[2..], 4));
        assert_eq!(pds.events_since(3), (&all[3..], 4));
        assert_eq!(pds.events_since(9), (&all[4..], 4));
        // One below it is served from the first event still held; the
        // slice starts at `next - len`, later than asked.
        assert_eq!(pds.events_since(0), (&all[2..], 4));
        // Idempotent, and never past the end.
        assert_eq!(pds.trim_outbox(2), 0);
        assert_eq!(pds.trim_outbox(1), 0);
        assert_eq!(pds.trim_outbox(100), 2);
        assert_eq!(outbox(&pds), (4, 0));
        // New events continue the sequence.
        pds.create_record(&did, Nsid::parse(known::POST).unwrap(), post("four"), now())
            .unwrap();
        let (events, next) = pds.events_since(4);
        assert_eq!((events.len(), next), (1, 5));
    }

    #[test]
    fn duplicate_account_rejected() {
        let (mut pds, did) = pds_with_alice();
        assert!(pds
            .create_account(did, Handle::parse("alice2.bsky.social").unwrap(), now())
            .is_err());
    }

    #[test]
    fn writes_only_for_hosted_active_accounts() {
        let (mut pds, _) = pds_with_alice();
        let stranger = Did::plc_from_seed(b"stranger");
        assert!(pds
            .apply_writes(
                &stranger,
                &[Write::Create {
                    collection: Nsid::parse(known::POST).unwrap(),
                    rkey: "abc".into(),
                    record: post("x"),
                }],
                now()
            )
            .is_err());
        assert!(pds.get_repo(&stranger).is_err());
    }

    #[test]
    fn car_export_via_sync() {
        let (mut pds, did) = pds_with_alice();
        pds.create_record(
            &did,
            Nsid::parse(known::POST).unwrap(),
            post("hello"),
            now(),
        )
        .unwrap();
        let car = pds.get_repo(&did).unwrap();
        let (roots, blocks) = Repository::parse_car(&car).unwrap();
        assert_eq!(roots.len(), 1);
        assert!(!blocks.is_empty());
    }

    #[test]
    fn delta_export_via_sync() {
        let (mut pds, did) = pds_with_alice();
        pds.create_record(&did, Nsid::parse(known::POST).unwrap(), post("v1"), now())
            .unwrap();
        let since = pds.repo(&did).unwrap().rev().unwrap();
        let base = pds.get_repo(&did).unwrap();
        pds.create_record(&did, Nsid::parse(known::POST).unwrap(), post("v2"), now())
            .unwrap();
        let delta = pds.get_repo_since(&did, &since, DeltaScope::Full).unwrap();
        let records_delta = pds
            .get_repo_since(&did, &since, DeltaScope::Records)
            .unwrap();
        assert!(records_delta.len() < delta.len());
        assert!(delta.len() < pds.get_repo(&did).unwrap().len());
        let merged = Repository::apply_delta(&base, &delta).unwrap();
        let (roots, _) = Repository::parse_car(&merged).unwrap();
        let full = pds.get_repo(&did).unwrap();
        assert_eq!(roots, Repository::parse_car(&full).unwrap().0);
        // Unknown revisions and unknown DIDs error (full-fetch fallback).
        assert!(pds
            .get_repo_since(
                &did,
                &bsky_atproto::Tid::from_micros(7, 7),
                DeltaScope::Full
            )
            .is_err());
        assert!(pds
            .get_repo_since(&Did::plc_from_seed(b"stranger"), &since, DeltaScope::Full)
            .is_err());
    }

    #[test]
    fn migration_between_pdses() {
        let (mut origin, did) = pds_with_alice();
        let (pre_move, _) = origin
            .create_record(
                &did,
                Nsid::parse(known::POST).unwrap(),
                post("pre-move"),
                now(),
            )
            .unwrap();
        let mut destination = Pds::with_store(
            "self-hosted.example",
            PdsOperator::SelfHosted,
            StoreConfig::default(),
        );

        let repo = origin.migrate_out(&did, now()).unwrap();
        destination
            .migrate_in(repo, Handle::parse("alice.example.com").unwrap(), now())
            .unwrap();

        assert!(origin.repo(&did).is_none());
        assert!(destination.repo(&did).is_some());
        // Content survives the move.
        let posts = Nsid::parse(known::POST).unwrap();
        let moved = destination.repo(&did).unwrap();
        assert_eq!(moved.get_record(&posts, &pre_move), Some(post("pre-move")));
        // Writes continue at the destination.
        let (post_move, _) = destination
            .create_record(&did, posts.clone(), post("post-move"), now())
            .unwrap();
        let moved = destination.repo(&did).unwrap();
        assert!(moved.get_record(&posts, &pre_move).is_some());
        assert_eq!(
            moved.get_record(&posts, &post_move),
            Some(post("post-move"))
        );
        // Importing twice fails.
        let repo_again = Repository::with_store(did.clone(), b"x", StoreConfig::default().build());
        assert!(destination
            .migrate_in(
                repo_again,
                Handle::parse("alice.example.com").unwrap(),
                now()
            )
            .is_err());
        // The origin cannot migrate out what it no longer has.
        assert!(origin.migrate_out(&did, now()).is_err());
    }
}
