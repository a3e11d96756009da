//! The Relay service.
//!
//! The Relay aggregates user interactions across every known PDS: it crawls
//! their sync endpoints, republishes everything on the firehose, and serves
//! `sync.listRepos` and `sync.getRepo` for the whole network (§2). Bluesky
//! PBC runs the default Relay at `bsky.network`; the study obtained both its
//! full repository snapshot and its real-time event stream from this single
//! vantage point (§3).

use crate::firehose::{FirehoseLog, Subscription};
use crate::observer::{ConnTrace, WireObserver};
use crate::stats::RelayStats;
use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::firehose::{EventBody, Seq};
use bsky_atproto::repo::DeltaScope;
use bsky_atproto::{Datetime, Did, Tid};
use bsky_pds::{Pds, PdsEventDetail, PdsFleet};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Provenance of a firehose event: which PDS outbox produced it, and at
/// which absolute outbox position (0: the first event that server ever
/// produced, however much of its outbox has been trimmed since). Events
/// that carry no repo revision (identity, handle, tombstone frames) are
/// deduplicated across relay tiers by this `(host, outbox_seq)` pair — the
/// same outbox slot delivered twice is the same event, wherever it travelled.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventOrigin {
    /// Hostname of the PDS whose outbox produced the event.
    pub host: String,
    /// Zero-based absolute position in that outbox.
    pub(crate) outbox_seq: u64,
}

/// The Relay: PDS crawler, firehose publisher and `sync` endpoint.
#[derive(Debug)]
pub struct Relay {
    firehose: FirehoseLog,
    crawl_cursors: BTreeMap<String, usize>,
    known_dids: BTreeMap<Did, Option<Tid>>,
    stats: RelayStats,
    /// Passive wire tap: per-DID firehose `(time, size)` traces for the §10
    /// traffic observatory. Always on — recording is a couple of integer
    /// pushes per event — and drained by the study producer at day ends.
    wire_tap: WireObserver,
    /// Provenance of each retained firehose frame, pruned in lockstep with
    /// the firehose retention window. Downstream relay tiers read this to
    /// deduplicate events that carry no `(did, rev)` key of their own.
    origins: BTreeMap<Seq, EventOrigin>,
}

impl Default for Relay {
    /// The default network relay, `bsky.network`.
    fn default() -> Self {
        Relay::with_store("bsky.network", &StoreConfig::default())
    }
}

impl Relay {
    /// Create a relay. It stores no blocks: `sync.getRepo` is served from
    /// the hosting PDS. (`_hostname` and `_store` are unused; the signature
    /// is part of the benchmark's pinned surface.)
    pub fn with_store(_hostname: impl Into<String>, _store: &StoreConfig) -> Relay {
        Relay {
            firehose: FirehoseLog::new(),
            crawl_cursors: BTreeMap::new(),
            known_dids: BTreeMap::new(),
            stats: RelayStats::new(),
            wire_tap: WireObserver::new(),
            origins: BTreeMap::new(),
        }
    }

    /// Crawl every PDS in the fleet, ingesting new events into the firehose.
    /// Returns the number of events ingested.
    ///
    /// The per-PDS crawl cursors are absolute outbox positions. A crawl
    /// trims nothing: it borrows the fleet, and whoever owns both the fleet
    /// and every relay crawling it decides what may go
    /// ([`Relay::crawl_cursors`] is what this relay has taken). Should a
    /// server have let go of positions this relay had not reached, the crawl
    /// resumes at the first retained event and counts the gap into
    /// the relay's count of skipped outbox positions — lagging is loud.
    pub fn crawl(&mut self, fleet: &PdsFleet, now: Datetime) -> usize {
        let ingested = self.crawl_hosts(fleet, now, |_| true);
        self.prune_firehose(now);
        ingested
    }

    /// Crawl the subset of PDSes whose hostname passes `accept`, in
    /// hostname-sorted order — the same order a whole-fleet [`Relay::crawl`]
    /// visits them, so a set of regional relays holding contiguous slices of
    /// the sorted hostname list reproduces the single-relay event
    /// interleaving exactly. Does *not* prune the firehose; callers that
    /// forward events downstream prune after forwarding.
    pub(crate) fn crawl_hosts(
        &mut self,
        fleet: &PdsFleet,
        now: Datetime,
        accept: impl Fn(&str) -> bool,
    ) -> usize {
        let mut ingested = 0usize;
        // Collect hostnames first to keep borrow scopes simple.
        let hostnames: Vec<String> = fleet
            .servers()
            .map(|p| p.hostname().to_string())
            .filter(|h| accept(h))
            .collect();
        for hostname in hostnames {
            let server = match fleet.server(&hostname) {
                Some(s) => s,
                None => continue,
            };
            let cursor = self.crawl_cursor(&hostname);
            let (events, next_cursor) = server.events_since(cursor);
            // Later than asked for: the positions in between were trimmed.
            let first = next_cursor - events.len();
            self.stats
                .record_outbox_skipped(first.saturating_sub(cursor));
            for (offset, event) in events.iter().enumerate() {
                let body = match &event.detail {
                    PdsEventDetail::Commit(result) => EventBody::Commit {
                        did: event.did.clone(),
                        commit: result.commit_cid,
                        rev: result.commit.rev,
                        ops: result.ops.clone(),
                        blocks_bytes: result.bytes_written,
                        too_big: result.bytes_written > 1_000_000,
                    },
                    PdsEventDetail::HandleChange(handle) => EventBody::HandleChange {
                        did: event.did.clone(),
                        handle: handle.clone(),
                    },
                    PdsEventDetail::IdentityUpdate => EventBody::Identity {
                        did: event.did.clone(),
                    },
                    PdsEventDetail::AccountDelete => EventBody::Tombstone {
                        did: event.did.clone(),
                    },
                };
                let time = if event.at.timestamp() > now.timestamp() {
                    now
                } else {
                    event.at
                };
                let origin = EventOrigin {
                    host: hostname.clone(),
                    outbox_seq: (first + offset) as u64,
                };
                self.ingest_event(time, body, Some(origin));
                ingested += 1;
            }
            self.crawl_cursors.insert(hostname, next_cursor);
        }
        ingested
    }

    /// Append one event to the firehose, updating the account table, volume
    /// stats and passive wire tap exactly as a crawl would. This is the
    /// ingress path shared by [`Relay::crawl`] and inter-relay forwarding:
    /// a super-relay receiving a frame from a regional relay feeds it
    /// through here so its `listRepos` view and wire accounting are
    /// indistinguishable from having crawled the PDS itself.
    pub(crate) fn ingest_event(
        &mut self,
        time: Datetime,
        body: EventBody,
        origin: Option<EventOrigin>,
    ) -> Seq {
        match &body {
            EventBody::Commit { did, rev, .. } => {
                // Track latest known revision for listRepos.
                match self.known_dids.get_mut(did) {
                    Some(known) => *known = Some(*rev),
                    None => {
                        self.known_dids.insert(did.clone(), Some(*rev));
                    }
                }
            }
            EventBody::Identity { did } => {
                if !self.known_dids.contains_key(did) {
                    self.known_dids.insert(did.clone(), None);
                }
            }
            EventBody::Tombstone { did } => {
                self.known_dids.remove(did);
            }
            EventBody::HandleChange { .. } | EventBody::Info { .. } => {}
        }
        let tap_key = match &body {
            EventBody::Commit { did, .. }
            | EventBody::Identity { did }
            | EventBody::HandleChange { did, .. }
            | EventBody::Tombstone { did } => Some(did.clone()),
            EventBody::Info { .. } => None,
        };
        let (seq, wire_size) = self.firehose.append(time, body);
        // Feed the passive tap: a firehose subscriber's wire carries this
        // frame at this instant, keyed by the subject DID.
        if let Some(key) = tap_key {
            self.wire_tap
                .record(key, time.timestamp(), wire_size as u64);
        }
        if let Some(origin) = origin {
            self.origins.insert(seq, origin);
        }
        seq
    }

    /// Prune the firehose retention window, dropping origin records for
    /// frames that fell out of it.
    pub(crate) fn prune_firehose(&mut self, now: Datetime) {
        self.firehose.prune(now);
        match self.firehose.iter().next().map(|e| e.seq) {
            Some(oldest) => self.origins = self.origins.split_off(&oldest),
            None => self.origins.clear(),
        }
    }

    /// Provenance of a retained firehose frame, if recorded at ingest.
    pub fn event_origin(&self, seq: Seq) -> Option<&EventOrigin> {
        self.origins.get(&seq)
    }

    /// The firehose log (read access for subscribers and stats).
    pub fn firehose(&self) -> &FirehoseLog {
        &self.firehose
    }

    /// Drain the passive wire tap: per-DID `(time, size)` traces of every
    /// firehose frame appended since the last drain, in DID-sorted order.
    pub fn take_wire_traces(&mut self) -> BTreeMap<Did, ConnTrace> {
        self.wire_tap.drain()
    }

    /// This relay's crawl cursor for every server of the fleet, in
    /// [`PdsFleet::servers`] order: the absolute outbox position below which
    /// it has taken that server's events (see [`PdsFleet::trim_outboxes`]).
    pub fn crawl_cursors(&self, fleet: &PdsFleet) -> Vec<usize> {
        fleet
            .servers()
            .map(|server| self.crawl_cursor(server.hostname()))
            .collect()
    }

    /// The crawl cursor for one host (0: never crawled).
    pub(crate) fn crawl_cursor(&self, hostname: &str) -> usize {
        self.crawl_cursors.get(hostname).copied().unwrap_or(0)
    }

    /// Number of PDS outbox events produced but not yet crawled. Producers
    /// that want to bound their in-flight batch size check this between
    /// simulation steps and crawl once a chunk's worth is pending.
    pub fn pending_events(&self, fleet: &PdsFleet) -> usize {
        self.pending_events_for(fleet, |_| true)
    }

    /// Pending-event count restricted to the PDSes whose hostname passes
    /// `accept` — the per-region slice of [`Relay::pending_events`].
    pub(crate) fn pending_events_for(
        &self,
        fleet: &PdsFleet,
        accept: impl Fn(&str) -> bool,
    ) -> usize {
        fleet
            .servers()
            .filter(|server| accept(server.hostname()))
            .map(|server| {
                let cursor = self.crawl_cursor(server.hostname());
                server.events_since(cursor).0.len()
            })
            .sum()
    }

    /// Subscribe to the firehose from a cursor.
    pub fn subscribe(&self, cursor: Seq) -> Subscription {
        self.firehose.read_from(cursor)
    }

    /// Relay-level statistics.
    pub fn stats(&self) -> &RelayStats {
        &self.stats
    }

    /// Mutable statistics handle for the federation forwarder, which
    /// accounts forwarded and deduplicated frames on the receiving relay.
    pub(crate) fn stats_mut(&mut self) -> &mut RelayStats {
        &mut self.stats
    }

    /// `sync.listRepos` served from the relay's own view of the network:
    /// pages of `(did, latest rev)` in DID order.
    pub fn list_repos(
        &self,
        cursor: Option<&str>,
        limit: usize,
    ) -> (Vec<(Did, Option<Tid>)>, Option<String>) {
        let limit = limit.max(1);
        let iter: Box<dyn Iterator<Item = (&Did, &Option<Tid>)>> = match cursor {
            Some(c) => Box::new(
                self.known_dids
                    .range::<str, _>((Bound::Excluded(c), Bound::Unbounded)),
            ),
            None => Box::new(self.known_dids.iter()),
        };
        let page: Vec<(Did, Option<Tid>)> = iter
            .take(limit)
            .map(|(did, rev)| (did.clone(), *rev))
            .collect();
        let next = if page.len() == limit {
            page.last().map(|(did, _)| did.to_string())
        } else {
            None
        };
        (page, next)
    }

    /// Number of accounts the relay currently knows about.
    pub fn known_account_count(&self) -> usize {
        self.known_dids.len()
    }

    /// Whether `sync.listRepos` lists `did`: the relay has crawled an event
    /// of the account and no `#tombstone` of it since.
    pub fn lists_repo(&self, did: &Did) -> bool {
        self.known_dids.contains_key(did)
    }

    /// `sync.getRepo`, proxied to the PDS hosting the DID: the relay hands
    /// over the server's CAR byte for byte and keeps no copy, because
    /// nothing reads one back. This is the endpoint the study downloaded
    /// every repository through, as the recommended way for researchers
    /// because it "reduces load elsewhere in the network" (§3). (`_now` is
    /// unused; the signature is part of the benchmark's pinned surface.)
    pub fn get_repo(&self, did: &Did, fleet: &mut PdsFleet, _now: Datetime) -> Result<Vec<u8>> {
        host_of(did, fleet)?.get_repo(did)
    }

    /// `sync.getRepo` with `since`, for downstream incremental mirrors: the
    /// delta is fetched from the hosting PDS and handed through. Errors —
    /// unknown DID or unknown revision — mean the consumer must fall back
    /// to a full fetch.
    pub fn get_repo_since(
        &self,
        did: &Did,
        since: &Tid,
        scope: DeltaScope,
        fleet: &mut PdsFleet,
    ) -> Result<Vec<u8>> {
        host_of(did, fleet)?.get_repo_since(did, since, scope)
    }
}

/// The PDS hosting `did`, or the error a `sync` proxy returns for it.
fn host_of<'f>(did: &Did, fleet: &'f mut PdsFleet) -> Result<&'f mut Pds> {
    fleet
        .pds_for_mut(did)
        .ok_or_else(|| AtError::RepoError(format!("{did} is not hosted on any known PDS")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::firehose::EventKind;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{PostRecord, Record};
    use bsky_atproto::repo::{DeltaScope, Repository};
    use bsky_atproto::{Handle, Nsid};
    use bsky_pds::{Pds, PdsOperator};

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 1)
            .unwrap()
            .plus_seconds(12 * 3600)
    }

    fn post(text: &str) -> Record {
        Record::Post(PostRecord::simple(text, "en", now()))
    }

    fn fleet_with_users(n: usize) -> (PdsFleet, Vec<Did>) {
        let mut fleet = PdsFleet::with_default_servers_store(2, &StoreConfig::default());
        fleet.add_server(Pds::with_store(
            "self.example",
            PdsOperator::SelfHosted,
            StoreConfig::default(),
        ));
        let hosts = [
            "pds001.host.bsky.network",
            "pds002.host.bsky.network",
            "self.example",
        ];
        let mut dids = Vec::new();
        for i in 0..n {
            let did = Did::plc_from_seed(format!("user{i}").as_bytes());
            let host = hosts[i % hosts.len()];
            fleet
                .create_account_on(
                    host,
                    did.clone(),
                    Handle::parse(&format!("user{i}.bsky.social")).unwrap(),
                    now(),
                )
                .unwrap();
            dids.push(did);
        }
        (fleet, dids)
    }

    #[test]
    fn crawl_converts_pds_events_into_firehose_frames() {
        let (mut fleet, dids) = fleet_with_users(6);
        for did in &dids {
            fleet
                .pds_for_mut(did)
                .unwrap()
                .create_record(did, Nsid::parse(known::POST).unwrap(), post("hi"), now())
                .unwrap();
        }
        fleet
            .pds_for_mut(&dids[0])
            .unwrap()
            .change_handle(&dids[0], Handle::parse("user0.example.com").unwrap(), now())
            .unwrap();
        fleet
            .pds_for_mut(&dids[1])
            .unwrap()
            .delete_account(&dids[1], now())
            .unwrap();

        let mut relay = Relay::default();
        let ingested = relay.crawl(&fleet, now());
        // 6 identity (account creation) + 6 commits + 1 handle + 1 tombstone
        assert_eq!(ingested, 14);
        let totals = relay.firehose().totals_by_kind();
        assert_eq!(totals.get(&EventKind::Commit).copied(), Some(6));
        assert_eq!(totals.get(&EventKind::Identity).copied(), Some(6));
        assert_eq!(totals.get(&EventKind::HandleChange).copied(), Some(1));
        assert_eq!(totals.get(&EventKind::Tombstone).copied(), Some(1));
        // A second crawl with no new activity ingests nothing.
        assert_eq!(relay.crawl(&fleet, now()), 0);
        // Deleted accounts disappear from the relay's account list.
        assert_eq!(relay.known_account_count(), 5);
    }

    #[test]
    fn crawled_events_are_let_go_and_a_lagging_relay_says_so() {
        let (mut fleet, dids) = fleet_with_users(6);
        let write = |fleet: &mut PdsFleet, did: &Did, text: &str| {
            let pds = fleet.pds_for_mut(did).unwrap();
            pds.create_record(did, Nsid::parse(known::POST).unwrap(), post(text), now())
                .unwrap();
        };
        // (events held, events let go), summed over the fleet: each
        // outbox's held slice ends at the next absolute position.
        let outboxes = |fleet: &PdsFleet| {
            let mut sums = (0, 0);
            for (held, next) in fleet.servers().map(|pds| pds.events_since(0)) {
                sums = (sums.0 + held.len(), sums.1 + next - held.len());
            }
            sums
        };
        let origins = |relay: &Relay, from: Seq| -> Vec<EventOrigin> {
            let events = relay.subscribe(from).events;
            let origin = |e: &bsky_atproto::firehose::Event| relay.event_origin(e.seq).cloned();
            events.iter().map(|e| origin(e).unwrap()).collect()
        };
        for did in &dids {
            write(&mut fleet, did, "before the crawl");
        }
        let mut relay = Relay::default();
        assert_eq!(relay.crawl(&fleet, now()), 12);
        // Produced after the crawl: the only events a trim may keep.
        write(&mut fleet, &dids[0], "after the crawl");
        write(&mut fleet, &dids[3], "after the crawl");
        let crawled = relay.crawl_cursors(&fleet);
        fleet.trim_outboxes(&crawled);
        assert_eq!(outboxes(&fleet), (2, 12));
        assert_eq!(relay.pending_events(&fleet), 2);
        // Trimming again, or to an older position, lets nothing more go.
        fleet.trim_outboxes(&crawled);
        fleet.trim_outboxes(&vec![0; crawled.len()]);
        assert_eq!(outboxes(&fleet), (2, 12));

        // Positions stay absolute: the next crawl continues each outbox's
        // sequence where the last one ended, over the trimmed outbox.
        let before = relay.subscribe(0).cursor;
        assert_eq!(relay.crawl(&fleet, now()), 2);
        let host = fleet.locate(&dids[0]).unwrap().to_string();
        let continued = origins(&relay, before);
        assert_eq!(continued.len(), 2);
        for origin in &continued {
            // dids 0 and 3 share the first host: 2 accounts × (identity +
            // commit) crawled before, so its outbox continues at 4.
            assert_eq!(origin.host, host);
        }
        assert_eq!(continued[0].outbox_seq + 1, continued[1].outbox_seq);
        assert_eq!(continued[0].outbox_seq, 4);
        assert_eq!(relay.stats().outbox_positions_skipped(), 0);

        // A second relay starting from 0 after the trim gets what is still
        // held, at its true positions, and counts every position it missed.
        write(&mut fleet, &dids[1], "held for the latecomer");
        let mut late = Relay::default();
        assert_eq!(late.crawl(&fleet, now()), 3);
        assert_eq!(late.stats().outbox_positions_skipped(), 12);
        let mut seen = origins(&late, 0);
        seen.sort();
        let mut expected = continued;
        expected.push(EventOrigin {
            host: fleet.locate(&dids[1]).unwrap().to_string(),
            outbox_seq: 4,
        });
        expected.sort();
        assert_eq!(seen, expected);
        // Caught up, it skips nothing more.
        assert_eq!(late.crawl(&fleet, now()), 0);
        assert_eq!(late.stats().outbox_positions_skipped(), 12);
    }

    #[test]
    fn subscription_sees_crawled_events_in_order() {
        let (mut fleet, dids) = fleet_with_users(3);
        let mut relay = Relay::default();
        relay.crawl(&fleet, now());
        let sub = relay.subscribe(0);
        let first_batch = sub.events.len();
        assert!(first_batch >= 3);
        assert!(sub.events.windows(2).all(|w| w[0].seq < w[1].seq));

        fleet
            .pds_for_mut(&dids[0])
            .unwrap()
            .create_record(
                &dids[0],
                Nsid::parse(known::POST).unwrap(),
                post("new"),
                now(),
            )
            .unwrap();
        relay.crawl(&fleet, now());
        let more = relay.subscribe(sub.cursor);
        assert_eq!(more.events.len(), 1);
        assert_eq!(more.events[0].kind(), EventKind::Commit);
    }

    #[test]
    fn list_repos_pagination_over_all_pdses() {
        let (mut fleet, dids) = fleet_with_users(13);
        for did in &dids {
            fleet
                .pds_for_mut(did)
                .unwrap()
                .create_record(did, Nsid::parse(known::POST).unwrap(), post("x"), now())
                .unwrap();
        }
        let mut relay = Relay::default();
        relay.crawl(&fleet, now());
        let mut seen = 0;
        let mut cursor: Option<String> = None;
        loop {
            let (page, next) = relay.list_repos(cursor.as_deref(), 5);
            seen += page.len();
            assert!(page.iter().all(|(_, rev)| rev.is_some()));
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(seen, 13);
    }

    #[test]
    fn get_repo_serves_the_hosting_pds_bytes() {
        let (mut fleet, dids) = fleet_with_users(3);
        for did in &dids {
            fleet
                .pds_for_mut(did)
                .unwrap()
                .create_record(did, Nsid::parse(known::POST).unwrap(), post("v1"), now())
                .unwrap();
        }
        let mut relay = Relay::default();
        relay.crawl(&fleet, now());
        let from_pds =
            |fleet: &mut PdsFleet, did: &Did| fleet.pds_for_mut(did).unwrap().get_repo(did);

        // A live DID: exactly the hosting server's CAR, again after it
        // advances.
        let did = &dids[0];
        let car = relay.get_repo(did, &mut fleet, now()).unwrap();
        assert_eq!(car, from_pds(&mut fleet, did).unwrap());
        fleet
            .pds_for_mut(did)
            .unwrap()
            .create_record(did, Nsid::parse(known::POST).unwrap(), post("v2"), now())
            .unwrap();
        relay.crawl(&fleet, now());
        let advanced = relay.get_repo(did, &mut fleet, now()).unwrap();
        assert_ne!(advanced, car);
        assert_eq!(advanced, from_pds(&mut fleet, did).unwrap());

        // A migrated DID: the new host's CAR.
        let moved = &dids[1];
        let origin = fleet.locate(moved).unwrap().to_string();
        let destination = fleet
            .servers()
            .map(|pds| pds.hostname().to_string())
            .find(|host| *host != origin)
            .unwrap();
        let handle = Handle::parse("user1.bsky.social").unwrap();
        fleet
            .migrate_account(moved, &destination, handle, now())
            .unwrap();
        relay.crawl(&fleet, now());
        assert_eq!(fleet.locate(moved), Some(destination.as_str()));
        let migrated = relay.get_repo(moved, &mut fleet, now()).unwrap();
        assert_eq!(migrated, from_pds(&mut fleet, moved).unwrap());
        assert!(relay.lists_repo(moved));

        // An unknown DID and a tombstoned one are errors.
        let nobody = Did::plc_from_seed(b"nobody");
        assert!(relay.get_repo(&nobody, &mut fleet, now()).is_err());
        let gone = &dids[2];
        fleet
            .pds_for_mut(gone)
            .unwrap()
            .delete_account(gone, now())
            .unwrap();
        assert!(
            relay.lists_repo(gone),
            "listed until the tombstone is crawled"
        );
        relay.crawl(&fleet, now());
        assert!(!relay.lists_repo(gone));
        assert!(relay.get_repo(gone, &mut fleet, now()).is_err());
    }

    #[test]
    fn get_repo_since_serves_downstream_mirrors() {
        let (mut fleet, dids) = fleet_with_users(1);
        let did = dids[0].clone();
        for i in 0..20 {
            fleet
                .pds_for_mut(&did)
                .unwrap()
                .create_record(
                    &did,
                    Nsid::parse(known::POST).unwrap(),
                    post(&format!("v1 {i}")),
                    now(),
                )
                .unwrap();
        }
        let mut relay = Relay::default();
        relay.crawl(&fleet, now());
        let base = relay.get_repo(&did, &mut fleet, now()).unwrap();
        let since = relay.list_repos(None, 10).0[0].1.unwrap();

        fleet
            .pds_for_mut(&did)
            .unwrap()
            .create_record(&did, Nsid::parse(known::POST).unwrap(), post("v2"), now())
            .unwrap();
        relay.crawl(&fleet, now());
        let delta = relay
            .get_repo_since(&did, &since, DeltaScope::Full, &mut fleet)
            .unwrap();
        assert!(delta.len() < base.len());
        // The delta carries the new record, and on the base it rebuilds
        // what a full fetch now serves.
        let (_, blocks) = Repository::parse_car(&delta).unwrap();
        let records: Vec<Record> = blocks
            .values()
            .filter_map(|b| Record::from_cbor(b).ok())
            .collect();
        assert_eq!(records, vec![post("v2")]);
        let merged = Repository::apply_delta(&base, &delta).unwrap();
        let full = relay.get_repo(&did, &mut fleet, now()).unwrap();
        let record_set = |car: &[u8]| {
            let (roots, blocks) = Repository::parse_car(car).unwrap();
            let mut records: Vec<Record> = blocks
                .values()
                .filter_map(|b| Record::from_cbor(b).ok())
                .collect();
            records.sort_by_key(|r| r.to_cbor());
            (roots, records)
        };
        assert_eq!(record_set(&merged), record_set(&full));

        // Unknown revisions and unknown DIDs propagate as errors
        // (full-fetch fallback).
        let unknown_rev = Tid::from_micros(3, 3);
        assert!(relay
            .get_repo_since(&did, &unknown_rev, DeltaScope::Full, &mut fleet)
            .is_err());
        let nobody = Did::plc_from_seed(b"nobody");
        assert!(relay
            .get_repo_since(&nobody, &since, DeltaScope::Full, &mut fleet)
            .is_err());
    }

    #[test]
    fn commit_timestamps_never_exceed_crawl_time() {
        let (mut fleet, dids) = fleet_with_users(1);
        let future = now().plus_days(10);
        fleet
            .pds_for_mut(&dids[0])
            .unwrap()
            .create_record(
                &dids[0],
                Nsid::parse(known::POST).unwrap(),
                post("future"),
                future,
            )
            .unwrap();
        let mut relay = Relay::default();
        relay.crawl(&fleet, now());
        for event in relay.firehose().iter() {
            assert!(event.time.timestamp() <= now().timestamp());
        }
    }
}
