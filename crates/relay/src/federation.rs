//! Hierarchical relay federation (ROADMAP: million-DID scale-out).
//!
//! The real AT Protocol network is not a single relay mirroring every PDS:
//! operators run *intermediate* relays close to PDS clusters, and downstream
//! consumers (including Bluesky's own infrastructure) subscribe to an
//! aggregated super-relay. This module reproduces that topology:
//!
//! ```text
//!   PDS fleet (hostname-sorted)
//!     ├── slice 0 ──► regional relay 0 ─┐
//!     ├── slice 1 ──► regional relay 1 ─┼──► super-relay (hub) ──► firehose
//!     └── slice N ──► regional relay N ─┘      consumers (AppView, study
//!                                              collector, observatory taps)
//! ```
//!
//! * **Partitioning** — region `r` of `n` crawls the contiguous slice
//!   `[r·len/n, (r+1)·len/n)` of the hostname-sorted PDS list. Because a
//!   single whole-fleet relay crawls hosts in exactly that sorted order,
//!   forwarding region 0's frames first, then region 1's, … reproduces the
//!   single-relay event interleaving *byte for byte*: same bodies, same
//!   receive times, same dense hub sequence numbers, same wire sizes.
//! * **Cursor-resumable forwarding** — the federation keeps one firehose
//!   cursor per region and forwards only frames past it, so a forwarding
//!   pass is idempotent and resumable like any other firehose subscription.
//! * **Cross-relay dedup** — commits are deduplicated by `(did, rev)` (a
//!   repo revision is a monotonically increasing TID, so the same pair can
//!   only ever denote the same commit); identity/handle/tombstone frames
//!   carry no revision and are deduplicated by their PDS outbox provenance
//!   `(host, outbox_seq)` recorded at crawl time. A frame that reaches the
//!   hub via two regions is listed and emitted exactly once, and every
//!   drop is counted on the hub's [`RelayStats`](crate::stats::RelayStats).
//!
//! No tier stores repository blocks — `sync.getRepo` is proxied to the
//! hosting PDS — so what the federation keeps is the regional firehose
//! windows, the dedup index and the forwarding cursors.

use crate::firehose::RETENTION_SECONDS;
use crate::relay::{EventOrigin, Relay};
use bsky_atproto::blockstore::StoreConfig;
use bsky_atproto::firehose::{Event, EventBody, Seq};
use bsky_atproto::{Datetime, Did, Tid};
use bsky_pds::PdsFleet;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Identity of a frame for cross-relay deduplication.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum DedupKey {
    /// Commits: `(did, rev)`. Revisions are per-repo monotonic TIDs, so
    /// equal pairs always denote the same commit regardless of route.
    Commit { did: Did, rev: Tid },
    /// Revision-less frames: the PDS outbox slot that produced them.
    Origin { host: String, outbox_seq: u64 },
}

/// Time-windowed set of already-forwarded frame identities. Entries expire
/// with the firehose retention window: a frame old enough to have fallen
/// out of every regional log can no longer be re-forwarded, so its key need
/// not be remembered.
#[derive(Debug, Clone, Default)]
struct DedupIndex {
    seen: BTreeMap<DedupKey, i64>,
}

impl DedupIndex {
    /// The dedup identity of `event`, if it has one. Commits always do;
    /// other frames need recorded provenance.
    fn key_for(event: &Event, origin: Option<&EventOrigin>) -> Option<DedupKey> {
        match &event.body {
            EventBody::Commit { did, rev, .. } => Some(DedupKey::Commit {
                did: did.clone(),
                rev: *rev,
            }),
            _ => origin.map(|o| DedupKey::Origin {
                host: o.host.clone(),
                outbox_seq: o.outbox_seq,
            }),
        }
    }

    /// Admit a key, returning `false` when it was already present (a
    /// duplicate delivery).
    fn admit(&mut self, key: DedupKey, time: i64) -> bool {
        match self.seen.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(time);
                true
            }
        }
    }

    /// Expire entries older than the firehose retention window.
    fn prune(&mut self, now: Datetime) {
        let cutoff = now.timestamp() - RETENTION_SECONDS;
        self.seen.retain(|_, t| *t >= cutoff);
    }
}

/// The regional tier of a relay hierarchy: N regional relays, each crawling
/// a contiguous slice of the hostname-sorted PDS fleet, forwarding their
/// firehoses into a super-relay ("hub") with cross-relay dedup. See the
/// [module docs](self) for the topology and the byte-identity argument.
#[derive(Debug)]
pub struct RelayFederation {
    regions: Vec<Relay>,
    /// Per-region forwarding cursor into that region's firehose.
    cursors: Vec<Seq>,
    dedup: DedupIndex,
}

impl RelayFederation {
    /// Create `regions` regional relays. (`_store` is unused, since no
    /// relay stores blocks; the signature is part of the benchmark's pinned
    /// surface.)
    pub fn new(regions: usize, _store: &StoreConfig) -> RelayFederation {
        let regions = regions.max(1);
        RelayFederation {
            regions: (0..regions).map(|_| Relay::default()).collect(),
            cursors: vec![0; regions],
            dedup: DedupIndex::default(),
        }
    }

    fn partition(fleet: &PdsFleet, regions: usize) -> Vec<Vec<String>> {
        let hostnames: Vec<String> = fleet.servers().map(|p| p.hostname().to_string()).collect();
        let len = hostnames.len();
        (0..regions)
            .map(|r| hostnames[r * len / regions..(r + 1) * len / regions].to_vec())
            .collect()
    }

    /// One federation step: every region crawls its PDS slice, then all new
    /// regional frames are forwarded into `hub` (region 0 first — exactly
    /// the order a single whole-fleet relay would have interleaved them),
    /// deduplicated across regions. Prunes every tier's retention window
    /// afterwards. Returns the number of frames the hub accepted.
    pub fn crawl_and_forward(&mut self, hub: &mut Relay, fleet: &PdsFleet, now: Datetime) -> usize {
        let parts = Self::partition(fleet, self.regions.len());
        for (region, hosts) in self.regions.iter_mut().zip(&parts) {
            region.crawl_hosts(fleet, now, |h| hosts.iter().any(|x| x == h));
        }
        let forwarded = self.forward_into(hub, now);
        for region in &mut self.regions {
            region.prune_firehose(now);
        }
        hub.prune_firehose(now);
        forwarded
    }

    /// Forward every regional frame past its forwarding cursor into `hub`,
    /// deduplicating across regions. Exposed separately from
    /// [`RelayFederation::crawl_and_forward`] so tests can inject crafted
    /// regional streams; production stepping uses `crawl_and_forward`.
    pub(crate) fn forward_into(&mut self, hub: &mut Relay, now: Datetime) -> usize {
        let mut forwarded = 0usize;
        for r in 0..self.regions.len() {
            let sub = self.regions[r].subscribe(self.cursors[r]);
            self.cursors[r] = sub.cursor;
            for event in sub.events {
                // Info frames are subscription artifacts (e.g. an
                // OutdatedCursor notice), not network activity.
                if matches!(event.body, EventBody::Info { .. }) {
                    continue;
                }
                let origin = self.regions[r].event_origin(event.seq).cloned();
                if let Some(key) = DedupIndex::key_for(&event, origin.as_ref()) {
                    if self.dedup.admit(key, event.time.timestamp()) {
                        hub.stats_mut().record_dedup_tracked();
                    } else {
                        hub.stats_mut().record_duplicate_dropped();
                        continue;
                    }
                }
                hub.ingest_event(event.time, event.body, origin);
                hub.stats_mut().record_forwarded();
                forwarded += 1;
            }
        }
        self.dedup.prune(now);
        forwarded
    }

    /// For every server of the fleet, in [`PdsFleet::servers`] order, the
    /// crawl cursor of the region that owns it — the federated equivalent of
    /// [`Relay::crawl_cursors`]. The slices, concatenated, are the sorted
    /// host list.
    pub fn crawl_cursors(&self, fleet: &PdsFleet) -> Vec<usize> {
        let parts = Self::partition(fleet, self.regions.len());
        let owned = self.regions.iter().zip(&parts);
        owned
            .flat_map(|(region, hosts)| hosts.iter().map(|host| region.crawl_cursor(host)))
            .collect()
    }

    /// Pending PDS outbox events across every region's slice — the
    /// federated equivalent of [`Relay::pending_events`].
    pub fn pending_events(&self, fleet: &PdsFleet) -> usize {
        let parts = Self::partition(fleet, self.regions.len());
        self.regions
            .iter()
            .zip(&parts)
            .map(|(region, hosts)| {
                region.pending_events_for(fleet, |h| hosts.iter().any(|x| x == h))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{PostRecord, Record};
    use bsky_atproto::{Did, Handle, Nsid};
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
        let mut fleet = PdsFleet::with_default_servers_store(4, &StoreConfig::default());
        fleet.add_server(Pds::with_store(
            "self.example",
            PdsOperator::SelfHosted,
            StoreConfig::default(),
        ));
        let hosts: Vec<String> = fleet.servers().map(|p| p.hostname().to_string()).collect();
        let mut dids = Vec::new();
        for i in 0..n {
            let did = Did::plc_from_seed(format!("user{i}").as_bytes());
            let host = hosts[i % hosts.len()].clone();
            fleet
                .create_account_on(
                    &host,
                    did.clone(),
                    Handle::parse(&format!("user{i}.bsky.social")).unwrap(),
                    now(),
                )
                .unwrap();
            dids.push(did);
        }
        (fleet, dids)
    }

    fn seed_activity(fleet: &mut PdsFleet, dids: &[Did]) {
        for (i, did) in dids.iter().enumerate() {
            fleet
                .pds_for_mut(did)
                .unwrap()
                .create_record(
                    did,
                    Nsid::parse(known::POST).unwrap(),
                    post(&format!("post {i}")),
                    now(),
                )
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
    }

    fn stream_of(relay: &Relay) -> Vec<Event> {
        relay.subscribe(0).events
    }

    #[test]
    fn federated_stream_is_identical_to_single_relay() {
        let (mut fleet, dids) = fleet_with_users(10);
        seed_activity(&mut fleet, &dids);

        for regions in [1usize, 2, 3] {
            // Fresh single relay and fresh federation crawl with the same
            // schedule: byte identity is a property of equal crawl
            // schedules, not of the federation alone.
            let mut single = Relay::default();
            single.crawl(&fleet, now());
            let mut fed = RelayFederation::new(regions, &StoreConfig::default());
            let mut hub = Relay::default();
            let forwarded = fed.crawl_and_forward(&mut hub, &fleet, now());
            assert_eq!(forwarded, stream_of(&single).len(), "regions={regions}");
            assert_eq!(stream_of(&hub), stream_of(&single), "regions={regions}");
            assert_eq!(
                hub.known_account_count(),
                single.known_account_count(),
                "regions={regions}"
            );
            assert_eq!(hub.stats().duplicates_dropped(), 0);
            assert_eq!(hub.stats().events_forwarded(), hub.stats().dedup_tracked());

            // Incremental forwarding resumes from per-region cursors: the
            // next cycle forwards only new activity, and the hub keeps
            // tracking the single relay event for event.
            let extra = Did::plc_from_seed(format!("late-poster-{regions}").as_bytes());
            let host = fleet.servers().next().unwrap().hostname().to_string();
            fleet
                .create_account_on(
                    &host,
                    extra.clone(),
                    Handle::parse(&format!("late{regions}.bsky.social")).unwrap(),
                    now(),
                )
                .unwrap();
            single.crawl(&fleet, now());
            let delta = fed.crawl_and_forward(&mut hub, &fleet, now());
            assert_eq!(delta, 1, "regions={regions}: one identity frame");
            assert_eq!(stream_of(&hub), stream_of(&single), "regions={regions}");
        }
    }

    #[test]
    fn region_slices_are_contiguous_and_cover_the_fleet() {
        let (fleet, _) = fleet_with_users(4);
        let fed = RelayFederation::new(2, &StoreConfig::default());
        let slices = RelayFederation::partition(&fleet, 2);
        let all: Vec<String> = slices.iter().flatten().cloned().collect();
        let sorted: Vec<String> = fleet.servers().map(|p| p.hostname().to_string()).collect();
        assert_eq!(all, sorted, "slices must tile the sorted hostname list");
        assert_eq!(fed.pending_events(&fleet), {
            let relay = Relay::default();
            relay.pending_events(&fleet)
        });
    }

    #[test]
    fn trimming_to_the_region_cursors_skips_nothing() {
        // The world trims every outbox to the crawl cursor of the region
        // that owns its server: no region is served past events it has not
        // seen. Trimming past the cursors instead is counted, region by
        // region.
        let skipped = |fed: &RelayFederation| -> Vec<u64> {
            let regions = fed.regions.iter();
            regions
                .map(|r| r.stats().outbox_positions_skipped())
                .collect()
        };
        let (mut fleet, dids) = fleet_with_users(10);
        let mut fed = RelayFederation::new(3, &StoreConfig::default());
        let mut hub = Relay::default();
        let mut forwarded = fed.crawl_and_forward(&mut hub, &fleet, now());
        fleet.trim_outboxes(&fed.crawl_cursors(&fleet));
        seed_activity(&mut fleet, &dids);
        forwarded += fed.crawl_and_forward(&mut hub, &fleet, now());
        fleet.trim_outboxes(&fed.crawl_cursors(&fleet));
        let produced: usize = fleet.servers().map(|pds| pds.events_since(0).1).sum();
        assert_eq!(forwarded, produced);
        assert_eq!(skipped(&fed), [0, 0, 0]);

        // Ahead of every crawl, the fleet lets go of each outbox.
        seed_activity(&mut fleet, &dids[2..]);
        let held: Vec<usize> = fleet
            .servers()
            .map(|pds| pds.events_since(0).0.len())
            .collect();
        fleet.trim_outboxes(&vec![usize::MAX; held.len()]);
        assert_eq!(fed.crawl_and_forward(&mut hub, &fleet, now()), 0);
        let lost = skipped(&fed).iter().sum::<u64>();
        assert_eq!(lost as usize, held.iter().sum::<usize>());
        assert!(skipped(&fed).iter().all(|&n| n > 0), "{:?}", skipped(&fed));
    }

    #[test]
    fn cross_region_duplicates_are_dropped_exactly_once_each() {
        let (mut fleet, dids) = fleet_with_users(8);
        seed_activity(&mut fleet, &dids);

        let mut single = Relay::default();
        single.crawl(&fleet, now());
        let clean = stream_of(&single);

        // Both regions crawl the *whole* fleet: every frame reaches the hub
        // twice, once per region.
        let mut fed = RelayFederation::new(2, &StoreConfig::default());
        fed.regions[0].crawl(&fleet, now());
        fed.regions[1].crawl(&fleet, now());
        let mut hub = Relay::default();
        let forwarded = fed.forward_into(&mut hub, now());

        assert_eq!(forwarded, clean.len());
        assert_eq!(stream_of(&hub), clean);
        assert_eq!(hub.stats().duplicates_dropped(), clean.len() as u64);
        assert_eq!(hub.stats().dedup_tracked(), clean.len() as u64);
        assert_eq!(fed.dedup.seen.len(), clean.len());
    }

    /// Satellite: property test for `(did, rev)` dedup. Region 0 carries
    /// the clean stream; region 1 re-delivers the same frames *reordered*
    /// (seeded shuffle) and with every third frame duplicated a second
    /// time. The hub must emit exactly the clean single-relay sequence,
    /// list the same repositories, and count every injected duplicate.
    #[test]
    fn dedup_is_order_insensitive_and_counts_every_duplicate() {
        for seed in [7u64, 1234, 987_654] {
            let (mut fleet, dids) = fleet_with_users(9);
            seed_activity(&mut fleet, &dids);

            let mut single = Relay::default();
            single.crawl(&fleet, now());
            let clean = stream_of(&single);

            let mut fed = RelayFederation::new(2, &StoreConfig::default());
            fed.regions[0].crawl(&fleet, now());
            // Region 1's stream: clean frames with origins, shuffled by a
            // seeded LCG, every third frame delivered twice.
            let mut replay: Vec<(Event, Option<EventOrigin>)> = clean
                .iter()
                .enumerate()
                .flat_map(|(i, e)| {
                    let origin = fed.regions[0].event_origin(e.seq).cloned();
                    let copies = if i % 3 == 0 { 2 } else { 1 };
                    std::iter::repeat_n((e.clone(), origin), copies)
                })
                .collect();
            let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            for i in (1..replay.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                replay.swap(i, (state >> 33) as usize % (i + 1));
            }
            let injected = replay.len();
            for (event, origin) in replay {
                fed.regions[1].ingest_event(event.time, event.body, origin);
            }

            let mut hub = Relay::default();
            let forwarded = fed.forward_into(&mut hub, now());

            assert_eq!(forwarded, clean.len(), "seed={seed}");
            assert_eq!(stream_of(&hub), clean, "seed={seed}");
            assert_eq!(
                hub.stats().duplicates_dropped(),
                injected as u64,
                "seed={seed}: every region-1 frame is a duplicate"
            );
            // The super-relay serves what the single relay serves, repo by
            // repo.
            let (hub_repos, _) = hub.list_repos(None, 1000);
            let (single_repos, _) = single.list_repos(None, 1000);
            assert_eq!(hub_repos, single_repos, "seed={seed}");
            for (did, _) in &hub_repos {
                assert_eq!(
                    hub.get_repo(did, &mut fleet, now()).unwrap(),
                    single.get_repo(did, &mut fleet, now()).unwrap(),
                    "seed={seed}"
                );
            }
        }
    }

    #[test]
    fn dedup_index_expires_with_the_retention_window() {
        let mut index = DedupIndex::default();
        let t0 = now();
        assert!(index.admit(
            DedupKey::Origin {
                host: "a".into(),
                outbox_seq: 0
            },
            t0.timestamp()
        ));
        assert!(!index.admit(
            DedupKey::Origin {
                host: "a".into(),
                outbox_seq: 0
            },
            t0.timestamp()
        ));
        index.prune(t0.plus_days(4));
        assert!(index.seen.is_empty());
        assert!(index.admit(
            DedupKey::Origin {
                host: "a".into(),
                outbox_seq: 0
            },
            t0.plus_days(4).timestamp()
        ));
    }
}
