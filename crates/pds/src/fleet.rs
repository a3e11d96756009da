//! The PDS fleet.
//!
//! Bluesky PBC operates the default PDSes (the `*.host.bsky.network`
//! "mushroom" servers users are sharded onto at signup); since federation
//! opened, anyone can run a self-hosted PDS and users can migrate onto it
//! while keeping their social graph (§2). The fleet tracks which PDS hosts
//! which account — the piece of state a Relay crawler walks.
//!
//! Every server joins before the first account does, so a server's place in
//! the hostname-sorted list never moves and the routing table keeps that
//! place, not a copy of the hostname.

use crate::server::{Pds, PdsOperator};
use bsky_atproto::blockstore::{StoreConfig, StoreStats};
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::repo::CompactionStats;
use bsky_atproto::{Datetime, Did, Handle, Tid};
use std::collections::BTreeMap;

/// A collection of PDS instances plus the DID → PDS routing table.
#[derive(Debug, Default)]
pub struct PdsFleet {
    /// Every server, in hostname order.
    servers: Vec<Pds>,
    /// The DID of every account, mapped to the index in `servers` of the
    /// server hosting it.
    routing: BTreeMap<Did, usize>,
}

impl PdsFleet {
    /// Create an empty fleet.
    pub fn new() -> PdsFleet {
        PdsFleet::default()
    }

    /// Create a fleet with `n` default Bluesky-operated PDSes whose
    /// repositories use an explicit block-store backend.
    pub fn with_default_servers_store(n: usize, store: &StoreConfig) -> PdsFleet {
        let mut fleet = PdsFleet::new();
        for i in 0..n.max(1) {
            fleet.add_server(Pds::with_store(
                format!("pds{:03}.host.bsky.network", i + 1),
                PdsOperator::BlueskyPbc,
                store.clone(),
            ));
        }
        fleet
    }

    /// Add a server (default or self-hosted), replacing one of the same
    /// hostname. Servers join before the first account.
    pub fn add_server(&mut self, pds: Pds) {
        assert!(
            self.routing.is_empty(),
            "every server joins the fleet before the first account"
        );
        match self.position(pds.hostname()) {
            Ok(at) => self.servers[at] = pds,
            Err(at) => self.servers.insert(at, pds),
        }
    }

    /// Where `hostname` is, or would be, in the hostname-sorted list.
    fn position(&self, hostname: &str) -> std::result::Result<usize, usize> {
        self.servers
            .binary_search_by(|server| server.hostname().cmp(hostname))
    }

    /// The index of the server named `hostname`, or the error for it.
    fn index(&self, hostname: &str) -> Result<usize> {
        self.position(hostname)
            .map_err(|_| AtError::RepoError(format!("no PDS named {hostname}")))
    }

    /// Iterate servers (hostname order).
    pub fn servers(&self) -> impl Iterator<Item = &Pds> {
        self.servers.iter()
    }

    /// Access a server by hostname.
    pub fn server(&self, hostname: &str) -> Option<&Pds> {
        let at = self.position(hostname).ok()?;
        Some(&self.servers[at])
    }

    /// Hostnames of Bluesky-operated default servers.
    pub fn default_hostnames(&self) -> Vec<String> {
        self.defaults().map(|p| p.hostname().to_string()).collect()
    }

    /// The Bluesky-operated default servers, in hostname order.
    fn defaults(&self) -> impl Iterator<Item = &Pds> {
        self.servers
            .iter()
            .filter(|p| p.operator() == PdsOperator::BlueskyPbc)
    }

    /// The hostname of the `n`-th Bluesky-operated default server, counting
    /// round them (`n` modulo their number); `None` when there are none.
    pub fn default_hostname(&self, n: usize) -> Option<&str> {
        let nth = n.checked_rem(self.defaults().count())?;
        self.defaults().nth(nth).map(Pds::hostname)
    }

    /// The hostname of the PDS hosting a DID.
    pub fn locate(&self, did: &Did) -> Option<&str> {
        self.pds_for(did).map(Pds::hostname)
    }

    /// The PDS hosting a DID.
    pub fn pds_for(&self, did: &Did) -> Option<&Pds> {
        let at = *self.routing.get(did)?;
        Some(&self.servers[at])
    }

    /// Mutable access to the PDS hosting a DID.
    pub fn pds_for_mut(&mut self, did: &Did) -> Option<&mut Pds> {
        let at = *self.routing.get(did)?;
        Some(&mut self.servers[at])
    }

    /// Create an account on a specific server. (`_handle` is unused: a PDS
    /// keeps no handle, and the signature is part of the benchmark's pinned
    /// surface.)
    pub fn create_account_on(
        &mut self,
        hostname: &str,
        did: Did,
        _handle: Handle,
        at: Datetime,
    ) -> Result<()> {
        let server = self.index(hostname)?;
        self.servers[server].create_account(did.clone(), at)?;
        self.routing.insert(did, server);
        Ok(())
    }

    /// Migrate an account from its current PDS to another server, keeping all
    /// repository content. Returns the destination endpoint (the new value
    /// for the DID document).
    pub fn migrate_account(
        &mut self,
        did: &Did,
        destination: &str,
        at: Datetime,
    ) -> Result<String> {
        let origin = *self
            .routing
            .get(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted anywhere")))?;
        let dest = self.index(destination)?;
        if dest == origin {
            return Err(AtError::RepoError(
                "already hosted on the destination".into(),
            ));
        }
        let repo = self.servers[origin].migrate_out(did, at)?;
        self.servers[dest].migrate_in(repo, at)?;
        self.routing.insert(did.clone(), dest);
        Ok(self.servers[dest].endpoint())
    }

    /// Run the repository compaction pass on every server (the study
    /// pipeline calls this on its weekly snapshot cadence).
    pub fn compact_all(&mut self, cutoff: &Tid) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for server in &mut self.servers {
            stats.absorb(&server.compact_repos(cutoff));
        }
        stats
    }

    /// Trim every server's outbox (`Pds::trim_outbox`) to its entry in
    /// `crawled`: one absolute outbox position per server, in
    /// [`PdsFleet::servers`] order, below which every crawler of that server
    /// has taken its events.
    pub fn trim_outboxes(&mut self, crawled: &[usize]) {
        assert_eq!(crawled.len(), self.servers.len(), "one cursor per server");
        for (server, upto) in self.servers.iter_mut().zip(crawled) {
            server.trim_outbox(*upto);
        }
    }

    /// Aggregate block-store statistics across every server's repositories.
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for server in &self.servers {
            stats.absorb(&server.store_stats());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{PostRecord, Record};
    use bsky_atproto::Nsid;

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 2, 10).unwrap()
    }

    #[test]
    fn default_fleet_layout() {
        let fleet = PdsFleet::with_default_servers_store(10, &StoreConfig::default());
        assert_eq!(fleet.servers.len(), 10);
        assert_eq!(fleet.default_hostnames().len(), 10);
        assert_eq!(fleet.default_hostname(3), Some("pds004.host.bsky.network"));
        assert_eq!(fleet.default_hostname(13), fleet.default_hostname(3));
        assert_eq!(PdsFleet::new().default_hostname(0), None);
        assert!(fleet.server("pds001.host.bsky.network").is_some());
        assert!(fleet.server("missing").is_none());
        assert_eq!(fleet.routing.len(), 0);
    }

    #[test]
    fn servers_sit_in_hostname_order_whatever_order_they_join() {
        let mut fleet = PdsFleet::new();
        for host in ["self.example", "pds002.host.bsky.network", "a.example"] {
            fleet.add_server(Pds::with_store(
                host,
                PdsOperator::SelfHosted,
                StoreConfig::default(),
            ));
        }
        fleet.add_server(Pds::with_store(
            "self.example",
            PdsOperator::BlueskyPbc,
            StoreConfig::default(),
        ));
        let hosts: Vec<&str> = fleet.servers().map(Pds::hostname).collect();
        assert_eq!(
            hosts,
            ["a.example", "pds002.host.bsky.network", "self.example"]
        );
        assert_eq!(fleet.default_hostnames(), ["self.example"]);
        assert_eq!(fleet.default_hostname(5), Some("self.example"));
        let did = Did::plc_from_seed(b"dave");
        let handle = Handle::parse("dave.bsky.social").unwrap();
        fleet
            .create_account_on("pds002.host.bsky.network", did.clone(), handle, now())
            .unwrap();
        assert_eq!(fleet.locate(&did), Some("pds002.host.bsky.network"));
    }

    #[test]
    #[should_panic(expected = "before the first account")]
    fn a_server_cannot_join_after_an_account() {
        let mut fleet = PdsFleet::with_default_servers_store(1, &StoreConfig::default());
        let handle = Handle::parse("erin.bsky.social").unwrap();
        fleet
            .create_account_on(
                "pds001.host.bsky.network",
                Did::plc_from_seed(b"erin"),
                handle,
                now(),
            )
            .unwrap();
        fleet.add_server(Pds::with_store(
            "late.example",
            PdsOperator::SelfHosted,
            StoreConfig::default(),
        ));
    }

    #[test]
    fn account_creation_and_routing() {
        let mut fleet = PdsFleet::with_default_servers_store(2, &StoreConfig::default());
        let did = Did::plc_from_seed(b"alice");
        fleet
            .create_account_on(
                "pds002.host.bsky.network",
                did.clone(),
                Handle::parse("alice.bsky.social").unwrap(),
                now(),
            )
            .unwrap();
        assert_eq!(fleet.locate(&did), Some("pds002.host.bsky.network"));
        assert!(fleet.pds_for(&did).unwrap().repo(&did).is_some());
        assert_eq!(fleet.routing.len(), 1);
        assert!(fleet
            .create_account_on(
                "missing",
                Did::plc_from_seed(b"bob"),
                Handle::parse("b.bsky.social").unwrap(),
                now()
            )
            .is_err());
    }

    #[test]
    fn migration_moves_routing_and_content() {
        let mut fleet = PdsFleet::with_default_servers_store(1, &StoreConfig::default());
        fleet.add_server(Pds::with_store(
            "self.example",
            PdsOperator::SelfHosted,
            StoreConfig::default(),
        ));
        let did = Did::plc_from_seed(b"carol");
        fleet
            .create_account_on(
                "pds001.host.bsky.network",
                did.clone(),
                Handle::parse("carol.bsky.social").unwrap(),
                now(),
            )
            .unwrap();
        let hello = Record::Post(PostRecord::simple("hello", "en", now()));
        let (rkey, _) = fleet
            .pds_for_mut(&did)
            .unwrap()
            .create_record(
                &did,
                Nsid::parse(known::POST).unwrap(),
                hello.clone(),
                now(),
            )
            .unwrap();

        let endpoint = fleet.migrate_account(&did, "self.example", now()).unwrap();
        assert_eq!(endpoint, "https://self.example");
        assert_eq!(fleet.locate(&did), Some("self.example"));
        let moved = fleet.pds_for(&did).unwrap().repo(&did).unwrap();
        assert_eq!(
            moved.get_record(&Nsid::parse(known::POST).unwrap(), &rkey),
            Some(hello)
        );
        // Errors: unknown destination, migrating to the same host, unknown DID.
        assert!(fleet
            .migrate_account(&did, "nowhere.example", now())
            .is_err());
        assert!(fleet.migrate_account(&did, "self.example", now()).is_err());
        let nobody = Did::plc_from_seed(b"nobody");
        assert!(fleet
            .migrate_account(&nobody, "self.example", now())
            .is_err());
    }
}
