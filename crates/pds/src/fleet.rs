//! The PDS fleet.
//!
//! Bluesky PBC operates the default PDSes (the `*.host.bsky.network`
//! "mushroom" servers users are sharded onto at signup); since federation
//! opened, anyone can run a self-hosted PDS and users can migrate onto it
//! while keeping their social graph (§2). The fleet tracks which PDS hosts
//! which account — the piece of state a Relay crawler walks.

use crate::server::{Pds, PdsOperator};
use bsky_atproto::blockstore::{StoreConfig, StoreStats};
use bsky_atproto::error::{AtError, Result};
use bsky_atproto::repo::CompactionStats;
use bsky_atproto::{Datetime, Did, Handle, Tid};
use std::collections::BTreeMap;

/// A collection of PDS instances plus the DID → PDS routing table.
#[derive(Debug, Default)]
pub struct PdsFleet {
    servers: BTreeMap<String, Pds>,
    routing: BTreeMap<String, String>,
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

    /// Add a server (default or self-hosted).
    pub fn add_server(&mut self, pds: Pds) {
        self.servers.insert(pds.hostname().to_string(), pds);
    }

    /// Iterate servers (hostname order).
    pub fn servers(&self) -> impl Iterator<Item = &Pds> {
        self.servers.values()
    }

    /// Access a server by hostname.
    pub fn server(&self, hostname: &str) -> Option<&Pds> {
        self.servers.get(hostname)
    }

    /// Hostnames of Bluesky-operated default servers.
    pub fn default_hostnames(&self) -> Vec<String> {
        self.servers
            .values()
            .filter(|p| p.operator() == PdsOperator::BlueskyPbc)
            .map(|p| p.hostname().to_string())
            .collect()
    }

    /// The hostname of the PDS hosting a DID.
    pub fn locate(&self, did: &Did) -> Option<&str> {
        self.routing.get(&did.as_string()).map(String::as_str)
    }

    /// The PDS hosting a DID.
    pub fn pds_for(&self, did: &Did) -> Option<&Pds> {
        self.locate(did).and_then(|h| self.servers.get(h))
    }

    /// Mutable access to the PDS hosting a DID.
    pub fn pds_for_mut(&mut self, did: &Did) -> Option<&mut Pds> {
        let host = self.routing.get(&did.as_string())?;
        self.servers.get_mut(host)
    }

    /// Create an account on a specific server.
    pub fn create_account_on(
        &mut self,
        hostname: &str,
        did: Did,
        handle: Handle,
        at: Datetime,
    ) -> Result<()> {
        let server = self
            .servers
            .get_mut(hostname)
            .ok_or_else(|| AtError::RepoError(format!("no PDS named {hostname}")))?;
        server.create_account(did.clone(), handle, at)?;
        self.routing.insert(did.as_string(), hostname.to_string());
        Ok(())
    }

    /// Migrate an account from its current PDS to another server, keeping all
    /// repository content. Returns the destination endpoint (the new value
    /// for the DID document).
    pub fn migrate_account(
        &mut self,
        did: &Did,
        destination: &str,
        new_handle: Handle,
        at: Datetime,
    ) -> Result<String> {
        let origin_host = self
            .locate(did)
            .ok_or_else(|| AtError::RepoError(format!("{did} not hosted anywhere")))?
            .to_string();
        if origin_host == destination {
            return Err(AtError::RepoError(
                "already hosted on the destination".into(),
            ));
        }
        if !self.servers.contains_key(destination) {
            return Err(AtError::RepoError(format!("no PDS named {destination}")));
        }
        let repo = self
            .servers
            .get_mut(&origin_host)
            .expect("origin exists")
            .migrate_out(did, at)?;
        let dest = self.servers.get_mut(destination).expect("checked above");
        dest.migrate_in(repo, new_handle, at)?;
        self.routing
            .insert(did.as_string(), destination.to_string());
        Ok(dest.endpoint())
    }

    /// Run the repository compaction pass on every server (the study
    /// pipeline calls this on its weekly snapshot cadence).
    pub fn compact_all(&mut self, cutoff: &Tid) -> CompactionStats {
        let mut stats = CompactionStats::default();
        for server in self.servers.values_mut() {
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
        for (server, upto) in self.servers.values_mut().zip(crawled) {
            server.trim_outbox(*upto);
        }
    }

    /// Aggregate block-store statistics across every server's repositories.
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for server in self.servers.values() {
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
        assert!(fleet.server("pds001.host.bsky.network").is_some());
        assert!(fleet.server("missing").is_none());
        assert_eq!(fleet.routing.len(), 0);
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

        let endpoint = fleet
            .migrate_account(
                &did,
                "self.example",
                Handle::parse("carol.example.com").unwrap(),
                now(),
            )
            .unwrap();
        assert_eq!(endpoint, "https://self.example");
        assert_eq!(fleet.locate(&did), Some("self.example"));
        let moved = fleet.pds_for(&did).unwrap().repo(&did).unwrap();
        assert_eq!(
            moved.get_record(&Nsid::parse(known::POST).unwrap(), &rkey),
            Some(hello)
        );
        // Errors: unknown destination, migrating to the same host, unknown DID.
        assert!(fleet
            .migrate_account(
                &did,
                "nowhere.example",
                Handle::parse("c.example.com").unwrap(),
                now()
            )
            .is_err());
        assert!(fleet
            .migrate_account(
                &did,
                "self.example",
                Handle::parse("c.example.com").unwrap(),
                now()
            )
            .is_err());
        assert!(fleet
            .migrate_account(
                &Did::plc_from_seed(b"nobody"),
                "self.example",
                Handle::parse("n.example.com").unwrap(),
                now()
            )
            .is_err());
    }
}
