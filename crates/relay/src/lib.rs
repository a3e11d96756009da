//! # bsky-relay
//!
//! The Relay and its Firehose (§2, §3 of the paper): the central aggregation
//! point that crawls every PDS, serves its repositories, and republishes all
//! network activity as a sequenced event stream.
//!
//! * [`firehose`] — the sequenced, retention-bounded event log with cursors
//!   and outdated-cursor signalling.
//! * [`relay`] — the Relay service: PDS crawler, network-wide
//!   `sync.listRepos`, and `sync.getRepo` proxied to the hosting PDS.
//! * [`observer`] — the passive per-connection `(size, gap)` wire tap the
//!   relay records its firehose frames into, for the §10 traffic
//!   observatory.
//! * [`federation`] — hierarchical relay federation: N regional relays each
//!   crawling a contiguous slice of the hostname-sorted PDS fleet, forwarding
//!   cursor-resumably into a super-relay with cross-relay `(did, rev)`
//!   dedup. Built so a federated run is byte-identical to a single-relay
//!   run — dedup makes the observed stream identical by construction.
//! * [`stats`] — forwarding/dedup counters for the federated topology and
//!   the outbox positions a lagging crawl skipped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod federation;
pub mod firehose;
pub mod observer;
pub mod relay;
pub mod stats;

pub use federation::RelayFederation;
pub use relay::Relay;
