//! # bsky-pds
//!
//! Personal Data Servers for the simulated Bluesky network (§2 of the paper).
//!
//! * [`server`] — a single PDS: one DID-keyed table of hosted accounts and
//!   their repositories, the `com.atproto.sync.*` endpoints the Relay
//!   crawls, and an outbox of the firehose frames (`#commit`, `#identity`,
//!   `#handle`, `#tombstone`) its writes, handle changes, deletions and
//!   migrations emit.
//! * [`fleet`] — the fleet of default Bluesky-operated PDSes plus self-hosted
//!   servers, in hostname order, with the DID → PDS routing table and
//!   account migration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod server;

pub use fleet::PdsFleet;
pub use server::{Pds, PdsOperator};
