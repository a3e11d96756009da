//! # bsky-pds
//!
//! Personal Data Servers for the simulated Bluesky network (§2 of the paper).
//!
//! * `account` — hosted accounts: identity and status.
//! * [`server`] — a single PDS: repository hosting, the `com.atproto.sync.*`
//!   endpoints the Relay crawls, handle changes, deletions and migrations.
//! * [`fleet`] — the fleet of default Bluesky-operated PDSes plus self-hosted
//!   servers, with the DID → PDS routing table and account migration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
pub mod fleet;
pub mod server;

pub use fleet::PdsFleet;
pub use server::{Pds, PdsEventDetail, PdsOperator};
