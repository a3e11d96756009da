//! # bsky-atproto
//!
//! A self-contained implementation of the AT Protocol ("ATProto") data model
//! as used by Bluesky and as described in *Looking AT the Blue Skies of
//! Bluesky* (IMC 2024).
//!
//! The crate provides every on-the-wire and at-rest structure the measurement
//! study touches:
//!
//! * **Identifiers** — [`did::Did`] (PLC and WEB methods), [`handle::Handle`]
//!   (FQDN handles), [`nsid::Nsid`] (lexicon namespaces), [`tid::Tid`]
//!   (timestamp identifiers / record keys) and [`aturi::AtUri`]
//!   (`at://<did>/<collection>/<rkey>` record URIs).
//! * **Encoding** — a DAG-CBOR subset ([`cbor`]) used to serialise repository
//!   records, plus content addressing ([`cid`]) on top of an in-crate SHA-256
//!   implementation ([`crypto`]).
//! * **Repositories** — a Merkle Search Tree ([`mst`]), signed commits and CAR
//!   export ([`repo`]), and the lexicon record types of the `app.bsky` and
//!   `com.atproto` namespaces ([`record`]).
//! * **Streaming** — firehose event frames ([`firehose`]), moderation
//!   labels ([`label`]), and wire-framing mitigations ([`framing`]:
//!   padding and batching policies for the §10 traffic observatory).
//! * **Time** — a dependency-free civil datetime ([`datetime`]) so that the
//!   whole workspace shares one notion of simulated wall-clock time.
//!
//! The crate is deliberately synchronous and allocation-conscious, following
//! the smoltcp idiom of the networking guides: plain data structures, explicit
//! state machines, and no hidden global state.

// Unsafe code is denied crate-wide with one audited exception: the SHA-NI
// hardware compression path in `crypto::shani`, which is pure `core::arch`
// intrinsics behind a runtime CPU-feature probe and is pinned bit-for-bit
// against the safe scalar implementation by test. That says why it is
// safe; why it is there is a measurement: every MST node and record block
// is hashed as it is sealed, and with the scalar path alone `serial_mem_2x`
// `study_wall_s` reads 2.039 s against 1.603 s (+27 %, scalar slower in
// 10 of 10 alternating pairs, seed 7, same report FNV; the pairs are in
// ROADMAP.md). `deny` rather than `forbid` is what that buys.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aturi;
pub mod blockstore;
pub mod cbor;
pub mod cid;
pub mod crypto;
pub mod datetime;
pub mod did;
pub mod error;
pub mod firehose;
pub mod framing;
pub mod handle;
pub mod label;
pub mod mst;
pub mod nsid;
pub mod record;
pub mod repo;
pub mod tid;

pub use aturi::AtUri;
pub use cid::Cid;
pub use datetime::Datetime;
pub use did::{Did, DidMethod};
pub use handle::Handle;
pub use nsid::Nsid;
pub use tid::Tid;

#[cfg(test)]
mod testrand;
