//! # bsky-simnet
//!
//! Deterministic simulation substrate for the Bluesky ecosystem reproduction.
//!
//! The measurement study ran against the live network; this crate provides
//! the pieces of "the Internet" the study interacted with, in a form that is
//! deterministic (seeded), fast, and inspectable:
//!
//! * [`rng::SimRng`] — seeded, forkable random number generation so that a
//!   `(seed, scale)` pair fully determines a run.
//! * [`dns`] — an authoritative DNS zone store used for `_atproto.` TXT
//!   handle-ownership proofs.
//! * [`http`] — a miniature HTTPS document space used for
//!   `/.well-known/atproto-did` and `/.well-known/did.json` documents.
//! * [`net`] — hosting classification of service endpoints (cloud,
//!   residential, dead).
//! * [`faults`] — the deterministic fault-injection plan and the bounded
//!   [`faults::RetryPolicy`] used by study clients to recover from it.
//! * [`observer`] — a passive per-connection `(size, gap)` wire tap for the
//!   §10 traffic observatory.
//!
//! Everything is synchronous and poll-driven (the smoltcp idiom): the
//! workload driver steps the world one simulated day at a time, every draw
//! derives from `(seed, DID, day)`, and services react when polled. There
//! is no shared clock or event queue: simulated time is the day index or
//! timestamp each call carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dns;
pub mod faults;
pub mod http;
pub mod net;
pub mod observer;
pub mod rng;

pub use rng::SimRng;
