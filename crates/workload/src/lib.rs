//! # bsky-workload
//!
//! The calibrated synthetic Bluesky ecosystem: population, growth epochs,
//! activity, identity churn, labeler and feed-generator ecosystems, and the
//! day-by-day simulation driver ([`world::World`]); and, as modules of their
//! own, everything of the simulated network apart from its PDSes and relays
//! (`bsky-pds`, `bsky-relay`): the deterministic network substrate, the
//! identity layer, the labelers and the feed generators.
//!
//! All calibration constants come straight from the paper (see
//! [`config::paper`]); a `(seed, scale)` pair fully determines a run.
//!
//! ## The network substrate
//!
//! The measurement study ran against the live network; these modules
//! provide the pieces of "the Internet" the study interacted with, in a
//! form that is deterministic (seeded), fast, and inspectable:
//!
//! * [`rng`] — seeded, forkable random number generation
//!   ([`rng::SimRng`]) so that a `(seed, scale)` pair fully determines a
//!   run.
//! * [`dns`] — an authoritative DNS zone store used for `_atproto.` TXT
//!   handle-ownership proofs.
//! * [`http`] — a miniature HTTPS document space used for
//!   `/.well-known/atproto-did` and `/.well-known/did.json` documents.
//! * [`net`] — hosting classification of service endpoints (cloud,
//!   residential, dead).
//! * [`faults`] — the deterministic fault-injection plan and the bounded
//!   [`faults::RetryPolicy`] used by study clients to recover from it.
//!
//! Everything is synchronous and poll-driven (the smoltcp idiom): the
//! driver steps the world one simulated day at a time, every draw derives
//! from `(seed, DID, day)`, and services react when polled. There is no
//! shared clock or event queue: simulated time is the day index or
//! timestamp each call carries.
//!
//! ## Identity (§5)
//!
//! * [`diddoc`] — DID documents (handle, PDS endpoint, signing key, labeler
//!   endpoints) and their wire encoding.
//! * [`plc`] — the centralized PLC directory operated by Bluesky PBC, with
//!   creation/update/tombstone operations and the paginated export the study
//!   snapshots.
//! * [`resolver`] — publishing the proofs handle ⇄ DID resolution reads: DNS
//!   TXT records, `/.well-known/atproto-did` and `did:web` documents; and
//!   [`resolver::HandleProbe`], what the study's collector reads back for
//!   each handle through [`World::probe_handle`].
//! * [`psl`] — Public Suffix List handling for extracting registered domains
//!   from FQDN handles (Figure 3).
//! * [`registrar`] — registrar catalogue and WHOIS database with IANA-ID
//!   coverage gaps (Table 2).
//! * [`tranco`] — a Tranco-style popularity ranking for the top-1M overlap
//!   analysis.
//!
//! ## Labelers (§6)
//!
//! * [`values`] — label value catalogues for the official Bluesky Labeler and
//!   the community labelers of Tables 3/4/6.
//! * [`policy`] — issuance policies: content triggers plus the
//!   automated-vs-manual reaction-time models behind Figures 5 and 6.
//! * [`service`] — the labeler service itself: service records, pending
//!   queues, label streams with cursors, rescissions, hosting classes and the
//!   network-wide registry.
//!
//! ## Feed generators (§7)
//!
//! * [`filter`] — the filters a pipeline feed applies to every post on the
//!   network.
//! * [`generator`] — Feed Generator instances: curation modes (pipeline,
//!   personalised, manual), retention policies, likes.
//! * [`route`] — how a new post reaches the pipeline feeds that curate it:
//!   one filter check and one curated list per distinct pipeline, of which
//!   each feed on it is a view.
//! * [`faas`] — the Feed-Generator-as-a-Service platforms of Table 5 with
//!   their feature matrices and observed market shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ecosystem;
pub mod population;
pub mod world;

pub mod dns;
pub mod faults;
pub mod http;
pub mod net;
pub mod rng;

pub mod diddoc;
pub mod plc;
pub mod psl;
pub mod registrar;
pub mod resolver;
pub mod tranco;

pub mod policy;
pub mod service;
pub mod values;

pub mod faas;
pub mod filter;
pub mod generator;
pub mod route;

pub use config::ScenarioConfig;
pub use population::PopulationPlan;
pub use world::{ShardSpec, World, WorldSpec};
