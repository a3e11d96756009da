//! # bsky-identity
//!
//! The identity infrastructure of the simulated Bluesky network, covering
//! everything §5 of *Looking AT the Blue Skies of Bluesky* measures:
//!
//! * [`diddoc`] — DID documents (handle, PDS endpoint, signing key, labeler
//!   endpoints) and their wire encoding.
//! * [`plc`] — the centralized PLC directory operated by Bluesky PBC, with
//!   creation/update/tombstone operations and the paginated export the study
//!   snapshots.
//! * [`resolver`] — publishing the proofs handle ⇄ DID resolution reads: DNS
//!   TXT records, `/.well-known/atproto-did` and `did:web` documents (the
//!   study's collector does the resolving, against the same stores).
//! * [`psl`] — Public Suffix List handling for extracting registered domains
//!   from FQDN handles (Figure 3).
//! * [`registrar`] — registrar catalogue and WHOIS database with IANA-ID
//!   coverage gaps (Table 2).
//! * [`tranco`] — a Tranco-style popularity ranking for the top-1M overlap
//!   analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diddoc;
pub mod plc;
pub mod psl;
pub mod registrar;
pub mod resolver;
pub mod tranco;

pub use diddoc::DidDocument;
pub use plc::PlcDirectory;
pub use psl::PublicSuffixList;
pub use registrar::WhoisDatabase;
pub use tranco::TrancoList;
