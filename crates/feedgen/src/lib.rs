//! # bsky-feedgen
//!
//! Feed Generators: the content-recommendation ecosystem of §7 of the paper.
//!
//! * [`filter`] — the filters a pipeline feed applies to every post on the
//!   network.
//! * [`generator`] — Feed Generator instances: curation modes (pipeline,
//!   personalised, manual), retention policies, likes.
//! * [`faas`] — the Feed-Generator-as-a-Service platforms of Table 5 with
//!   their feature matrices and observed market shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faas;
pub mod filter;
pub mod generator;

pub use filter::FeedFilter;
pub use generator::{CurationMode, FeedGenerator, RetentionPolicy};
