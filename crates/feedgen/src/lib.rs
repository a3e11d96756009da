//! # bsky-feedgen
//!
//! Feed Generators: the content-recommendation ecosystem of §7 of the paper.
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

pub mod faas;
pub mod filter;
pub mod generator;
pub mod route;

pub use filter::FeedFilter;
pub use generator::{CurationMode, FeedGenerator, RetentionPolicy};
pub use route::FeedRoutes;
