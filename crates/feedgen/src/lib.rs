//! # bsky-feedgen
//!
//! Feed Generators: the content-recommendation ecosystem of §7 of the paper.
//!
//! * [`regex`] — a small regular-expression engine (the Skyfeed-only feature
//!   of Table 5).
//! * [`filter`] — declarative feed pipelines: inputs and filters.
//! * [`generator`] — Feed Generator instances: curation modes (pipeline,
//!   personalised, manual), retention policies, `getFeedSkeleton`, likes.
//! * [`faas`] — the Feed-Generator-as-a-Service platforms of Table 5 with
//!   their feature matrices and observed market shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faas;
pub mod filter;
pub mod generator;
pub mod regex;

pub use filter::{FeedFilter, FeedInput, FeedPipeline};
pub use generator::{CurationMode, FeedGenerator, RetentionPolicy};
pub use regex::Regex;
