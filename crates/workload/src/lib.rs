//! # bsky-workload
//!
//! The calibrated synthetic Bluesky ecosystem: population, growth epochs,
//! activity, identity churn, labeler and feed-generator ecosystems, and the
//! day-by-day simulation driver ([`world::World`]).
//!
//! All calibration constants come straight from the paper (see
//! [`config::paper`]); a `(seed, scale)` pair fully determines a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ecosystem;
pub mod population;
pub mod world;

pub use config::ScenarioConfig;
pub use population::PopulationPlan;
pub use world::{ShardSpec, World, WorldSpec};
