//! # bsky-appview
//!
//! The AppView: the centralized component that collates network data into a
//! client-usable form (§2 of the paper). The study never acts as its client
//! and the simulated world runs without one; the benchmark replays the
//! world's records into this index to time AppView-style ingestion.
//!
//! * `index` — one entity shard's post/actor/graph indices: a resident key
//!   per post and per account, the graph edge sets, and counters, flushed
//!   daily into DAG-CBOR counter blocks in a pluggable
//!   [`bsky_atproto::blockstore::BlockStore`].
//! * `shards` — [`AppViewShards`]: the indices sharded by *entity hash*
//!   (posts by AT-URI hash, actors and their outgoing graph edges by
//!   [`bsky_atproto::Did::shard_hash`] — the same hash the workload plan
//!   partitions the population by). Ingestion decomposes into per-entity
//!   primitives routed to the owning shard. A property test pins sharded ==
//!   monolithic for random record interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod shards;

pub use shards::AppViewShards;
