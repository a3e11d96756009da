//! # bsky-appview
//!
//! The AppView: the centralized component that collates network data into a
//! client-usable form (§2 of the paper). The study never acts as its client;
//! it reads only what the AppView's ingestion leaves behind — which posts are
//! indexed (so a feed's entries hydrate), the labels that arrived before
//! their target, and the counters.
//!
//! * `index` — one entity shard's post/actor/graph indices, fed by the
//!   firehose and label streams. Per-entity state is encoded as DAG-CBOR
//!   blocks in a pluggable [`bsky_atproto::blockstore::BlockStore`]; only the
//!   `key → CID` maps, graph edge sets and counters stay resident, so the
//!   paged backend bounds the AppView's memory like it already bounds
//!   repositories and the relay mirror.
//! * `shards` — [`AppViewShards`]: the indices sharded by *entity hash*
//!   (posts by AT-URI hash, actors and their outgoing graph edges by
//!   [`bsky_atproto::Did::shard_hash`] — the same hash the workload plan
//!   partitions the population by). Ingestion decomposes into per-entity
//!   primitives routed to the owning shard. A property test pins sharded ==
//!   monolithic for random event/label interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod shards;

pub use shards::AppViewShards;
