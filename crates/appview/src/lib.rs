//! # bsky-appview
//!
//! The AppView: the centralized component that collates network data into a
//! client-usable form (§2 of the paper).
//!
//! * [`index`] — post/actor/graph indices fed by the firehose and label
//!   streams. Per-entity state ([`PostInfo`], [`index::ActorInfo`]) is encoded as
//!   DAG-CBOR blocks in a pluggable
//!   [`bsky_atproto::blockstore::BlockStore`]; only the `key → CID` maps,
//!   graph edge sets and counters stay resident, so the paged backend
//!   bounds the AppView's memory like it already bounds repositories and
//!   the relay mirror.
//! * [`shards`] — [`AppViewShards`]: the indices sharded by *entity hash*
//!   (posts by AT-URI hash, actors and their outgoing graph edges by
//!   [`bsky_atproto::Did::shard_hash`] — the same hash the workload plan
//!   partitions the population by). Ingestion decomposes into per-entity
//!   primitives routed to the owning shard; queries fan out and re-merge
//!   under the canonical `(created_at desc, uri)` order. A property test
//!   pins sharded == monolithic for random event/label interleavings.
//! * [`moderation`] — combining labels with per-user preferences into
//!   show/warn/hide decisions, including reserved-label and adult-content
//!   hardcoded behaviour.
//! * [`api`] — the public API surface the study crawls: `getProfile`,
//!   `getFeedGenerator`, `getFeed` — served from the sharded indices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod index;
pub mod moderation;
pub mod shards;

pub use api::AppView;
pub use index::PostInfo;
pub use moderation::{decide_post_visibility, Visibility};
pub use shards::AppViewShards;
