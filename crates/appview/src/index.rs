//! The AppView's indices.
//!
//! The AppView indexes the records the firehose carries per entity (§2):
//!
//! * **Entity keys.** One resident key per indexed post (its AT-URI) and
//!   per known account (its DID). No record, profile or handle is stored.
//! * **Hot counters.** Likes, reposts and the actor graph counters live in
//!   small resident dirty maps (`PostCounters` / `ActorCounters`). A
//!   counter bump is a map update; `AppViewIndex::flush` (called at day
//!   boundaries) encodes each dirty entity's counters *once* into a compact
//!   counter block in a pluggable [`bsky_atproto::blockstore::BlockStore`],
//!   so N same-day bumps cost one encode+put. The dirty maps are bounded by
//!   one day's touched entities and empty again after every flush, so
//!   steady-state residency does not grow.
//!
//! Counter blocks embed the key's FNV-1a hash (falling back to the full key
//! on a hash-and-value collision), so read-modify-write updates (`delete`
//! old CID, `put` new) can never clobber another entity's block. The store
//! may be wrapped in a [`WriteBackStore`] (the `write_back` knob), which
//! buffers same-day block writes until the flush.
//!
//! ## Ingestion primitives
//!
//! A single logical ingestion step can touch several entities — indexing a
//! follow record updates the edge set, the follower's `follows` counter and
//! the target's `followers` counter. `AppViewIndex` therefore exposes the
//! per-entity *primitives* (`AppViewIndex::insert_post`,
//! `AppViewIndex::credit_follows`, …), and the entity-sharded
//! [`crate::shards::AppViewShards`] — the only ingestion surface production
//! has — routes each primitive to the shard owning the touched entity. The
//! monolithic composition of the same primitives (`index_record`) and
//! every read of entity state live under `#[cfg(test)]` below as the
//! oracle the shard property test in `shards.rs` holds the routing to.

use bsky_atproto::blockstore::{BlockStore, StoreConfig, StoreStats, WriteBackStore};
use bsky_atproto::cbor::{self, Value};
use bsky_atproto::cid::Cid;
use bsky_atproto::did::{fnv1a_64, FNV_OFFSET};
use bsky_atproto::{AtUri, Did};
use std::collections::{BTreeMap, BTreeSet};

/// Hot mutable counters of a post.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PostCounters {
    /// Likes counted so far.
    pub(crate) like_count: u64,
    /// Reposts counted so far.
    pub(crate) repost_count: u64,
}

impl PostCounters {
    /// Whether every counter is at its default — such state needs no
    /// counter block at all.
    pub(crate) fn is_default(&self) -> bool {
        *self == PostCounters::default()
    }

    /// Encode as a compact DAG-CBOR counter block: the positional array
    /// `[tag, likes, reposts]`. `tag` disambiguates the owning entity (the
    /// key's FNV-1a hash); it is ignored on decode. Positional encoding keeps
    /// the hot, endlessly-rewritten counter blocks around a dozen bytes
    /// where a string-keyed map would more than double that.
    pub(crate) fn to_block(self, tag: Value) -> Vec<u8> {
        cbor::encode(&Value::Array(vec![
            tag,
            Value::Int(self.like_count as i64),
            Value::Int(self.repost_count as i64),
        ]))
    }

    /// Decode from a counter block (`None` on any mismatch).
    pub(crate) fn from_block(bytes: &[u8]) -> Option<PostCounters> {
        let value = cbor::decode(bytes).ok()?;
        match value.as_array()? {
            [_tag, likes, reposts] => Some(PostCounters {
                like_count: likes.as_int()? as u64,
                repost_count: reposts.as_int()? as u64,
            }),
            _ => None,
        }
    }
}

/// Hot mutable counters of an actor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ActorCounters {
    /// Number of accounts this actor follows.
    pub(crate) follows: u64,
    /// Number of accounts following this actor.
    pub(crate) followers: u64,
    /// Number of posts indexed for this actor.
    pub(crate) posts: u64,
    /// Number of block operations targeting this actor.
    pub(crate) blocked_by: u64,
}

impl ActorCounters {
    /// Whether every counter is at its default.
    pub(crate) fn is_default(&self) -> bool {
        *self == ActorCounters::default()
    }

    /// Encode as a compact DAG-CBOR counter block: the positional array
    /// `[tag, follows, followers, posts, blockedBy]` (`tag` as in
    /// [`PostCounters::to_block`]).
    pub(crate) fn to_block(self, tag: Value) -> Vec<u8> {
        cbor::encode(&Value::Array(vec![
            tag,
            Value::Int(self.follows as i64),
            Value::Int(self.followers as i64),
            Value::Int(self.posts as i64),
            Value::Int(self.blocked_by as i64),
        ]))
    }

    /// Decode from a counter block (`None` on any mismatch).
    pub(crate) fn from_block(bytes: &[u8]) -> Option<ActorCounters> {
        let value = cbor::decode(bytes).ok()?;
        match value.as_array()? {
            [_tag, follows, followers, posts, blocked_by] => Some(ActorCounters {
                follows: follows.as_int()? as u64,
                followers: followers.as_int()? as u64,
                posts: posts.as_int()? as u64,
                blocked_by: blocked_by.as_int()? as u64,
            }),
            _ => None,
        }
    }
}

/// The compact entity tag embedded in counter blocks: the FNV-1a hash of
/// the entity key, as the sharding layers already use. Embedding the full
/// AT-URI would several-fold a counter block's size; the hash keeps
/// blocks ~a dozen bytes while [`AppViewIndex`] falls back to the full key
/// on the (hash, counters) collisions that would otherwise share a CID.
fn counter_tag(key: &str) -> Value {
    Value::Int(fnv1a_64(key.as_bytes(), FNV_OFFSET) as i64)
}

/// The AppView's combined index (one entity shard of it, when owned by
/// [`crate::shards::AppViewShards`]).
///
/// Entity keys are resident; flushed counters live as CBOR blocks in the
/// backing store. See the module docs for the storage layout and the
/// primitive/composed ingestion split. Counter mutations accumulate in
/// resident dirty maps until [`AppViewIndex::flush`] — call it at epoch
/// (day) boundaries and before reading [`AppViewIndex::store_stats`].
#[derive(Debug)]
pub(crate) struct AppViewIndex {
    /// Post key (AT-URI string) → its flushed counter block, absent while
    /// its counters are default or only dirty in memory.
    posts: BTreeMap<String, Option<Cid>>,
    /// Actor key (DID) → its flushed counter block.
    actors: BTreeMap<Did, Option<Cid>>,
    store: Box<dyn BlockStore>,
    /// Post counter state dirtied since the last flush.
    dirty_posts: BTreeMap<String, PostCounters>,
    /// Actor counter state dirtied since the last flush.
    dirty_actors: BTreeMap<Did, ActorCounters>,
    /// `(follower, followed)` DID pairs, keyed by the follower.
    follow_edges: BTreeSet<(Did, Did)>,
    /// `(blocker, blocked)` DID pairs, keyed by the blocker.
    block_edges: BTreeSet<(Did, Did)>,
    records_indexed: u64,
    counter_coalesced_writes: u64,
}

impl AppViewIndex {
    /// Create an empty index over an explicit block-store backend,
    /// optionally wrapped in a [`WriteBackStore`] (`write_back`). Neither
    /// the backend nor the cache changes the indexed state — only where
    /// bytes reside and how many backend ops a day of mutations costs.
    pub(crate) fn with_store(store: &StoreConfig, write_back: bool) -> AppViewIndex {
        let store = if write_back {
            Box::new(WriteBackStore::new(store.build()))
        } else {
            store.build()
        };
        AppViewIndex {
            posts: BTreeMap::new(),
            actors: BTreeMap::new(),
            store,
            dirty_posts: BTreeMap::new(),
            dirty_actors: BTreeMap::new(),
            follow_edges: BTreeSet::new(),
            block_edges: BTreeSet::new(),
            records_indexed: 0,
            counter_coalesced_writes: 0,
        }
    }

    // -- block plumbing ----------------------------------------------------

    /// A post's flushed counter state: its counter block, or defaults when
    /// it has none.
    fn flushed_post_counters(&self, block: Option<Cid>) -> PostCounters {
        block
            .and_then(|cid| self.store.get(&cid))
            .and_then(|bytes| PostCounters::from_block(&bytes))
            .unwrap_or_default()
    }

    fn flushed_actor_counters(&self, block: Option<Cid>) -> ActorCounters {
        block
            .and_then(|cid| self.store.get(&cid))
            .and_then(|bytes| ActorCounters::from_block(&bytes))
            .unwrap_or_default()
    }

    /// Mutate a post's hot counters — a resident map update, no block
    /// traffic (no-op for unknown posts, like every counter primitive).
    /// The key is taken owned: a first bump of the day moves it into the
    /// dirty map, so rendering it is the only allocation of a counter bump.
    fn update_post_counters(&mut self, key: String, apply: impl FnOnce(&mut PostCounters)) {
        let Some(&block) = self.posts.get(&key) else {
            return;
        };
        if let Some(counters) = self.dirty_posts.get_mut(&key) {
            apply(counters);
            self.counter_coalesced_writes += 1;
            return;
        }
        let mut counters = self.flushed_post_counters(block);
        apply(&mut counters);
        self.dirty_posts.insert(key, counters);
    }

    /// Mutate an actor's hot counters; only a first bump of the day clones
    /// the DID, into the dirty map.
    fn update_actor_counters(&mut self, did: &Did, apply: impl FnOnce(&mut ActorCounters)) {
        let Some(&block) = self.actors.get(did) else {
            return;
        };
        if let Some(counters) = self.dirty_actors.get_mut(did) {
            apply(counters);
            self.counter_coalesced_writes += 1;
            return;
        }
        let mut counters = self.flushed_actor_counters(block);
        apply(&mut counters);
        self.dirty_actors.insert(did.clone(), counters);
    }

    /// Write one entity's flushed counter block, replacing `old`; returns
    /// the stored CID. Blocks embed the key's FNV-1a hash tag; when another
    /// entity already owns an identical block (a hash *and* counter-value
    /// collision), fall back to embedding the full key, so counter CIDs
    /// stay unique per entity and a later rewrite's delete can never
    /// clobber a neighbour.
    fn put_counter_block(
        &mut self,
        key: &str,
        old: Option<Cid>,
        encode: impl Fn(Value) -> Vec<u8>,
    ) -> Option<Cid> {
        let bytes = encode(counter_tag(key));
        let cid = Cid::for_cbor(&bytes);
        if old == Some(cid) {
            return old;
        }
        let (cid, bytes) = if self.store.has(&cid) {
            let bytes = encode(Value::text(key));
            (Cid::for_cbor(&bytes), bytes)
        } else {
            (cid, bytes)
        };
        if let Some(old) = old {
            self.store.delete(&old);
        }
        self.store.put(cid, bytes);
        Some(cid)
    }

    /// Flush all dirty counter state into compact counter blocks and drain
    /// the write-back cache. Called at day boundaries (and before
    /// store-stats reads); queries are flush-transparent either way.
    pub(crate) fn flush(&mut self) {
        for (key, counters) in std::mem::take(&mut self.dirty_posts) {
            let Some(&old) = self.posts.get(&key) else {
                continue;
            };
            let new = if counters.is_default() {
                if let Some(old) = old {
                    self.store.delete(&old);
                }
                None
            } else {
                self.put_counter_block(&key, old, |tag| counters.to_block(tag))
            };
            *self.posts.get_mut(&key).expect("entry exists") = new;
        }
        for (key, counters) in std::mem::take(&mut self.dirty_actors) {
            let Some(&old) = self.actors.get(&key) else {
                continue;
            };
            let new = if counters.is_default() {
                if let Some(old) = old {
                    self.store.delete(&old);
                }
                None
            } else {
                self.put_counter_block(key.as_str(), old, |tag| counters.to_block(tag))
            };
            *self.actors.get_mut(&key).expect("entry exists") = new;
        }
        self.store.flush();
        // The day boundary ends the hot window: demote sealed pages so
        // steady-state residency is the open page plus the dirty maps.
        self.store.evict_cold();
    }

    // -- ingestion primitives (the shard router's surface) -----------------

    /// Register an account. Targets the actor entity only.
    pub(crate) fn register_actor(&mut self, did: &Did) {
        if !self.actors.contains_key(did) {
            self.actors.insert(did.clone(), None);
        }
    }

    /// Count one indexed record (part of every
    /// [`crate::AppViewShards::index_record`]).
    pub(crate) fn count_record(&mut self) {
        self.records_indexed += 1;
    }

    /// Insert (or replace) the post entity of a freshly ingested record,
    /// with zero counters. Targets the post entity only — the author's post
    /// counter is [`AppViewIndex::credit_author_post`].
    pub(crate) fn insert_post(&mut self, uri: &AtUri) {
        let key = uri.as_string();
        match self.posts.get(&key) {
            // A replaced post starts over from zero counters.
            Some(block) => {
                if block.is_some() || self.dirty_posts.contains_key(&key) {
                    self.dirty_posts.insert(key, PostCounters::default());
                }
            }
            None => {
                self.posts.insert(key, None);
            }
        }
    }

    /// Credit one post to an author's counter (no-op for unknown actors,
    /// like the live AppView's denormalized counts).
    pub(crate) fn credit_author_post(&mut self, author: &Did) {
        self.update_actor_counters(author, |a| a.posts += 1);
    }

    /// Count a like on a post (no-op when the post is unknown).
    pub(crate) fn apply_like(&mut self, subject: &AtUri) {
        self.update_post_counters(subject.as_string(), |p| p.like_count += 1);
    }

    /// Count a repost (no-op when the post is unknown).
    pub(crate) fn apply_repost(&mut self, subject: &AtUri) {
        self.update_post_counters(subject.as_string(), |p| p.repost_count += 1);
    }

    /// Insert a follow edge (keyed by the follower). Returns `true` when
    /// the edge is new — the caller then credits both endpoint counters.
    pub(crate) fn insert_follow_edge(&mut self, follower: &Did, followed: &Did) -> bool {
        self.follow_edges
            .insert((follower.clone(), followed.clone()))
    }

    /// Credit one follow to the follower's counter (no-op when unknown).
    pub(crate) fn credit_follows(&mut self, follower: &Did) {
        self.update_actor_counters(follower, |a| a.follows += 1);
    }

    /// Credit one follower to the followed account's counter.
    pub(crate) fn credit_followers(&mut self, followed: &Did) {
        self.update_actor_counters(followed, |a| a.followers += 1);
    }

    /// Insert a block edge (keyed by the blocker). Returns `true` when new.
    pub(crate) fn insert_block_edge(&mut self, blocker: &Did, blocked: &Did) -> bool {
        self.block_edges.insert((blocker.clone(), blocked.clone()))
    }

    /// Credit one block against the blocked account's counter.
    pub(crate) fn credit_blocked_by(&mut self, blocked: &Did) {
        self.update_actor_counters(blocked, |a| a.blocked_by += 1);
    }

    // -- reads ---------------------------------------------------------------

    /// Total records indexed.
    pub(crate) fn records_indexed(&self) -> u64 {
        self.records_indexed
    }

    /// Residency/spill statistics of the backing block store. Call
    /// [`AppViewIndex::flush`] first for steady-state numbers — dirty
    /// counters and write-back-buffered blocks are resident until flushed.
    pub(crate) fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Counter mutations that landed on an already-dirty entity — block
    /// writes the dirty maps coalesced away.
    pub(crate) fn counter_coalesced_writes(&self) -> u64 {
        self.counter_coalesced_writes
    }
}

// The monolithic index as an oracle: composed ingestion and every read of
// entity state. Production ingests through `AppViewShards` and reads only
// the counts; the shard property suite (and the unit tests below) hold it
// to this.
#[cfg(test)]
mod oracle {
    use super::*;
    use bsky_atproto::record::Record;
    use bsky_atproto::{Datetime, Handle, Nsid};

    impl AppViewIndex {
        /// An empty index over the in-memory block store with the write-back
        /// cache on (the standard configuration).
        pub(crate) fn new() -> AppViewIndex {
            AppViewIndex::with_store(&StoreConfig::default(), true)
        }

        /// The freshest counter state of a post: dirty map first, then the
        /// flushed counter block, then defaults. `None` for an unindexed
        /// post. Reads never observe a flush boundary.
        pub(crate) fn post(&self, uri: &AtUri) -> Option<PostCounters> {
            self.post_key(&uri.as_string())
        }

        fn post_key(&self, key: &str) -> Option<PostCounters> {
            let block = *self.posts.get(key)?;
            Some(match self.dirty_posts.get(key) {
                Some(counters) => *counters,
                None => self.flushed_post_counters(block),
            })
        }

        /// The freshest counter state of a known actor.
        pub(crate) fn actor(&self, did: &Did) -> Option<ActorCounters> {
            let block = *self.actors.get(did)?;
            Some(match self.dirty_actors.get(did) {
                Some(counters) => *counters,
                None => self.flushed_actor_counters(block),
            })
        }

        /// Number of known actors.
        pub(crate) fn actor_count(&self) -> usize {
            self.actors.len()
        }

        /// Register an account, with the shard set's signature.
        pub(crate) fn upsert_actor(&mut self, did: &Did, _handle: &Handle) {
            self.register_actor(did);
        }

        /// Index a record authored by `author` (the counterpart of a
        /// firehose commit op). Composed from the per-entity primitives above.
        pub(crate) fn index_record(
            &mut self,
            author: &Did,
            collection: &Nsid,
            rkey: &str,
            record: &Record,
            _at: Datetime,
        ) {
            self.count_record();
            match record {
                Record::Post(_) => {
                    let uri = AtUri::record(author.clone(), collection.clone(), rkey);
                    self.insert_post(&uri);
                    self.credit_author_post(author);
                }
                Record::Like(like) => self.apply_like(&like.subject),
                Record::Repost(repost) => self.apply_repost(&repost.subject),
                Record::Follow(follow) => {
                    if self.insert_follow_edge(author, &follow.subject) {
                        self.credit_follows(author);
                        self.credit_followers(&follow.subject);
                    }
                }
                Record::Block(block) => {
                    if self.insert_block_edge(author, &block.subject) {
                        self.credit_blocked_by(&block.subject);
                    }
                }
                // Profiles, feed generator and labeler declarations leave
                // nothing the pipeline reads; unknown lexicons are not
                // indexed by the Bluesky AppView (it cannot decode them, §4).
                Record::Profile(_)
                | Record::FeedGenerator(_)
                | Record::LabelerService(_)
                | Record::Unknown(_) => {}
            }
        }

        /// Whether `a` follows `b`.
        pub(crate) fn follows(&self, a: &Did, b: &Did) -> bool {
            self.follow_edges.contains(&(a.clone(), b.clone()))
        }

        /// Whether `a` blocks `b`.
        pub(crate) fn blocks(&self, a: &Did, b: &Did) -> bool {
            self.block_edges.contains(&(a.clone(), b.clone()))
        }

        /// Every post key with its counters, in key (URI) order.
        pub(crate) fn posts(&self) -> Vec<(String, PostCounters)> {
            let keys = self.posts.keys();
            keys.filter_map(|key| Some((key.clone(), self.post_key(key)?)))
                .collect()
        }

        /// Every actor key with its counters, in key (DID) order.
        pub(crate) fn actors(&self) -> Vec<(Did, ActorCounters)> {
            let keys = self.actors.keys();
            keys.filter_map(|did| Some((did.clone(), self.actor(did)?)))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{FollowRecord, LikeRecord, PostRecord, Record};
    use bsky_atproto::{Datetime, Nsid};

    fn now() -> Datetime {
        Datetime::from_ymd(2024, 4, 15)
            .unwrap()
            .plus_seconds(9 * 3600)
    }

    fn did(name: &str) -> Did {
        Did::plc_from_seed(name.as_bytes())
    }

    fn post_nsid() -> Nsid {
        Nsid::parse(known::POST).unwrap()
    }

    fn setup() -> (AppViewIndex, Did, Did, AtUri) {
        let mut index = AppViewIndex::new();
        let alice = did("alice");
        let bob = did("bob");
        index.register_actor(&alice);
        index.register_actor(&bob);
        index.index_record(
            &alice,
            &post_nsid(),
            "post00000001",
            &Record::Post(PostRecord::simple("hello world", "en", now())),
            now(),
        );
        let uri = AtUri::record(alice.clone(), post_nsid(), "post00000001");
        (index, alice, bob, uri)
    }

    #[test]
    fn posts_likes_reposts_follows_blocks() {
        let (mut index, alice, bob, uri) = setup();
        let counters = |index: &AppViewIndex, did: &Did| index.actor(did).unwrap();
        assert_eq!(index.posts().len(), 1);
        assert_eq!(counters(&index, &alice).posts, 1);

        index.index_record(
            &bob,
            &Nsid::parse(known::LIKE).unwrap(),
            "like00000001",
            &Record::Like(LikeRecord {
                subject: uri.clone(),
                created_at: now(),
            }),
            now(),
        );
        index.index_record(
            &bob,
            &Nsid::parse(known::FOLLOW).unwrap(),
            "follow0000001",
            &Record::Follow(FollowRecord {
                subject: alice.clone(),
                created_at: now(),
            }),
            now(),
        );
        assert_eq!(index.post(&uri).unwrap().like_count, 1);
        assert!(index.follows(&bob, &alice));
        assert!(!index.follows(&alice, &bob));
        assert_eq!(counters(&index, &alice).followers, 1);
        assert_eq!(counters(&index, &bob).follows, 1);

        // Duplicate follow records do not double-count.
        index.index_record(
            &bob,
            &Nsid::parse(known::FOLLOW).unwrap(),
            "follow0000002",
            &Record::Follow(FollowRecord {
                subject: alice.clone(),
                created_at: now(),
            }),
            now(),
        );
        assert_eq!(counters(&index, &alice).followers, 1);

        index.index_record(
            &alice,
            &Nsid::parse(known::BLOCK).unwrap(),
            "block0000001",
            &Record::Block(bsky_atproto::record::BlockRecord {
                subject: bob.clone(),
                created_at: now(),
            }),
            now(),
        );
        assert!(index.blocks(&alice, &bob));
        assert_eq!(counters(&index, &bob).blocked_by, 1);
        assert_eq!(index.records_indexed(), 5);
    }

    #[test]
    fn entity_blocks_roundtrip() {
        let (mut index, alice, _bob, uri) = setup();
        index.apply_like(&uri);
        // Counters round-trip through their compact block.
        let liked = PostCounters {
            like_count: 7,
            ..index.post(&uri).unwrap()
        };
        assert_eq!(
            PostCounters::from_block(&liked.to_block(counter_tag(&uri.to_string()))),
            Some(liked)
        );
        let counters = index.actor(&alice).unwrap();
        assert_eq!(
            ActorCounters::from_block(&counters.to_block(counter_tag(&alice.to_string()))),
            Some(counters)
        );
        assert!(PostCounters::from_block(b"garbage").is_none());
        assert!(ActorCounters::from_block(b"garbage").is_none());
    }

    #[test]
    fn counter_flush_writes_compact_blocks_and_coalesces() {
        let (mut index, _alice, _bob, uri) = setup();
        // Default counters, never bumped: no counter block exists even
        // after a flush.
        index.flush();
        assert!(index.posts.values().all(Option::is_none));
        // Same-day bumps coalesce in the dirty map: first bump dirties,
        // the rest are pure map updates.
        for _ in 0..5 {
            index.apply_like(&uri);
        }
        assert_eq!(index.counter_coalesced_writes(), 4);
        assert_eq!(index.post(&uri).unwrap().like_count, 5, "dirty overlay");
        index.flush();
        assert!(index.dirty_posts.is_empty());
        let block = index.posts[&uri.to_string()].unwrap();
        let block = index.store.get(&block).unwrap();
        assert!(
            block.len() < 40,
            "counter blocks stay compact ({} bytes)",
            block.len()
        );
        assert_eq!(index.post(&uri).unwrap().like_count, 5, "flushed overlay");
        // Counters that return to default drop their block at flush.
        index.update_post_counters(uri.to_string(), |c| *c = PostCounters::default());
        index.flush();
        assert!(
            index.posts[&uri.to_string()].is_none(),
            "default state needs no block"
        );
    }

    #[test]
    fn counter_tag_collision_falls_back_to_full_key() {
        let (mut index, _alice, _bob, uri) = setup();
        index.apply_like(&uri);
        // Forge another entity's counter block that collides byte-for-byte
        // with what the hash-tagged encoding would produce for `uri`.
        let counters = PostCounters {
            like_count: 1,
            repost_count: 0,
        };
        let forged = counters.to_block(counter_tag(&uri.to_string()));
        let forged_cid = Cid::for_cbor(&forged);
        index.store.put(forged_cid, forged);
        index.flush();
        let cid = index.posts[&uri.to_string()].unwrap();
        assert_ne!(cid, forged_cid, "collision must divert to the full key");
        assert_eq!(
            PostCounters::from_block(&index.store.get(&cid).unwrap()),
            Some(counters)
        );
        assert_eq!(index.post(&uri).unwrap().like_count, 1);
    }

    #[test]
    fn paged_store_backend_answers_identically() {
        let build = |store: &StoreConfig, write_back: bool| {
            let mut index = AppViewIndex::with_store(store, write_back);
            let alice = did("alice");
            index.register_actor(&alice);
            for i in 0..40 {
                let rkey = format!("post{i:08}");
                index.index_record(
                    &alice,
                    &post_nsid(),
                    &rkey,
                    &Record::Post(PostRecord::simple(
                        format!("post number {i}"),
                        "en",
                        now().plus_seconds(i),
                    )),
                    now(),
                );
                // Every post gets a counter block.
                index.apply_like(&AtUri::record(alice.clone(), post_nsid(), rkey));
            }
            index.flush();
            index
        };
        let mem = build(&StoreConfig::mem(), true);
        let paged = build(&StoreConfig::paged().page_size(256).resident_pages(1), true);
        assert!(
            paged.store_stats().spilled_bytes > 0,
            "tiny pages must spill: {:?}",
            paged.store_stats()
        );
        assert!(paged.store_stats().resident_bytes < mem.store_stats().resident_bytes);
        assert_eq!(mem.posts(), paged.posts());
        assert_eq!(mem.actors(), paged.actors());
        assert_eq!(mem.posts().len(), 40);
        // The write-back cache is observationally transparent per backend.
        for store in [
            StoreConfig::mem(),
            StoreConfig::paged().page_size(256).resident_pages(1),
        ] {
            let cached = build(&store, true);
            let raw = build(&store, false);
            assert_eq!(cached.posts(), raw.posts());
            assert_eq!(cached.actors(), raw.actors());
            let stats = cached.store_stats();
            assert_eq!(stats.writeback_flushes, 1, "one flush drained the cache");
            assert_eq!(raw.store_stats().writeback_flushes, 0);
        }
    }
}
