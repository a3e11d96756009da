//! The AppView's indices.
//!
//! The AppView consumes the firehose and the label streams and stores what
//! they carry in per-entity indices (§2). The measurement pipeline reads
//! only what ingestion leaves behind: whether a post is indexed (a feed
//! entry hydrates), the labels that found no target, and the counters.
//!
//! ## Store-backed entity state: the hot/cold split
//!
//! Per-entity state — one post per indexed post, one actor per known
//! account — is not held in plain maps. Each entity is split into two
//! halves with very different mutation rates:
//!
//! * **Cold content blocks.** The record payload, identity fields and
//!   labels encode as a DAG-CBOR *content block* in a pluggable
//!   [`bsky_atproto::blockstore::BlockStore`]. Content blocks are rewritten
//!   only by rare events (label changes, handle changes, profile updates,
//!   tombstones); the bulk ingestion volume never touches them. With the
//!   default in-memory store they behave like the old in-memory maps;
//!   with the paged backend cold entities spill to disk and are
//!   CID-verified on read-back.
//! * **Hot counter state.** Likes, reposts and the actor graph counters —
//!   the fields that used to force a full decode → mutate → re-encode →
//!   re-hash → delete+put cycle per event — live in small resident dirty
//!   maps (`PostCounters` / `ActorCounters`). A counter bump is a map
//!   update; `AppViewIndex::flush` (called at day boundaries) encodes
//!   each dirty entity's counters *once* into a compact counter block, so
//!   N same-day bumps cost one encode+put instead of N full-block cycles.
//!   The dirty maps are bounded by one day's touched entities and empty
//!   again after every flush, so steady-state residency does not grow.
//!
//! Because the entity key (AT-URI or DID) is embedded in every content
//! block, content CIDs are unique per entity; counter blocks embed the
//! key's FNV-1a hash (falling back to the full key on a hash-and-value
//! collision), so read-modify-write updates (`delete` old CID, `put` new)
//! can never clobber another entity's block. On top of this the store
//! itself is wrapped in a
//! [`WriteBackStore`] (the
//! `write_back` knob), which coalesces the remaining same-day content-block
//! rewrites into single backend puts at flush time.
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
//! monolithic composition of the same primitives (`index_record`,
//! `process_event`) and every read of entity state live under
//! `#[cfg(test)]` below as the oracle the shard property test in
//! `shards.rs` holds the routing to.

use bsky_atproto::blockstore::{BlockStore, StoreConfig, StoreStats, WriteBackStore};
use bsky_atproto::cbor::{self, raw, Reader, Value};
use bsky_atproto::cid::Cid;
use bsky_atproto::did::{fnv1a_64, FNV_OFFSET};
use bsky_atproto::label::{Label, LabelTarget};
use bsky_atproto::record::{PostRecord, ProfileRecord};
use bsky_atproto::{AtUri, Datetime, Did, Handle};
use std::collections::{BTreeMap, BTreeSet};

/// The cold half of an indexed post: everything except the hot counters,
/// which live in [`PostCounters`] state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PostInfo {
    /// The post's `at://` URI (its DID authority is the author).
    pub(crate) uri: AtUri,
    /// The record contents.
    pub(crate) record: PostRecord,
    /// When the AppView indexed it.
    pub(crate) indexed_at: Datetime,
    /// Labels currently applied (source DID, value).
    pub(crate) labels: Vec<(Did, String)>,
}

impl PostInfo {
    /// Encode as a DAG-CBOR content block: the positional array `[uri,
    /// record, indexedAt, labels]`. Positional fields drop the per-block
    /// key overhead of a string-keyed map, and the author is not stored at
    /// all — a post's author *is* the DID authority of its `at://` URI.
    pub(crate) fn content_block(&self) -> Vec<u8> {
        post_content_block(&self.uri, &self.record, self.indexed_at, &self.labels)
    }

    /// Decode a content block. `None` on any mismatch — the store contract
    /// already maps corrupt blocks to "absent", and the index treats an
    /// undecodable entity the same way. The format has one writer,
    /// [`PostInfo::content_block`], so this reads exactly what that writes
    /// (one typed pass, see `bsky_atproto::cbor`) and nothing else.
    pub(crate) fn from_content(bytes: &[u8]) -> Option<PostInfo> {
        let mut r = Reader::new(bytes);
        if r.array()? != 4 {
            return None;
        }
        let uri = AtUri::parse(r.text()?).ok()?;
        let record = PostRecord::decode_from(&mut r)?;
        let indexed_at = Datetime(r.int()?);
        let labels = decode_labels(&mut r)?;
        r.at_end().then_some(PostInfo {
            uri,
            record,
            indexed_at,
            labels,
        })
    }
}

/// Hot mutable counters of a post — the per-entity counter state split out
/// of the immutable content block.
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

/// The cold half of an indexed actor (account): identity fields, profile,
/// labels and tombstone flag — not the hot graph counters, which live in
/// [`ActorCounters`] state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ActorInfo {
    /// The account DID.
    pub(crate) did: Did,
    /// Current handle.
    pub(crate) handle: Handle,
    /// Profile record, if one was published.
    pub(crate) profile: Option<ProfileRecord>,
    /// Labels applied to the whole account.
    pub(crate) account_labels: Vec<(Did, String)>,
    /// Whether the account has been tombstoned.
    pub(crate) deleted: bool,
}

impl ActorInfo {
    fn fresh(did: &Did, handle: &Handle) -> ActorInfo {
        ActorInfo {
            did: did.clone(),
            handle: handle.clone(),
            profile: None,
            account_labels: Vec::new(),
            deleted: false,
        }
    }

    /// Encode as a DAG-CBOR content block: the positional array `[did,
    /// handle, profile, accountLabels, deleted]`, as in
    /// [`PostInfo::content_block`].
    pub(crate) fn content_block(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(192);
        raw::array_head(5, &mut out);
        encode_did(&self.did, &mut out);
        raw::text(self.handle.as_str(), &mut out);
        match &self.profile {
            Some(profile) => profile.encode_into(&mut out),
            None => raw::null(&mut out),
        }
        encode_labels(&self.account_labels, &mut out);
        raw::bool(self.deleted, &mut out);
        out
    }

    /// Decode a content block (`None` on any mismatch; as with
    /// [`PostInfo::from_content`], exactly what the one writer writes).
    pub(crate) fn from_content(bytes: &[u8]) -> Option<ActorInfo> {
        let mut r = Reader::new(bytes);
        if r.array()? != 5 {
            return None;
        }
        let did = Did::parse(r.text()?).ok()?;
        let handle = Handle::parse(r.text()?).ok()?;
        let profile = if r.null() {
            None
        } else {
            Some(ProfileRecord::decode_from(&mut r)?)
        };
        let account_labels = decode_labels(&mut r)?;
        let deleted = r.bool()?;
        r.at_end().then_some(ActorInfo {
            did,
            handle,
            profile,
            account_labels,
            deleted,
        })
    }
}

/// Write (or rewrite) the cold content block of the entity keyed `key` in
/// `entities` (the post or the actor map). Counter state is deliberately
/// untouched.
fn save_content(
    entities: &mut BTreeMap<String, EntityRef>,
    store: &mut dyn BlockStore,
    key: &str,
    bytes: Vec<u8>,
) {
    let cid = Cid::for_cbor(&bytes);
    if let Some(entry) = entities.get_mut(key) {
        let old = entry.content;
        if old != cid {
            entry.content = cid;
            store.delete(&old);
            store.put(cid, bytes);
        }
    } else {
        entities.insert(key.to_string(), EntityRef::content_only(cid));
        store.put(cid, bytes);
    }
}

/// A post's cold content block, `[uri, record, indexedAt, labels]`, encoded
/// from borrowed parts in one typed pass: what [`PostInfo::content_block`]
/// writes, without needing a `PostInfo` (ingestion has only the borrowed
/// record).
fn post_content_block(
    uri: &AtUri,
    record: &PostRecord,
    indexed_at: Datetime,
    labels: &[(Did, String)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    raw::array_head(4, &mut out);
    raw::text_head(uri.string_len(), &mut out);
    uri.write_to(&mut out);
    record.encode_into(&mut out);
    raw::int(indexed_at.timestamp(), &mut out);
    encode_labels(labels, &mut out);
    out
}

fn encode_did(did: &Did, out: &mut Vec<u8>) {
    raw::text_head(did.string_len(), out);
    did.write_to(out);
}

/// Labels as an array of `[source DID, value]` pairs.
fn encode_labels(labels: &[(Did, String)], out: &mut Vec<u8>) {
    raw::array_head(labels.len() as u64, out);
    for (src, value) in labels {
        raw::array_head(2, out);
        encode_did(src, out);
        raw::text(value, out);
    }
}

fn decode_labels(r: &mut Reader<'_>) -> Option<Vec<(Did, String)>> {
    let len = r.array()?;
    let mut labels = Vec::with_capacity(len);
    for _ in 0..len {
        if r.array()? != 2 {
            return None;
        }
        labels.push((Did::parse(r.text()?).ok()?, r.text()?.to_string()));
    }
    Some(labels)
}

/// Where one entity's blocks live: the cold content block plus the
/// optional flushed counter block (absent while counters are default or
/// only dirty in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntityRef {
    content: Cid,
    counters: Option<Cid>,
}

impl EntityRef {
    fn content_only(content: Cid) -> EntityRef {
        EntityRef {
            content,
            counters: None,
        }
    }
}

/// The AppView's combined index (one entity shard of it, when owned by
/// [`crate::shards::AppViewShards`]).
///
/// Entity state lives as CBOR blocks in the backing store, split hot/cold;
/// see the module docs for the storage layout and the primitive/composed
/// ingestion split. Counter mutations accumulate in resident dirty maps
/// until [`AppViewIndex::flush`] — call it at epoch (day) boundaries and
/// before reading [`AppViewIndex::store_stats`].
#[derive(Debug)]
pub(crate) struct AppViewIndex {
    /// Post key (AT-URI string) → block CIDs.
    posts: BTreeMap<String, EntityRef>,
    /// Actor key (DID string) → block CIDs.
    actors: BTreeMap<String, EntityRef>,
    store: Box<dyn BlockStore>,
    /// Post counter state dirtied since the last flush.
    dirty_posts: BTreeMap<String, PostCounters>,
    /// Actor counter state dirtied since the last flush.
    dirty_actors: BTreeMap<String, ActorCounters>,
    /// `(follower, followed)` DID pairs, keyed by the follower.
    follow_edges: BTreeSet<(String, String)>,
    /// `(blocker, blocked)` DID pairs, keyed by the blocker.
    block_edges: BTreeSet<(String, String)>,
    records_indexed: u64,
    labels_ingested: u64,
    labels_preindex: u64,
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
            labels_ingested: 0,
            labels_preindex: 0,
            counter_coalesced_writes: 0,
        }
    }

    // -- block plumbing ----------------------------------------------------

    /// A post's flushed counter state: its counter block, or defaults when
    /// it has none.
    fn flushed_post_counters(&self, entry: &EntityRef) -> PostCounters {
        entry
            .counters
            .and_then(|cid| self.store.get(&cid))
            .and_then(|bytes| PostCounters::from_block(&bytes))
            .unwrap_or_default()
    }

    fn flushed_actor_counters(&self, entry: &EntityRef) -> ActorCounters {
        entry
            .counters
            .and_then(|cid| self.store.get(&cid))
            .and_then(|bytes| ActorCounters::from_block(&bytes))
            .unwrap_or_default()
    }

    fn load_post_key(&self, key: &str) -> Option<PostInfo> {
        let entry = self.posts.get(key)?;
        PostInfo::from_content(&self.store.get(&entry.content)?)
    }

    fn load_actor_key(&self, key: &str) -> Option<ActorInfo> {
        let entry = self.actors.get(key)?;
        ActorInfo::from_content(&self.store.get(&entry.content)?)
    }

    /// Mutate a post's hot counters — a resident map update, no block
    /// traffic (no-op for unknown posts, like every counter primitive).
    /// The key is taken owned: a first bump of the day moves it into the
    /// dirty map, so rendering it is the only allocation of a counter bump.
    fn update_post_counters(&mut self, key: String, apply: impl FnOnce(&mut PostCounters)) {
        let Some(entry) = self.posts.get(&key).copied() else {
            return;
        };
        if let Some(counters) = self.dirty_posts.get_mut(&key) {
            apply(counters);
            self.counter_coalesced_writes += 1;
            return;
        }
        let mut counters = self.flushed_post_counters(&entry);
        apply(&mut counters);
        self.dirty_posts.insert(key, counters);
    }

    fn update_actor_counters(&mut self, key: String, apply: impl FnOnce(&mut ActorCounters)) {
        let Some(entry) = self.actors.get(&key).copied() else {
            return;
        };
        if let Some(counters) = self.dirty_actors.get_mut(&key) {
            apply(counters);
            self.counter_coalesced_writes += 1;
            return;
        }
        let mut counters = self.flushed_actor_counters(&entry);
        apply(&mut counters);
        self.dirty_actors.insert(key, counters);
    }

    /// Replace a post's counter state wholesale (the insert/replace path).
    fn set_post_counters(&mut self, key: String, counters: PostCounters) {
        if counters.is_default()
            && !self.dirty_posts.contains_key(&key)
            && self.posts.get(&key).is_none_or(|e| e.counters.is_none())
        {
            return; // fresh default state needs no tracking at all
        }
        self.dirty_posts.insert(key, counters);
    }

    /// Rewrite a post's cold content (labels are the only mutable cold
    /// field) through a full load/apply/save — the rare path.
    fn update_post_content(&mut self, key: &str, apply: impl FnOnce(&mut PostInfo)) -> bool {
        match self.load_post_key(key) {
            Some(mut info) => {
                apply(&mut info);
                save_content(
                    &mut self.posts,
                    self.store.as_mut(),
                    key,
                    info.content_block(),
                );
                true
            }
            None => false,
        }
    }

    fn update_actor_content(&mut self, key: &str, apply: impl FnOnce(&mut ActorInfo)) -> bool {
        match self.load_actor_key(key) {
            Some(mut info) => {
                apply(&mut info);
                save_content(
                    &mut self.actors,
                    self.store.as_mut(),
                    key,
                    info.content_block(),
                );
                true
            }
            None => false,
        }
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
            let Some(entry) = self.posts.get(&key).copied() else {
                continue;
            };
            let new = if counters.is_default() {
                if let Some(old) = entry.counters {
                    self.store.delete(&old);
                }
                None
            } else {
                self.put_counter_block(&key, entry.counters, |tag| counters.to_block(tag))
            };
            self.posts.get_mut(&key).expect("entry exists").counters = new;
        }
        for (key, counters) in std::mem::take(&mut self.dirty_actors) {
            let Some(entry) = self.actors.get(&key).copied() else {
                continue;
            };
            let new = if counters.is_default() {
                if let Some(old) = entry.counters {
                    self.store.delete(&old);
                }
                None
            } else {
                self.put_counter_block(&key, entry.counters, |tag| counters.to_block(tag))
            };
            self.actors.get_mut(&key).expect("entry exists").counters = new;
        }
        self.store.flush();
        // The day boundary ends the hot window: demote sealed pages so
        // steady-state residency is the open page plus the dirty maps.
        self.store.evict_cold();
    }

    // -- ingestion primitives (the shard router's surface) -----------------

    /// Register an account (from an identity event or backfill). Targets
    /// the actor entity only.
    pub(crate) fn upsert_actor(&mut self, did: &Did, handle: &Handle) {
        let key = did.as_string();
        if !self.update_actor_content(&key, |a| a.handle = handle.clone()) {
            let fresh = ActorInfo::fresh(did, handle).content_block();
            save_content(&mut self.actors, self.store.as_mut(), &key, fresh);
        }
    }

    /// Count one indexed record (part of every [`AppViewIndex::index_record`]).
    pub(crate) fn count_record(&mut self) {
        self.records_indexed += 1;
    }

    /// Insert (or replace) the post entity of a freshly ingested record:
    /// zero counters, no labels, the content block encoded straight from
    /// the borrowed record. Targets the post entity only — the author's
    /// post counter is [`AppViewIndex::credit_author_post`].
    pub(crate) fn insert_post(&mut self, uri: &AtUri, record: &PostRecord, at: Datetime) {
        let key = uri.as_string();
        let bytes = post_content_block(uri, record, at, &[]);
        save_content(&mut self.posts, self.store.as_mut(), &key, bytes);
        self.set_post_counters(key, PostCounters::default());
    }

    /// Credit one post to an author's counter (no-op for unknown actors,
    /// like the live AppView's denormalized counts).
    pub(crate) fn credit_author_post(&mut self, author: &Did) {
        self.update_actor_counters(author.as_string(), |a| a.posts += 1);
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
            .insert((follower.as_string(), followed.as_string()))
    }

    /// Credit one follow to the follower's counter (no-op when unknown).
    pub(crate) fn credit_follows(&mut self, follower: &Did) {
        self.update_actor_counters(follower.as_string(), |a| a.follows += 1);
    }

    /// Credit one follower to the followed account's counter.
    pub(crate) fn credit_followers(&mut self, followed: &Did) {
        self.update_actor_counters(followed.as_string(), |a| a.followers += 1);
    }

    /// Insert a block edge (keyed by the blocker). Returns `true` when new.
    pub(crate) fn insert_block_edge(&mut self, blocker: &Did, blocked: &Did) -> bool {
        self.block_edges
            .insert((blocker.as_string(), blocked.as_string()))
    }

    /// Credit one block against the blocked account's counter.
    pub(crate) fn credit_blocked_by(&mut self, blocked: &Did) {
        self.update_actor_counters(blocked.as_string(), |a| a.blocked_by += 1);
    }

    /// Attach a profile record to an actor (no-op when unknown).
    pub(crate) fn set_profile(&mut self, author: &Did, profile: &ProfileRecord) {
        self.update_actor_content(&author.as_string(), |a| a.profile = Some(profile.clone()));
    }

    /// Mark an account tombstoned (no-op when unknown).
    pub(crate) fn mark_deleted(&mut self, did: &Did) {
        self.update_actor_content(&did.as_string(), |a| a.deleted = true);
    }

    /// Purge every post authored by `did` from this index's post map
    /// (tombstone handling; the author's post counter is deliberately
    /// untouched, like the monolithic path).
    pub(crate) fn purge_posts_of(&mut self, did: &Did) {
        let prefix = format!("at://{did}/");
        let keys: Vec<String> = self
            .posts
            .range(prefix.clone()..format!("{prefix}\u{10FFFF}"))
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            self.dirty_posts.remove(&key);
            if let Some(entry) = self.posts.remove(&key) {
                self.store.delete(&entry.content);
                if let Some(cid) = entry.counters {
                    self.store.delete(&cid);
                }
            }
        }
    }

    // -- composed ingestion (the monolithic entry points) ------------------

    /// Ingest a label from a labeler stream, applying or rescinding it.
    ///
    /// A label whose target the AppView has not indexed (it arrived before
    /// the post, or the post was deleted) cannot be applied; it is counted
    /// into [`AppViewIndex::labels_preindex`] instead of vanishing silently.
    pub(crate) fn ingest_label(&mut self, label: &Label) {
        self.labels_ingested += 1;
        let entry = (label.src.clone(), label.value.clone());
        let negated = label.negated;
        let apply = move |labels: &mut Vec<(Did, String)>| {
            if negated {
                labels.retain(|e| e != &entry);
            } else if !labels.contains(&entry) {
                labels.push(entry);
            }
        };
        match &label.target {
            LabelTarget::Record(uri) => {
                if !self.update_post_content(&uri.as_string(), |post| apply(&mut post.labels)) {
                    self.labels_preindex += 1;
                }
            }
            LabelTarget::Account(did) | LabelTarget::ProfileMedia(did) => {
                if !self.update_actor_content(&did.as_string(), |actor| {
                    apply(&mut actor.account_labels)
                }) {
                    self.labels_preindex += 1;
                }
            }
        }
    }

    // -- reads ---------------------------------------------------------------

    /// Whether a post is indexed — a key-index probe, no block decode.
    pub(crate) fn has_post(&self, uri: &AtUri) -> bool {
        self.posts.contains_key(&uri.as_string())
    }

    /// Number of indexed posts.
    pub(crate) fn post_count(&self) -> usize {
        self.posts.len()
    }

    /// Number of follow edges.
    pub(crate) fn follow_edge_count(&self) -> usize {
        self.follow_edges.len()
    }

    /// Total labels ingested (including negations).
    pub(crate) fn labels_ingested(&self) -> u64 {
        self.labels_ingested
    }

    /// Labels that arrived before the entity they target was indexed (or
    /// after it was deleted) and could not be applied — counted, never
    /// silently dropped.
    pub(crate) fn labels_preindex(&self) -> u64 {
        self.labels_preindex
    }

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
    /// writes the hot/cold split coalesced away relative to the old
    /// one-block-per-entity design.
    pub(crate) fn counter_coalesced_writes(&self) -> u64 {
        self.counter_coalesced_writes
    }
}

// The monolithic index as an oracle: composed ingestion and every read of
// entity state. Production ingests through `AppViewShards` and reads only
// `has_post` and the counts; the shard property suite (and the unit tests
// below) hold it to this.
#[cfg(test)]
mod oracle {
    use super::*;
    use bsky_atproto::firehose::{Event, EventBody};
    use bsky_atproto::record::Record;
    use bsky_atproto::Nsid;

    impl AppViewIndex {
        /// An empty index over the in-memory block store with the write-back
        /// cache on (the standard configuration).
        pub(crate) fn new() -> AppViewIndex {
            AppViewIndex::with_store(&StoreConfig::default(), true)
        }

        /// The freshest counter state of a post: dirty map first, then the
        /// flushed counter block, then defaults.
        fn post_counters_for(&self, key: &str, entry: &EntityRef) -> PostCounters {
            match self.dirty_posts.get(key) {
                Some(counters) => *counters,
                None => self.flushed_post_counters(entry),
            }
        }

        fn actor_counters_for(&self, key: &str, entry: &EntityRef) -> ActorCounters {
            match self.dirty_actors.get(key) {
                Some(counters) => *counters,
                None => self.flushed_actor_counters(entry),
            }
        }

        /// A post's content and its freshest counters (decodes its blocks;
        /// spilled blocks page in verified). Reads never observe a flush
        /// boundary.
        pub(crate) fn post(&self, uri: &AtUri) -> Option<(PostInfo, PostCounters)> {
            self.post_key(&uri.as_string())
        }

        fn post_key(&self, key: &str) -> Option<(PostInfo, PostCounters)> {
            let entry = self.posts.get(key)?;
            Some((self.load_post_key(key)?, self.post_counters_for(key, entry)))
        }

        /// An actor's content and its freshest counters.
        pub(crate) fn actor(&self, did: &Did) -> Option<(ActorInfo, ActorCounters)> {
            self.actor_key(&did.as_string())
        }

        fn actor_key(&self, key: &str) -> Option<(ActorInfo, ActorCounters)> {
            let entry = self.actors.get(key)?;
            Some((
                self.load_actor_key(key)?,
                self.actor_counters_for(key, entry),
            ))
        }

        /// Number of known actors.
        pub(crate) fn actor_count(&self) -> usize {
            self.actors.len()
        }

        /// Index a record authored by `author` (the content counterpart of a
        /// firehose commit op). Composed from the per-entity primitives above.
        pub(crate) fn index_record(
            &mut self,
            author: &Did,
            collection: &Nsid,
            rkey: &str,
            record: &Record,
            at: Datetime,
        ) {
            self.count_record();
            match record {
                Record::Post(post) => {
                    let uri = AtUri::record(author.clone(), collection.clone(), rkey);
                    self.insert_post(&uri, post, at);
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
                Record::Profile(profile) => self.set_profile(author, profile),
                // Feed generator and labeler declarations are tracked by their
                // dedicated registries; unknown lexicons are not indexed by the
                // Bluesky AppView (it cannot decode them, §4).
                Record::FeedGenerator(_) | Record::LabelerService(_) | Record::Unknown(_) => {}
            }
        }

        /// Process a firehose event's non-content effects (handle changes,
        /// identity updates, tombstones).
        pub(crate) fn process_event(&mut self, event: &Event) {
            match &event.body {
                EventBody::HandleChange { did, handle } => {
                    self.upsert_actor(did, handle);
                }
                EventBody::Tombstone { did } => {
                    self.mark_deleted(did);
                    self.purge_posts_of(did);
                }
                EventBody::Commit { .. } | EventBody::Identity { .. } | EventBody::Info { .. } => {}
            }
        }

        /// Whether `a` follows `b`.
        pub(crate) fn follows(&self, a: &Did, b: &Did) -> bool {
            self.follow_edges.contains(&(a.as_string(), b.as_string()))
        }

        /// Whether `a` blocks `b`.
        pub(crate) fn blocks(&self, a: &Did, b: &Did) -> bool {
            self.block_edges.contains(&(a.as_string(), b.as_string()))
        }

        /// All posts, decoded, in key (URI) order.
        pub(crate) fn posts(&self) -> Vec<(PostInfo, PostCounters)> {
            self.posts
                .keys()
                .filter_map(|key| self.post_key(key))
                .collect()
        }

        /// All actors, decoded, in key (DID) order.
        pub(crate) fn actors(&self) -> Vec<(ActorInfo, ActorCounters)> {
            self.actors
                .keys()
                .filter_map(|key| self.actor_key(key))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::firehose::{Event, EventBody};
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{FollowRecord, LikeRecord, Record};
    use bsky_atproto::Nsid;

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
        index.upsert_actor(&alice, &Handle::parse("alice.bsky.social").unwrap());
        index.upsert_actor(&bob, &Handle::parse("bob.bsky.social").unwrap());
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
        let counters = |index: &AppViewIndex, did: &Did| index.actor(did).unwrap().1;
        assert_eq!(index.post_count(), 1);
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
        assert_eq!(index.post(&uri).unwrap().1.like_count, 1);
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
    fn labels_apply_and_rescind() {
        let (mut index, _alice, _bob, uri) = setup();
        let labeler = did("labeler");
        let label = Label::new(
            labeler.clone(),
            LabelTarget::Record(uri.clone()),
            "porn",
            now(),
        )
        .unwrap();
        let labels = |index: &AppViewIndex| index.post(&uri).unwrap().0.labels;
        index.ingest_label(&label);
        assert_eq!(labels(&index).len(), 1);
        // Duplicate application is idempotent.
        index.ingest_label(&label);
        assert_eq!(labels(&index).len(), 1);
        index.ingest_label(&label.negation(now()));
        assert!(labels(&index).is_empty());
        assert_eq!(index.labels_ingested(), 3);
        assert_eq!(index.labels_preindex(), 0);

        // Account-level labels.
        let account_label =
            Label::new(labeler, LabelTarget::Account(did("alice")), "spam", now()).unwrap();
        index.ingest_label(&account_label);
        assert_eq!(
            index.actor(&did("alice")).unwrap().0.account_labels.len(),
            1
        );
    }

    #[test]
    fn tombstone_purges_posts() {
        let (mut index, alice, _bob, uri) = setup();
        let event = Event {
            seq: 1,
            time: now(),
            body: EventBody::Tombstone { did: alice.clone() },
        };
        index.process_event(&event);
        assert!(index.post(&uri).is_none());
        assert!(!index.has_post(&uri));
        assert!(index.actor(&alice).unwrap().0.deleted);
    }

    #[test]
    fn handle_change_events_update_actors() {
        let (mut index, alice, _bob, _uri) = setup();
        index.process_event(&Event {
            seq: 2,
            time: now(),
            body: EventBody::HandleChange {
                did: alice.clone(),
                handle: Handle::parse("alice.example.com").unwrap(),
            },
        });
        assert_eq!(
            index.actor(&alice).unwrap().0.handle.as_str(),
            "alice.example.com"
        );
    }

    #[test]
    fn content_blocks_match_their_value_built_forms() {
        // The typed content-block writers against the generic encoder over
        // the `Value` the blocks used to be built as, on seeded random
        // entities; and the typed readers take back exactly what was
        // written.
        use bsky_atproto::record::{Embed, ImageEmbed, MediaKind};
        use bsky_simnet::SimRng;
        fn lowercase(rng: &mut SimRng, min_len: usize, max_len: usize) -> String {
            let len = rng.range(min_len..max_len + 1);
            (0..len)
                .map(|_| rng.range(b'a'..b'z' + 1) as char)
                .collect()
        }
        let record_value = |record: Record| cbor::decode(&record.to_cbor()).unwrap();
        fn labels_value(labels: &[(Did, String)]) -> Value {
            Value::Array(
                labels
                    .iter()
                    .map(|(src, value)| {
                        Value::Array(vec![Value::text(src.to_string()), Value::text(value)])
                    })
                    .collect(),
            )
        }
        let mut rng = SimRng::new(0xb10c);
        let arb_labels = |rng: &mut SimRng| -> Vec<(Did, String)> {
            (0..rng.range(0..3))
                .map(|_| (did(&lowercase(rng, 1, 8)), lowercase(rng, 0, 30)))
                .collect()
        };
        for round in 0..300 {
            let author = match round % 3 {
                0 => Did::web(&format!("{}.example.org", lowercase(&mut rng, 1, 30))).unwrap(),
                _ => did(&lowercase(&mut rng, 1, 8)),
            };
            let created_at = now().plus_seconds(rng.range(0..1 << 24));
            let embed = match round % 4 {
                0 => Some(Embed::Images(vec![
                    ImageEmbed {
                        alt: None,
                        kind: MediaKind::GifTenor,
                    },
                    ImageEmbed {
                        alt: Some(lowercase(&mut rng, 0, 300)),
                        kind: MediaKind::Artwork,
                    },
                ])),
                1 => Some(Embed::Record(AtUri::record(
                    did("quoted"),
                    post_nsid(),
                    lowercase(&mut rng, 1, 13),
                ))),
                2 => Some(Embed::External {
                    uri: format!("https://example.org/{}", lowercase(&mut rng, 0, 40)),
                }),
                _ => None,
            };
            let post = PostInfo {
                uri: AtUri::record(author.clone(), post_nsid(), lowercase(&mut rng, 1, 13)),
                record: PostRecord {
                    text: lowercase(&mut rng, 0, 300),
                    created_at,
                    langs: (0..rng.range(0..3))
                        .map(|_| lowercase(&mut rng, 2, 2))
                        .collect(),
                    reply_parent: (round % 5 == 0)
                        .then(|| AtUri::record(did("parent"), post_nsid(), "p00001s00")),
                    embed,
                    tags: (0..rng.range(0..3))
                        .map(|_| lowercase(&mut rng, 1, 12))
                        .collect(),
                },
                indexed_at: Datetime(rng.range(i64::MIN..i64::MAX) >> (round % 40)),
                labels: arb_labels(&mut rng),
            };
            let block = post.content_block();
            assert_eq!(
                block,
                cbor::encode(&Value::Array(vec![
                    Value::text(post.uri.to_string()),
                    record_value(Record::Post(post.record.clone())),
                    Value::Int(post.indexed_at.timestamp()),
                    labels_value(&post.labels),
                ]))
            );
            assert_eq!(PostInfo::from_content(&block), Some(post));

            let actor = ActorInfo {
                did: author,
                handle: Handle::parse(&format!("{}.bsky.social", lowercase(&mut rng, 1, 18)))
                    .unwrap(),
                profile: (round % 3 != 1).then(|| ProfileRecord {
                    display_name: lowercase(&mut rng, 0, 40),
                    description: lowercase(&mut rng, 0, 300),
                    has_avatar: round % 2 == 0,
                    has_banner: round % 4 == 0,
                    created_at,
                }),
                account_labels: arb_labels(&mut rng),
                deleted: round % 7 == 0,
            };
            let block = actor.content_block();
            assert_eq!(
                block,
                cbor::encode(&Value::Array(vec![
                    Value::text(actor.did.to_string()),
                    Value::text(actor.handle.as_str()),
                    match &actor.profile {
                        Some(profile) => record_value(Record::Profile(profile.clone())),
                        None => Value::Null,
                    },
                    labels_value(&actor.account_labels),
                    Value::Bool(actor.deleted),
                ]))
            );
            assert_eq!(ActorInfo::from_content(&block), Some(actor));
            // One writer, one reader: trailing bytes or a cut block is not
            // a content block.
            let mut longer = block.clone();
            longer.push(0xf6);
            assert!(ActorInfo::from_content(&longer).is_none());
            assert!(ActorInfo::from_content(&block[..block.len() - 1]).is_none());
        }
    }

    #[test]
    fn entity_blocks_roundtrip() {
        let (index, alice, _bob, uri) = setup();
        let (post, counters) = index.post(&uri).unwrap();
        assert_eq!(
            PostInfo::from_content(&post.content_block()),
            Some(post.clone())
        );
        let mut labeled = post;
        labeled.labels.push((did("labeler"), "spam".into()));
        assert_eq!(
            PostInfo::from_content(&labeled.content_block()),
            Some(labeled.clone())
        );
        // Counters round-trip through their own compact block, content
        // through its own.
        let liked = PostCounters {
            like_count: 7,
            ..counters
        };
        assert_eq!(
            PostCounters::from_block(&liked.to_block(counter_tag(&labeled.uri.to_string()))),
            Some(liked)
        );
        let (actor, counters) = index.actor(&alice).unwrap();
        assert_eq!(
            ActorInfo::from_content(&actor.content_block()),
            Some(actor.clone())
        );
        assert_eq!(
            ActorCounters::from_block(&counters.to_block(counter_tag(&actor.did.to_string()))),
            Some(counters)
        );
        assert!(PostInfo::from_content(b"garbage").is_none());
        assert!(ActorInfo::from_content(b"garbage").is_none());
        assert!(PostCounters::from_block(b"garbage").is_none());
        assert!(ActorCounters::from_block(b"garbage").is_none());
    }

    #[test]
    fn counter_flush_writes_compact_blocks_and_coalesces() {
        let (mut index, _alice, bob, uri) = setup();
        // Default counters, never bumped: no counter block exists even
        // after a flush.
        index.flush();
        assert!(index.posts.values().all(|e| e.counters.is_none()));
        // Same-day bumps coalesce in the dirty map: first bump dirties,
        // the rest are pure map updates.
        for _ in 0..5 {
            index.apply_like(&uri);
        }
        assert_eq!(index.counter_coalesced_writes(), 4);
        assert_eq!(index.post(&uri).unwrap().1.like_count, 5, "dirty overlay");
        index.flush();
        assert!(index.dirty_posts.is_empty());
        let entry = index.posts.get(&uri.to_string()).copied().unwrap();
        let block = index.store.get(&entry.counters.unwrap()).unwrap();
        assert!(
            block.len() < 40,
            "counter blocks stay compact ({} bytes)",
            block.len()
        );
        assert_eq!(index.post(&uri).unwrap().1.like_count, 5, "flushed overlay");
        // Counters that return to default drop their block at flush.
        index.update_post_counters(uri.to_string(), |c| *c = PostCounters::default());
        index.flush();
        let entry = index.posts.get(&uri.to_string()).copied().unwrap();
        assert!(entry.counters.is_none(), "default state needs no block");
        let _ = bob;
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
        let entry = index.posts.get(&uri.to_string()).copied().unwrap();
        let cid = entry.counters.unwrap();
        assert_ne!(cid, forged_cid, "collision must divert to the full key");
        assert_eq!(
            PostCounters::from_block(&index.store.get(&cid).unwrap()),
            Some(counters)
        );
        assert_eq!(index.post(&uri).unwrap().1.like_count, 1);
    }

    #[test]
    fn paged_store_backend_answers_identically() {
        use bsky_atproto::blockstore::StoreConfig;
        let build = |store: &StoreConfig, write_back: bool| {
            let mut index = AppViewIndex::with_store(store, write_back);
            let alice = did("alice");
            index.upsert_actor(&alice, &Handle::parse("alice.bsky.social").unwrap());
            for i in 0..40 {
                index.index_record(
                    &alice,
                    &post_nsid(),
                    &format!("post{i:08}"),
                    &Record::Post(PostRecord::simple(
                        format!("post number {i}"),
                        "en",
                        now().plus_seconds(i),
                    )),
                    now(),
                );
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
