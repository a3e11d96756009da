//! Entity-sharded AppView indices.
//!
//! [`AppViewShards`] partitions the AppView's state by *entity hash*:
//!
//! * **posts** live on the shard selected by the FNV-1a hash of their
//!   `at://` URI;
//! * **actors** and their outgoing **graph edges** (follows, blocks — keyed
//!   by the originating DID) live on the shard selected by
//!   [`Did::shard_hash`] — the very hash the workload's `PopulationPlan`
//!   partitions the population by, so the two sharding layers agree on DID
//!   ownership.
//!
//! Each shard is a complete `AppViewIndex` over its own block store, so a
//! shard's cold entities spill independently (paged backend) and the
//! per-shard resident footprint is `1/N` of the monolithic index — the last
//! per-shard memory ceiling the ROADMAP's NUMA item named.
//!
//! ## Correctness contract
//!
//! A logical ingestion step decomposes into per-entity *primitives* (see
//! [`crate::index`]), each routed to the shard owning the touched entity.
//! Decisions that gate cross-entity effects (edge dedup for follow/block
//! counters) are made on the edge-owning shard, so they are identical for
//! every shard count. The shard set therefore holds exactly the monolithic
//! index's state: counts, per-entity state and label sets, spread over
//! shards that are never collapsed into one index. The property test below
//! pins this for random event/label interleavings across shard counts 1,
//! 2, 4 and 7.

use crate::index::AppViewIndex;
use bsky_atproto::blockstore::{StoreConfig, StoreStats};
use bsky_atproto::firehose::{Event, EventBody};
use bsky_atproto::label::{Label, LabelTarget};
use bsky_atproto::record::{ProfileRecord, Record};
use bsky_atproto::{AtUri, Datetime, Did, Handle, Nsid};

/// The AppView's indices, sharded by entity hash. A 1-shard set behaves
/// exactly like a bare `AppViewIndex`; see the module docs for the
/// routing contract.
#[derive(Debug)]
pub struct AppViewShards {
    shards: Vec<AppViewIndex>,
}

impl AppViewShards {
    /// `count` shards (clamped to at least 1), each over its own block
    /// store built from `store`, each wrapped in a write-back cache when
    /// `write_back` is set.
    pub fn with_shards(count: usize, store: &StoreConfig, write_back: bool) -> AppViewShards {
        AppViewShards {
            shards: (0..count.max(1))
                .map(|_| AppViewIndex::with_store(store, write_back))
                .collect(),
        }
    }

    /// Flush every shard's dirty counter state and write-back buffer (see
    /// `AppViewIndex::flush`); called at day boundaries.
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            shard.flush();
        }
    }

    /// The shard owning a post URI.
    fn post_home(&self, uri: &AtUri) -> usize {
        (uri.shard_hash() % self.shards.len() as u64) as usize
    }

    /// The shard owning an actor DID (and its outgoing edges).
    fn actor_home(&self, did: &Did) -> usize {
        (did.shard_hash() % self.shards.len() as u64) as usize
    }

    // -- ingestion ---------------------------------------------------------

    /// Register an account (routed to the actor's shard).
    pub fn upsert_actor(&mut self, did: &Did, handle: &Handle) {
        let home = self.actor_home(did);
        self.shards[home].upsert_actor(did, handle);
    }

    /// Index a record: the record counter lands on the author's shard and
    /// each per-entity effect is routed to the shard owning that entity.
    pub fn index_record(
        &mut self,
        author: &Did,
        collection: &Nsid,
        rkey: &str,
        record: &Record,
        at: Datetime,
    ) {
        let author_home = self.actor_home(author);
        self.shards[author_home].count_record();
        match record {
            Record::Post(post) => {
                let uri = AtUri::record(author.clone(), collection.clone(), rkey);
                let home = self.post_home(&uri);
                self.shards[home].insert_post(&uri, post, at);
                self.shards[author_home].credit_author_post(author);
            }
            Record::Like(like) => {
                let home = self.post_home(&like.subject);
                self.shards[home].apply_like(&like.subject);
            }
            Record::Repost(repost) => {
                let home = self.post_home(&repost.subject);
                self.shards[home].apply_repost(&repost.subject);
            }
            Record::Follow(follow) => {
                // The edge-owning shard (the follower's) decides freshness;
                // the endpoint counters then land wherever each actor lives.
                if self.shards[author_home].insert_follow_edge(author, &follow.subject) {
                    self.shards[author_home].credit_follows(author);
                    let target_home = self.actor_home(&follow.subject);
                    self.shards[target_home].credit_followers(&follow.subject);
                }
            }
            Record::Block(block) => {
                if self.shards[author_home].insert_block_edge(author, &block.subject) {
                    let target_home = self.actor_home(&block.subject);
                    self.shards[target_home].credit_blocked_by(&block.subject);
                }
            }
            Record::Profile(profile) => self.set_profile(author, profile),
            Record::FeedGenerator(_) | Record::LabelerService(_) | Record::Unknown(_) => {}
        }
    }

    /// Attach a profile record (routed to the actor's shard).
    pub(crate) fn set_profile(&mut self, author: &Did, profile: &ProfileRecord) {
        let home = self.actor_home(author);
        self.shards[home].set_profile(author, profile);
    }

    /// Process a firehose event's non-content effects. Tombstones purge
    /// posts on *every* shard — an account's posts are spread across all
    /// of them.
    pub fn process_event(&mut self, event: &Event) {
        match &event.body {
            EventBody::HandleChange { did, handle } => {
                let home = self.actor_home(did);
                self.shards[home].upsert_actor(did, handle);
            }
            EventBody::Tombstone { did } => {
                let home = self.actor_home(did);
                self.shards[home].mark_deleted(did);
                for shard in &mut self.shards {
                    shard.purge_posts_of(did);
                }
            }
            EventBody::Commit { .. } | EventBody::Identity { .. } | EventBody::Info { .. } => {}
        }
    }

    /// Ingest a label, routed to the shard owning its target entity (post
    /// URI or account DID). Labels whose target is unknown are counted into
    /// [`AppViewShards::labels_preindex`] on that same shard.
    pub fn ingest_label(&mut self, label: &Label) {
        let home = match &label.target {
            LabelTarget::Record(uri) => self.post_home(uri),
            LabelTarget::Account(did) | LabelTarget::ProfileMedia(did) => self.actor_home(did),
        };
        self.shards[home].ingest_label(label);
    }

    // -- reads ---------------------------------------------------------------

    /// Whether a post is indexed (key probe on its owning shard, no block
    /// decode).
    pub fn has_post(&self, uri: &AtUri) -> bool {
        self.shards[self.post_home(uri)].has_post(uri)
    }

    /// Number of indexed posts across all shards.
    pub fn post_count(&self) -> usize {
        self.shards.iter().map(AppViewIndex::post_count).sum()
    }

    /// Number of follow edges across all shards.
    pub fn follow_edge_count(&self) -> usize {
        self.shards
            .iter()
            .map(AppViewIndex::follow_edge_count)
            .sum()
    }

    /// Total labels ingested across all shards (including negations).
    pub fn labels_ingested(&self) -> u64 {
        self.shards.iter().map(AppViewIndex::labels_ingested).sum()
    }

    /// Labels whose target was not indexed when they arrived — counted,
    /// never silently dropped (summed across shards).
    pub fn labels_preindex(&self) -> u64 {
        self.shards.iter().map(AppViewIndex::labels_preindex).sum()
    }

    /// Total records indexed across all shards.
    pub fn records_indexed(&self) -> u64 {
        self.shards.iter().map(AppViewIndex::records_indexed).sum()
    }

    /// Counter mutations coalesced into already-dirty entities, summed
    /// across shards (see `AppViewIndex::counter_coalesced_writes`).
    pub fn counter_coalesced_writes(&self) -> u64 {
        self.shards
            .iter()
            .map(AppViewIndex::counter_coalesced_writes)
            .sum()
    }

    /// Aggregate block-store statistics over every shard.
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in &self.shards {
            stats.absorb(&shard.store_stats());
        }
        stats
    }
}

// Reads of entity state, which only the tests make: the property test
// compares them against the monolithic oracle.
#[cfg(test)]
mod reads {
    use super::*;
    use crate::index::{ActorCounters, ActorInfo, PostCounters, PostInfo};

    impl AppViewShards {
        /// The shards themselves, in shard order (read-only).
        pub(crate) fn shards(&self) -> &[AppViewIndex] {
            &self.shards
        }

        /// A post and its counters, from its owning shard.
        pub(crate) fn post(&self, uri: &AtUri) -> Option<(PostInfo, PostCounters)> {
            self.shards[self.post_home(uri)].post(uri)
        }

        /// An actor and its counters, from its owning shard.
        pub(crate) fn actor(&self, did: &Did) -> Option<(ActorInfo, ActorCounters)> {
            self.shards[self.actor_home(did)].actor(did)
        }

        /// Whether `a` follows `b` (answered by `a`'s edge-owning shard).
        pub(crate) fn follows(&self, a: &Did, b: &Did) -> bool {
            self.shards[self.actor_home(a)].follows(a, b)
        }

        /// Whether `a` blocks `b`.
        pub(crate) fn blocks(&self, a: &Did, b: &Did) -> bool {
            self.shards[self.actor_home(a)].blocks(a, b)
        }

        /// All posts across shards, in global key (URI) order.
        pub(crate) fn posts(&self) -> Vec<(PostInfo, PostCounters)> {
            let mut out: Vec<_> = self.shards.iter().flat_map(AppViewIndex::posts).collect();
            // Sort by the URI *string*, matching the monolithic index's
            // BTreeMap key order exactly. `AtUri`'s derived Ord compares
            // (did, collection, rkey) component-wise, which diverges from
            // string order when one DID is a prefix of another (did:web).
            out.sort_by_cached_key(|(post, _)| post.uri.to_string());
            out
        }

        /// All actors across shards, in global key (DID) order (`Did`'s
        /// derived Ord — method then identifier — matches the string order of
        /// `did:<method>:<identifier>` exactly, since `plc` < `web` and the
        /// prefix is fixed per method).
        pub(crate) fn actors(&self) -> Vec<(ActorInfo, ActorCounters)> {
            let mut out: Vec<_> = self.shards.iter().flat_map(AppViewIndex::actors).collect();
            out.sort_by(|(a, _), (b, _)| a.did.cmp(&b.did));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsky_atproto::nsid::known;
    use bsky_atproto::record::{
        BlockRecord, FollowRecord, LikeRecord, PostRecord, ProfileRecord, RepostRecord,
    };
    use bsky_simnet::SimRng;

    fn base() -> Datetime {
        Datetime::from_ymd(2024, 4, 1)
            .unwrap()
            .plus_seconds(8 * 3600)
    }

    fn did(i: u64) -> Did {
        Did::plc_from_seed(format!("shard-user-{i}").as_bytes())
    }

    fn handle(i: u64) -> Handle {
        Handle::parse(&format!("user{i}.bsky.social")).unwrap()
    }

    fn post_uri(author: &Did, rkey: &str) -> AtUri {
        AtUri::record(author.clone(), Nsid::parse(known::POST).unwrap(), rkey)
    }

    /// One randomly drawn ingestion step, applied identically to the oracle
    /// and to a shard set.
    enum Op {
        Upsert(u64),
        Post(u64, String, Datetime),
        Like(u64, AtUri),
        Repost(u64, AtUri),
        Follow(u64, u64),
        Block(u64, u64),
        Profile(u64),
        Tombstone(u64),
        HandleChange(u64),
        Label(AtUri, String, bool),
        AccountLabel(u64, String, bool),
    }

    fn arb_op(rng: &mut SimRng, minted: &mut Vec<AtUri>) -> Op {
        const USERS: u64 = 6;
        const VALUES: &[&str] = &["spam", "porn", "no-alt-text", "trolling"];
        let user = rng.range(0..USERS);
        // A URI from the minted pool — or, now and then, one that was never
        // (or not yet) posted, to exercise the unknown-target paths.
        let any_uri = |rng: &mut SimRng| -> AtUri {
            if minted.is_empty() || rng.chance(1.0 / 8.0) {
                post_uri(
                    &did(rng.range(0..USERS)),
                    &format!("ghost{:03}", rng.range(0..30)),
                )
            } else {
                minted[rng.range(0..minted.len())].clone()
            }
        };
        match rng.range(0..14u8) {
            0 => Op::Upsert(user),
            1..=3 => {
                let rkey = format!("p{:04}", rng.range(0..500));
                // A deliberately tiny timestamp universe so created_at ties
                // are common and the URI tie-break is exercised.
                let at = base().plus_seconds(rng.range(0..4i64) * 3600);
                minted.push(post_uri(&did(user), &rkey));
                Op::Post(user, rkey, at)
            }
            4..=5 => Op::Like(user, any_uri(rng)),
            6 => Op::Repost(user, any_uri(rng)),
            7..=8 => Op::Follow(user, rng.range(0..USERS)),
            9 => Op::Block(user, rng.range(0..USERS)),
            10 => Op::Profile(user),
            11 => {
                if rng.chance(0.25) {
                    Op::Tombstone(user)
                } else {
                    Op::Like(user, any_uri(rng))
                }
            }
            12 => Op::HandleChange(user),
            _ => {
                let value = VALUES[rng.range(0..VALUES.len())].to_string();
                let negated = rng.chance(0.25);
                if rng.chance(0.2) {
                    Op::AccountLabel(user, value, negated)
                } else {
                    Op::Label(any_uri(rng), value, negated)
                }
            }
        }
    }

    // The property test drives both structures through a tiny trait-less
    // dispatch: a macro keeps the call sites literal (the two ingestion
    // surfaces are intentionally identical).
    macro_rules! apply_op {
        ($target:expr, $op:expr, $seq:expr) => {{
            let labeler = Did::plc_from_seed(b"shard-labeler");
            match $op {
                Op::Upsert(u) => $target.upsert_actor(&did(*u), &handle(*u)),
                Op::Post(u, rkey, at) => $target.index_record(
                    &did(*u),
                    &Nsid::parse(known::POST).unwrap(),
                    rkey,
                    &Record::Post(PostRecord::simple(format!("post {rkey}"), "en", *at)),
                    *at,
                ),
                Op::Like(u, uri) => $target.index_record(
                    &did(*u),
                    &Nsid::parse(known::LIKE).unwrap(),
                    &format!("l{}", *$seq),
                    &Record::Like(LikeRecord {
                        subject: uri.clone(),
                        created_at: base(),
                    }),
                    base(),
                ),
                Op::Repost(u, uri) => $target.index_record(
                    &did(*u),
                    &Nsid::parse(known::REPOST).unwrap(),
                    &format!("r{}", *$seq),
                    &Record::Repost(RepostRecord {
                        subject: uri.clone(),
                        created_at: base(),
                    }),
                    base(),
                ),
                Op::Follow(u, v) => $target.index_record(
                    &did(*u),
                    &Nsid::parse(known::FOLLOW).unwrap(),
                    &format!("f{}", *$seq),
                    &Record::Follow(FollowRecord {
                        subject: did(*v),
                        created_at: base(),
                    }),
                    base(),
                ),
                Op::Block(u, v) => $target.index_record(
                    &did(*u),
                    &Nsid::parse(known::BLOCK).unwrap(),
                    &format!("b{}", *$seq),
                    &Record::Block(BlockRecord {
                        subject: did(*v),
                        created_at: base(),
                    }),
                    base(),
                ),
                Op::Profile(u) => $target.index_record(
                    &did(*u),
                    &Nsid::PROFILE,
                    "self",
                    &Record::Profile(ProfileRecord {
                        display_name: format!("user {u}"),
                        description: "prop".into(),
                        has_avatar: true,
                        has_banner: false,
                        created_at: base(),
                    }),
                    base(),
                ),
                Op::Tombstone(u) => $target.process_event(&Event {
                    seq: *$seq,
                    time: base(),
                    body: EventBody::Tombstone { did: did(*u) },
                }),
                Op::HandleChange(u) => $target.process_event(&Event {
                    seq: *$seq,
                    time: base(),
                    body: EventBody::HandleChange {
                        did: did(*u),
                        handle: Handle::parse(&format!("user{u}-new.example.org")).unwrap(),
                    },
                }),
                Op::Label(uri, value, negated) => {
                    let mut label = Label::new(
                        labeler.clone(),
                        LabelTarget::Record(uri.clone()),
                        value.as_str(),
                        base(),
                    )
                    .unwrap();
                    label.negated = *negated;
                    $target.ingest_label(&label);
                }
                Op::AccountLabel(u, value, negated) => {
                    let mut label = Label::new(
                        labeler.clone(),
                        LabelTarget::Account(did(*u)),
                        value.as_str(),
                        base(),
                    )
                    .unwrap();
                    label.negated = *negated;
                    $target.ingest_label(&label);
                }
            }
            *$seq += 1;
        }};
    }

    fn assert_same_state(oracle: &AppViewIndex, shards: &AppViewShards) {
        // Aggregate counts and counters.
        assert_eq!(shards.post_count(), oracle.post_count());
        assert_eq!(shards.follow_edge_count(), oracle.follow_edge_count());
        assert_eq!(shards.records_indexed(), oracle.records_indexed());
        assert_eq!(shards.labels_ingested(), oracle.labels_ingested());
        assert_eq!(shards.labels_preindex(), oracle.labels_preindex());
        // Full per-entity state (includes like/repost counts and label
        // sets), via the canonical key-ordered dumps.
        assert_eq!(shards.posts(), oracle.posts());
        assert_eq!(shards.actors(), oracle.actors());
        // Point lookups answer identically.
        for u in 0..6 {
            let d = did(u);
            assert_eq!(shards.actor(&d), oracle.actor(&d));
            for v in 0..6 {
                assert_eq!(shards.follows(&d, &did(v)), oracle.follows(&d, &did(v)));
                assert_eq!(shards.blocks(&d, &did(v)), oracle.blocks(&d, &did(v)));
            }
        }
    }

    /// The tentpole property: random event/label interleavings applied to
    /// sharded sets (1, 2, 4, 7 shards) are indistinguishable from the
    /// monolithic oracle. Flushes run at *different* cadences on the two
    /// sides and the write-back cache alternates per round, pinning that
    /// both are observationally transparent.
    #[test]
    fn sharded_interleavings_match_monolithic_oracle() {
        for round in 0..6u64 {
            let mut rng = SimRng::new(0xa99_71e0 + round);
            let mut minted = Vec::new();
            let ops: Vec<Op> = (0..250).map(|_| arb_op(&mut rng, &mut minted)).collect();

            let mut oracle = AppViewIndex::new();
            let mut seq = 1u64;
            for (i, op) in ops.iter().enumerate() {
                apply_op!(&mut oracle, op, &mut seq);
                if i % 100 == 99 {
                    oracle.flush();
                }
            }

            for count in [1usize, 2, 4, 7] {
                // Alternate store backends so the spill path is part of the
                // property, not a separate best-case test.
                let store = if round % 2 == 0 {
                    StoreConfig::mem()
                } else {
                    StoreConfig::paged().page_size(512).resident_pages(1)
                };
                let write_back = round % 3 != 0;
                let mut shards = AppViewShards::with_shards(count, &store, write_back);
                let mut seq = 1u64;
                for (i, op) in ops.iter().enumerate() {
                    apply_op!(&mut shards, op, &mut seq);
                    if i % 60 == 59 {
                        shards.flush();
                    }
                }
                assert_same_state(&oracle, &shards);
                // Entities spread across shards when there is more than one.
                if count > 1 {
                    let populated = shards
                        .shards()
                        .iter()
                        .filter(|s| s.post_count() + s.actor_count() > 0)
                        .count();
                    assert!(populated > 1, "{count} shards: entities not partitioned");
                }
            }
        }
    }

    // The ingestion edge cases, each at one and at four entity shards,
    // asserted on the index state they leave behind.

    fn labeler() -> Did {
        Did::plc_from_seed(b"shard-labeler")
    }

    fn index_post(appview: &mut AppViewShards, author: &Did, rkey: &str) -> AtUri {
        appview.index_record(
            author,
            &Nsid::parse(known::POST).unwrap(),
            rkey,
            &Record::Post(PostRecord::simple("content", "en", base())),
            base(),
        );
        post_uri(author, rkey)
    }

    fn spam(uri: &AtUri) -> Label {
        Label::new(labeler(), LabelTarget::Record(uri.clone()), "spam", base()).unwrap()
    }

    fn labels_on(appview: &AppViewShards, uri: &AtUri) -> Vec<(Did, String)> {
        appview.post(uri).unwrap().0.labels
    }

    #[test]
    fn duplicate_label_delivery_is_idempotent() {
        for shards in [1, 4] {
            let mut appview = AppViewShards::with_shards(shards, &StoreConfig::mem(), true);
            let uri = index_post(&mut appview, &did(0), "p0001");
            // The same stream entry delivered three times (a labeler
            // replaying its stream) applies exactly once.
            for _ in 0..3 {
                appview.ingest_label(&spam(&uri));
            }
            assert_eq!(
                labels_on(&appview, &uri),
                vec![(labeler(), "spam".to_string())],
                "{shards} shard(s)"
            );
            assert_eq!(appview.labels_ingested(), 3);
            assert_eq!(appview.labels_preindex(), 0);
        }
    }

    #[test]
    fn rescinded_label_clears_the_earlier_application() {
        for shards in [1, 4] {
            let mut appview = AppViewShards::with_shards(shards, &StoreConfig::mem(), true);
            let uri = index_post(&mut appview, &did(0), "p0001");
            appview.ingest_label(&spam(&uri));
            appview.ingest_label(&spam(&uri).negation(base().plus_seconds(60)));
            assert!(labels_on(&appview, &uri).is_empty(), "{shards} shard(s)");
            assert_eq!(appview.labels_ingested(), 2);
            assert_eq!(appview.labels_preindex(), 0);
        }
    }

    #[test]
    fn labels_racing_their_post_are_counted_not_silently_dropped() {
        for shards in [1, 4] {
            let mut appview = AppViewShards::with_shards(shards, &StoreConfig::mem(), true);
            let uri = post_uri(&did(0), "p0001");
            // The label stream races ahead of the firehose: the label
            // arrives before the post is indexed. It cannot apply — but the
            // gap is counted, like `repo_snapshot_skips`.
            appview.ingest_label(&spam(&uri));
            assert_eq!(appview.labels_ingested(), 1);
            assert_eq!(
                appview.labels_preindex(),
                1,
                "{shards} shard(s): early label must be counted"
            );
            // Account-level labels for unknown actors count the same way.
            let account =
                Label::new(labeler(), LabelTarget::Account(did(5)), "spam", base()).unwrap();
            appview.ingest_label(&account);
            assert_eq!(appview.labels_preindex(), 2);
            // Once the post lands, later deliveries apply normally.
            index_post(&mut appview, &did(0), "p0001");
            appview.ingest_label(&spam(&uri));
            assert_eq!(labels_on(&appview, &uri).len(), 1);
            assert_eq!(appview.labels_preindex(), 2, "no new gap");
        }
    }

    #[test]
    fn tombstoned_actors_are_marked_deleted_and_lose_their_posts() {
        for shards in [1, 4] {
            let mut appview = AppViewShards::with_shards(shards, &StoreConfig::mem(), true);
            let alice = did(0);
            appview.upsert_actor(&alice, &handle(0));
            let uris: Vec<AtUri> = (0..8)
                .map(|i| index_post(&mut appview, &alice, &format!("p{i:04}")))
                .collect();
            let bystander = index_post(&mut appview, &did(1), "p0000");
            appview.process_event(&Event {
                seq: 1,
                time: base(),
                body: EventBody::Tombstone { did: alice.clone() },
            });
            let (actor, counters) = appview.actor(&alice).unwrap();
            assert!(actor.deleted, "{shards} shard(s)");
            // Each post lives on its URI's shard; every shard purges its
            // share, and nobody else's.
            assert!(uris
                .iter()
                .all(|uri| !appview.has_post(uri) && appview.post(uri).is_none()));
            assert!(appview.has_post(&bystander));
            assert_eq!(appview.post_count(), 1, "{shards} shard(s)");
            // The author's post counter is deliberately left as it was.
            assert_eq!(counters.posts, 8);
        }
    }
}
