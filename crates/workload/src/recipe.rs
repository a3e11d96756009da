//! Records by recipe: one user-day's writes as a pure draw.
//!
//! A user-day's content is a function of the seed, the user and the day
//! alone: the user's per-day content stream
//! (`PopulationPlan::day_rng(index, day, DayPurpose::Content)`), the plan's
//! picks of like, repost, follow and block targets, the fault plan's spam
//! forks, and the feed generators online that day, which the plan fixes too
//! ([`feed_schedule`]). [`DayRecipes::draw`] is that function. The world
//! calls it to write each day, then applies what else the day does — feed
//! likes, counters, routing, labelers and identity churn — from what the
//! draw hands back. The PDS fleet calls it, as the world's
//! [`RecordSource`], to draw a day again when an export meets a record
//! block whose bytes its store released; the repository checks every
//! re-drawn record against the CID its tree holds.
//!
//! What a user-day does not write is not re-drawable, and stays as bytes: a
//! profile (written at signup), a feed generator's declaration (written when
//! it comes online).

use crate::config::ScenarioConfig;
use crate::ecosystem::FeedGenPlan;
use crate::faults::FaultPlan;
use crate::population::{DayPurpose, PopulationPlan, UserProfile};
use crate::rng::SimRng;
use bsky_atproto::nsid::known;
use bsky_atproto::record::{
    BlockRecord, Embed, FollowRecord, ImageEmbed, LikeRecord, MediaKind, PostRecord, Record,
    RepostRecord, UnknownRecord,
};
use bsky_atproto::repo::{RecordSource, Write};
use bsky_atproto::{cbor, AtUri, Datetime, Did, Nsid};
use std::sync::{Arc, OnceLock};

/// A feed generator the world brings online: the day it does, its plan, the
/// user who creates it, and what a like of it draws.
#[derive(Debug)]
pub(crate) struct ScheduledFeed {
    /// The simulated day it comes online.
    pub(crate) day_idx: usize,
    /// Its index in the world's feed-generator plans.
    pub(crate) plan_index: usize,
    /// The plan index of its creator.
    pub(crate) creator: usize,
    /// Its `at://` URI: the subject of a like.
    pub(crate) uri: AtUri,
    /// The like-attractiveness weights of the feeds up to and including
    /// this one, summed in schedule order.
    like_cumsum: f64,
}

/// Every feed generator the world brings online, in the order it does: by
/// day, and in plan order within a day. A feed comes online on its creation
/// day if that day is simulated and someone has joined by then; its creator
/// is the joined user of its popularity rank that day. So the list is a
/// pure function of the plans, and a feed's position in it is its index in
/// `World::feedgens`.
pub(crate) fn feed_schedule(
    config: &ScenarioConfig,
    plan: &PopulationPlan,
    feedgen_plans: &[FeedGenPlan],
) -> Vec<ScheduledFeed> {
    let mut online: Vec<(usize, usize, usize)> = Vec::new();
    for (plan_index, feed) in feedgen_plans.iter().enumerate() {
        let day = feed.created_at.day_index() - config.start.day_index();
        let Ok(day_idx) = usize::try_from(day) else {
            continue;
        };
        if day >= config.total_days() || plan.joined_count(day_idx) == 0 {
            continue;
        }
        if let Some(creator) = plan.creator_for_rank(feed.creator_popularity_rank, day_idx) {
            online.push((day_idx, plan_index, creator));
        }
    }
    online.sort_by_key(|&(day_idx, plan_index, _)| (day_idx, plan_index));
    let mut like_cumsum = 0.0;
    let mut schedule = Vec::with_capacity(online.len());
    for (index, (day_idx, plan_index, creator)) in online.into_iter().enumerate() {
        let rank = feedgen_plans[plan_index].creator_popularity_rank;
        like_cumsum += 1.0 / (rank as f64 + 1.0);
        let uri = AtUri::record(
            plan.profile(creator).did.clone(),
            Nsid::FEED_GENERATOR,
            format!("feed{index:06}"),
        );
        schedule.push(ScheduledFeed {
            day_idx,
            plan_index,
            creator,
            uri,
            like_cumsum,
        });
    }
    schedule
}

/// One user-day, drawn: its writes, and what the world does with the draw
/// besides committing it.
#[derive(Debug)]
pub(crate) struct DayDraw {
    /// The day's creates, in draw order; empty for a day with none.
    pub(crate) writes: Vec<Write>,
    /// The time every write of the day carries.
    pub(crate) when: Datetime,
    /// The schedule positions of the feeds the day liked, one per like.
    pub(crate) feed_likes: Vec<usize>,
    /// Planned posts written.
    pub(crate) posts: u64,
    /// Spam posts the fault plan added.
    pub(crate) spam_posts: u64,
    /// Likes written.
    pub(crate) likes: u64,
    /// The user's content stream where the draw left it: the day's
    /// identity churn reads on from here.
    pub(crate) rng: SimRng,
}

/// The recipe of every user-day: the plans a draw reads, shared by the
/// world that writes the days and the fleet that draws them again.
#[derive(Debug)]
pub(crate) struct DayRecipes {
    plan: Arc<PopulationPlan>,
    faults: Arc<FaultPlan>,
    feeds: Vec<ScheduledFeed>,
    /// `(DID hash, plan index)` of every planned user, sorted; built by the
    /// first re-draw, which is the only reader.
    by_did: OnceLock<Vec<(u64, u32)>>,
}

impl DayRecipes {
    /// The recipes of a world built from `config`, `plan` and `faults`.
    pub(crate) fn new(
        config: &ScenarioConfig,
        plan: Arc<PopulationPlan>,
        faults: Arc<FaultPlan>,
        feedgen_plans: &[FeedGenPlan],
    ) -> DayRecipes {
        DayRecipes {
            feeds: feed_schedule(config, &plan, feedgen_plans),
            plan,
            faults,
            by_did: OnceLock::new(),
        }
    }

    /// Every feed generator the world brings online (see [`feed_schedule`]).
    pub(crate) fn feeds(&self) -> &[ScheduledFeed] {
        &self.feeds
    }

    /// The feeds online on `day_idx`, a prefix of the schedule.
    fn live_feeds(&self, day_idx: usize) -> &[ScheduledFeed] {
        let live = self.feeds.partition_point(|feed| feed.day_idx <= day_idx);
        &self.feeds[..live]
    }

    /// The plan index of the user whose DID is `did`.
    fn index_of(&self, did: &Did) -> Option<usize> {
        let by_did = self.by_did.get_or_init(|| {
            let mut by_did: Vec<(u64, u32)> = (0..self.plan.len())
                .map(|index| (self.plan.profile(index).did.shard_hash(), index as u32))
                .collect();
            by_did.sort_unstable();
            by_did
        });
        let hash = did.shard_hash();
        let from = by_did.partition_point(|&(h, _)| h < hash);
        by_did[from..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .map(|&(_, index)| index as usize)
            .find(|&index| self.plan.profile(index).did == *did)
    }

    /// User `index`'s writes on `day_idx`, drawn from their own per-day
    /// streams and the read-only plans: posts, spam posts, likes, reposts,
    /// follows, blocks and third-party records, one create each.
    pub(crate) fn draw(&self, index: usize, day_idx: usize) -> DayDraw {
        let user = self.plan.profile(index);
        let mut writes: Vec<Write> = Vec::new();
        let mut create = |collection: Nsid, rkey: String, record: Record| {
            writes.push(Write::Create {
                collection,
                rkey,
                record,
            })
        };
        let when = self.plan.when(index, day_idx);
        let mut rng = self.plan.day_rng(index, day_idx, DayPurpose::Content);
        // Non-post records share one per-day key sequence.
        let mut record_seq = 0u64;
        let mut next_rkey = || {
            record_seq += 1;
            PopulationPlan::day_rkey('r', day_idx, record_seq - 1, 3)
        };

        // Posts (≈1.8 per active user-day on average, weighted by the user).
        // The count comes from its own stream so other shards can recompute
        // it when targeting this user's posts.
        let posts = self.plan.posts_on(index, day_idx);
        for slot in 0..posts {
            let post = draw_post(user, &mut rng, when);
            let rkey = PopulationPlan::post_rkey(day_idx, slot);
            create(Nsid::POST, rkey, Record::Post(post));
        }

        // Spam wave (fault injection): conscripted accounts pile a burst of
        // spam posts on top of their planned content. Count and content come
        // from dedicated fault forks — never from the user's content stream
        // — so a quiet plan leaves this path byte-inert, and the distinct
        // `f`-prefixed rkeys never collide with planned (`p`/`r`) keys.
        let spam_posts = self.faults.spam_posts(user.did.as_str(), day_idx);
        for slot in 0..spam_posts {
            let post = PostRecord::simple(
                format!("fresh followers fast, link in bio #{slot}"),
                &user.language,
                when,
            );
            let rkey = PopulationPlan::day_rkey('f', day_idx, u64::from(slot), 2);
            create(Nsid::POST, rkey, Record::Post(post));
        }

        // Likes (≈6 per active user-day): mostly on recent posts, sometimes
        // on feed generators. Targets are resolved against the plan, so a
        // like can land on any shard's post.
        let feeds = self.live_feeds(day_idx);
        let mut feed_likes = Vec::new();
        let mut likes = 0u64;
        for _ in 0..rng.poisson(6.0) {
            let subject = if !feeds.is_empty() && rng.chance(0.03) {
                let total = feeds.last().map_or(0.0, |feed| feed.like_cumsum);
                let target = rng.unit() * total;
                let idx = feeds
                    .partition_point(|feed| feed.like_cumsum <= target)
                    .min(feeds.len() - 1);
                feed_likes.push(idx);
                feeds[idx].uri.clone()
            } else if let Some(target) = self.plan.pick_recent_post(day_idx, &mut rng) {
                target
            } else {
                continue;
            };
            let record = Record::Like(LikeRecord {
                subject,
                created_at: when,
            });
            create(Nsid::LIKE, next_rkey(), record);
            likes += 1;
        }

        // Reposts (≈0.6).
        for _ in 0..rng.poisson(0.6) {
            if let Some(target) = self.plan.pick_recent_post(day_idx, &mut rng) {
                let record = Record::Repost(RepostRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::REPOST, next_rkey(), record);
            }
        }

        // Follows (≈1.3): preferential attachment towards popular users.
        for _ in 0..rng.poisson(1.3) {
            if let Some(target) = self.pick_popular_user(index, day_idx, &mut rng) {
                let record = Record::Follow(FollowRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::FOLLOW, next_rkey(), record);
            }
        }

        // Blocks (≈0.09): concentrated on a couple of notorious accounts.
        for _ in 0..rng.poisson(0.09) {
            if let Some(target) = self.pick_block_target(index, day_idx, &mut rng) {
                let record = Record::Block(BlockRecord {
                    subject: target,
                    created_at: when,
                });
                create(Nsid::BLOCK, next_rkey(), record);
            }
        }

        // Third-party (WhiteWind) records for the few users who use them.
        if user.uses_whitewind && rng.chance(0.2) {
            let record = Record::Unknown(UnknownRecord {
                record_type: Nsid::WHTWND_ENTRY,
                value: cbor::Value::map([
                    ("$type", cbor::Value::text(known::WHTWND_ENTRY)),
                    ("title", cbor::Value::text("long-form thoughts")),
                    ("createdAt", cbor::Value::text(when.to_iso8601())),
                ]),
            });
            create(Nsid::WHTWND_ENTRY, next_rkey(), record);
        }

        DayDraw {
            writes,
            when,
            feed_likes,
            posts,
            spam_posts: u64::from(spam_posts),
            likes,
            rng,
        }
    }

    fn pick_popular_user(&self, exclude: usize, day_idx: usize, rng: &mut SimRng) -> Option<Did> {
        if self.plan.joined_count(day_idx) < 2 {
            return None;
        }
        for _ in 0..8 {
            let idx = self.plan.pick_joined_weighted(day_idx, rng)?;
            if idx != exclude {
                return Some(self.plan.profile(idx).did.clone());
            }
        }
        None
    }

    fn pick_block_target(&self, exclude: usize, day_idx: usize, rng: &mut SimRng) -> Option<Did> {
        let joined = self.plan.joined_count(day_idx);
        if joined < 4 {
            return None;
        }
        // Blocks concentrate on two notorious accounts (the impersonator and
        // the propagandist of §4), with a tail over everyone else.
        let notorious = [2usize, 3usize];
        let idx = if rng.chance(0.6) {
            notorious[rng.range(0..notorious.len())]
        } else {
            rng.range(0..joined)
        };
        if idx == exclude {
            return None;
        }
        Some(self.plan.profile(idx).did.clone())
    }
}

impl RecordSource for DayRecipes {
    /// The writes `did` committed on the simulated day `day` (the world
    /// commits each user-day under its day index), drawn again; empty for a
    /// DID the plan does not hold.
    fn redraw(&self, did: &Did, day: u16) -> Vec<Write> {
        self.index_of(did)
            .map_or_else(Vec::new, |index| self.draw(index, usize::from(day)).writes)
    }
}

/// Draw one post's content from the user's content stream.
fn draw_post(user: &UserProfile, rng: &mut SimRng, when: Datetime) -> PostRecord {
    const TOPICS: &[&str] = &[
        "art",
        "ramen",
        "news",
        "science",
        "music",
        "cats",
        "football",
        "politics",
        "photography",
        "nude study",
    ];
    let topic = *rng.pick(TOPICS);
    let text = format!(
        "{} post about {} #{}",
        user.language,
        topic,
        topic.split(' ').next().unwrap_or(topic)
    );
    let mut tags = Vec::new();
    if rng.chance(0.015) {
        tags.push("aiart".to_string());
    }
    let embed = if rng.chance(user.media_probability) {
        let kind_roll = rng.unit();
        let kind = if kind_roll < user.adult_probability {
            MediaKind::Adult
        } else if kind_roll < user.adult_probability + 0.012 {
            MediaKind::Graphic
        } else if kind_roll < user.adult_probability + 0.07 {
            MediaKind::GifTenor
        } else if kind_roll < user.adult_probability + 0.10 {
            MediaKind::ScreenshotTwitter
        } else if kind_roll < user.adult_probability + 0.12 {
            MediaKind::ScreenshotBluesky
        } else if kind_roll < user.adult_probability + 0.16 {
            MediaKind::AiGenerated
        } else if kind_roll < user.adult_probability + 0.40 {
            MediaKind::Artwork
        } else {
            MediaKind::Photo
        };
        let alt = if rng.chance(user.missing_alt_probability) {
            None
        } else {
            Some(format!("an image about {topic}"))
        };
        Some(Embed::Images(vec![ImageEmbed { alt, kind }]))
    } else {
        None
    };
    // A tiny fraction of posts carry corrupted (pre-launch) timestamps,
    // reproducing the client bug the paper reports (§7.1).
    let created_at = if rng.chance(0.0001) {
        Datetime::from_ymd(*rng.pick(&[1185, 1776, 1923]), 6, 1).unwrap()
    } else {
        when
    };
    PostRecord {
        text,
        created_at,
        langs: vec![user.language.clone()],
        reply_parent: None,
        embed,
        tags,
    }
}
