//! Lexicon record types.
//!
//! Repositories hold users' public actions — posts, likes, follows, blocks,
//! reposts, profiles — plus the declaration records for Feed Generators and
//! Labelers (§2). Records are typed by NSIDs and encoded as DAG-CBOR. The
//! `Unknown` variant carries records for third-party lexicons (e.g. the
//! WhiteWind blog entries observed in §4, "Non-Bluesky content").

use crate::aturi::AtUri;
use crate::cbor::{self, raw, Reader, Value};
use crate::datetime::Datetime;
use crate::did::Did;
use crate::error::{AtError, Result};
use crate::nsid::{known, Nsid};

/// Ground-truth classification of an attached media item. The simulated
/// Labelers classify media from these kinds the same way the real ones run
/// image classifiers (§6: screenshot labeler, AI-imagery labeler, GIF
/// labeler, NSFW detection by the Bluesky labeler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// An ordinary photograph.
    Photo,
    /// Original artwork (the art community is prominent on Bluesky, §7).
    Artwork,
    /// A screenshot of a post on Twitter/X.
    ScreenshotTwitter,
    /// A screenshot of a Bluesky post.
    ScreenshotBluesky,
    /// A screenshot of something else.
    ScreenshotOther,
    /// A reaction GIF served from Tenor.
    GifTenor,
    /// Any other animated GIF.
    GifOther,
    /// AI-generated imagery.
    AiGenerated,
    /// Sexually explicit media.
    Adult,
    /// Graphic / gore media.
    Graphic,
}

impl MediaKind {
    /// Stable string tag used for CBOR encoding.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            MediaKind::Photo => "photo",
            MediaKind::Artwork => "artwork",
            MediaKind::ScreenshotTwitter => "screenshot-twitter",
            MediaKind::ScreenshotBluesky => "screenshot-bluesky",
            MediaKind::ScreenshotOther => "screenshot-other",
            MediaKind::GifTenor => "gif-tenor",
            MediaKind::GifOther => "gif-other",
            MediaKind::AiGenerated => "ai-generated",
            MediaKind::Adult => "adult",
            MediaKind::Graphic => "graphic",
        }
    }

    /// Parse the string tag.
    pub(crate) fn parse(s: &str) -> Result<MediaKind> {
        Ok(match s {
            "photo" => MediaKind::Photo,
            "artwork" => MediaKind::Artwork,
            "screenshot-twitter" => MediaKind::ScreenshotTwitter,
            "screenshot-bluesky" => MediaKind::ScreenshotBluesky,
            "screenshot-other" => MediaKind::ScreenshotOther,
            "gif-tenor" => MediaKind::GifTenor,
            "gif-other" => MediaKind::GifOther,
            "ai-generated" => MediaKind::AiGenerated,
            "adult" => MediaKind::Adult,
            "graphic" => MediaKind::Graphic,
            _ => return Err(AtError::InvalidRecord(format!("unknown media kind {s}"))),
        })
    }
}

/// A single attached media item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageEmbed {
    /// Alternative text, if the author provided any.
    pub alt: Option<String>,
    /// Ground-truth content class.
    pub kind: MediaKind,
}

/// Post embeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Embed {
    /// One or more images / GIFs.
    Images(Vec<ImageEmbed>),
    /// An external link card.
    External {
        /// The linked URL.
        uri: String,
    },
    /// A quote of another record.
    Record(AtUri),
}

/// `app.bsky.feed.post`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostRecord {
    /// Post body text.
    pub text: String,
    /// Self-reported creation time (may predate the platform, §7).
    pub created_at: Datetime,
    /// Self-assigned BCP-47 language tags.
    pub langs: Vec<String>,
    /// Parent post when this is a reply.
    pub reply_parent: Option<AtUri>,
    /// Attached embed.
    pub embed: Option<Embed>,
    /// Hashtags (used e.g. by the AI-imagery labeler, §6).
    pub tags: Vec<String>,
}

impl PostRecord {
    /// A minimal text-only post.
    pub fn simple(text: impl Into<String>, lang: &str, created_at: Datetime) -> PostRecord {
        PostRecord {
            text: text.into(),
            created_at,
            langs: vec![lang.to_string()],
            reply_parent: None,
            embed: None,
            tags: Vec::new(),
        }
    }

    /// Whether the post has attached media missing alt text.
    pub fn has_media_missing_alt(&self) -> bool {
        match &self.embed {
            Some(Embed::Images(images)) => images.iter().any(|i| i.alt.is_none()),
            _ => false,
        }
    }

    /// Iterate over attached media kinds.
    pub fn media_kinds(&self) -> impl Iterator<Item = MediaKind> + '_ {
        let images = match &self.embed {
            Some(Embed::Images(images)) => images.as_slice(),
            _ => &[],
        };
        images.iter().map(|i| i.kind)
    }

    /// Append this post's DAG-CBOR encoding to `out`: the typed, one-pass
    /// twin of `cbor::encode(&Record::Post(..).to_value())`, fields in
    /// canonical key order.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let fields = 5 + self.embed.is_some() as u64 + self.reply_parent.is_some() as u64;
        raw::map_head(fields, out);
        raw::text("tags", out);
        encode_texts(&self.tags, out);
        raw::text("text", out);
        raw::text(&self.text, out);
        raw::text("$type", out);
        raw::text(known::POST, out);
        if let Some(embed) = &self.embed {
            raw::text("embed", out);
            encode_embed(embed, out);
        }
        raw::text("langs", out);
        encode_texts(&self.langs, out);
        if let Some(parent) = &self.reply_parent {
            raw::text("reply", out);
            raw::map_head(1, out);
            raw::text("parent", out);
            encode_uri(parent, out);
        }
        raw::text("createdAt", out);
        encode_datetime(self.created_at, out);
    }

    /// Read what [`Self::encode_into`] writes, straight off the reader.
    /// `None` on any deviation from that canonical shape (see
    /// [`cbor::Reader`]); the generic decoder is the fallback.
    pub fn decode_from(r: &mut Reader<'_>) -> Option<PostRecord> {
        let fields = r.map()?;
        r.key("tags")?;
        let tags = decode_texts(r)?;
        r.key("text")?;
        let text = r.text()?.to_string();
        r.key("$type")?;
        r.key(known::POST)?;
        let mut key = r.text()?;
        let mut embed = None;
        if key == "embed" {
            embed = Some(decode_embed(r)?);
            key = r.text()?;
        }
        if key != "langs" {
            return None;
        }
        let langs = decode_texts(r)?;
        key = r.text()?;
        let mut reply_parent = None;
        if key == "reply" {
            if r.map()? != 1 {
                return None;
            }
            r.key("parent")?;
            reply_parent = Some(AtUri::parse(r.text()?).ok()?);
            key = r.text()?;
        }
        if key != "createdAt" {
            return None;
        }
        let created_at = Datetime::parse_iso8601(r.text()?).ok()?;
        if fields != 5 + embed.is_some() as usize + reply_parent.is_some() as usize {
            return None;
        }
        Some(PostRecord {
            text,
            created_at,
            langs,
            reply_parent,
            embed,
            tags,
        })
    }
}

/// `app.bsky.feed.like`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikeRecord {
    /// The liked record (post or feed generator).
    pub subject: AtUri,
    /// Creation time.
    pub created_at: Datetime,
}

/// `app.bsky.feed.repost`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepostRecord {
    /// The reposted post.
    pub subject: AtUri,
    /// Creation time.
    pub created_at: Datetime,
}

/// `app.bsky.graph.follow`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowRecord {
    /// The followed account.
    pub subject: Did,
    /// Creation time.
    pub created_at: Datetime,
}

/// `app.bsky.graph.block`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// The blocked account.
    pub subject: Did,
    /// Creation time.
    pub created_at: Datetime,
}

/// `app.bsky.actor.profile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRecord {
    /// Display name.
    pub display_name: String,
    /// Bio / description.
    pub description: String,
    /// Whether an avatar image is set.
    pub has_avatar: bool,
    /// Whether a banner image is set.
    pub has_banner: bool,
    /// Creation time.
    pub created_at: Datetime,
}

impl ProfileRecord {
    /// Append this profile's DAG-CBOR encoding to `out` (typed, one pass;
    /// see [`PostRecord::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        raw::map_head(6, out);
        raw::text("$type", out);
        raw::text(known::PROFILE, out);
        raw::text("createdAt", out);
        encode_datetime(self.created_at, out);
        raw::text("hasAvatar", out);
        raw::bool(self.has_avatar, out);
        raw::text("hasBanner", out);
        raw::bool(self.has_banner, out);
        raw::text("description", out);
        raw::text(&self.description, out);
        raw::text("displayName", out);
        raw::text(&self.display_name, out);
    }

    /// Read what [`Self::encode_into`] writes (see
    /// [`PostRecord::decode_from`]).
    pub fn decode_from(r: &mut Reader<'_>) -> Option<ProfileRecord> {
        if r.map()? != 6 {
            return None;
        }
        r.key("$type")?;
        r.key(known::PROFILE)?;
        r.key("createdAt")?;
        let created_at = Datetime::parse_iso8601(r.text()?).ok()?;
        r.key("hasAvatar")?;
        let has_avatar = r.bool()?;
        r.key("hasBanner")?;
        let has_banner = r.bool()?;
        r.key("description")?;
        let description = r.text()?.to_string();
        r.key("displayName")?;
        let display_name = r.text()?.to_string();
        Some(ProfileRecord {
            display_name,
            description,
            has_avatar,
            has_banner,
            created_at,
        })
    }
}

/// `app.bsky.feed.generator` — a Feed Generator declaration (§2, §7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedGeneratorRecord {
    /// DID of the service hosting the feed skeleton endpoint.
    pub service_did: Did,
    /// Human-readable feed name.
    pub display_name: String,
    /// Feed description (analysed for language and keywords in §7).
    pub description: String,
    /// Creation time.
    pub created_at: Datetime,
}

/// One label value a Labeler declares, with its default client behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LabelValueDefinition {
    /// The label value, e.g. `spoiler`.
    pub(crate) value: String,
    /// Default severity (`inform`, `alert`, or `none`).
    pub(crate) severity: String,
    /// What the label blurs by default (`content`, `media`, or `none`).
    pub(crate) blurs: String,
}

/// `app.bsky.labeler.service` — a Labeler declaration (§2, §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelerServiceRecord {
    /// Declared label values and their default behaviour.
    pub(crate) policies: Vec<LabelValueDefinition>,
    /// Creation time.
    pub(crate) created_at: Datetime,
}

/// A record in a lexicon this crate does not model (e.g. WhiteWind).
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownRecord {
    /// The record's `$type`.
    pub record_type: Nsid,
    /// The raw decoded value.
    pub value: Value,
}

/// Any repository record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `app.bsky.feed.post`
    Post(PostRecord),
    /// `app.bsky.feed.like`
    Like(LikeRecord),
    /// `app.bsky.feed.repost`
    Repost(RepostRecord),
    /// `app.bsky.graph.follow`
    Follow(FollowRecord),
    /// `app.bsky.graph.block`
    Block(BlockRecord),
    /// `app.bsky.actor.profile`
    Profile(ProfileRecord),
    /// `app.bsky.feed.generator`
    FeedGenerator(FeedGeneratorRecord),
    /// `app.bsky.labeler.service`
    LabelerService(LabelerServiceRecord),
    /// Any other lexicon.
    Unknown(UnknownRecord),
}

impl Record {
    /// The collection NSID this record belongs to.
    pub fn collection(&self) -> Nsid {
        match self {
            Record::Post(_) => Nsid::POST,
            Record::Like(_) => Nsid::LIKE,
            Record::Repost(_) => Nsid::REPOST,
            Record::Follow(_) => Nsid::FOLLOW,
            Record::Block(_) => Nsid::BLOCK,
            Record::Profile(_) => Nsid::PROFILE,
            Record::FeedGenerator(_) => Nsid::FEED_GENERATOR,
            Record::LabelerService(_) => Nsid::LABELER_SERVICE,
            Record::Unknown(u) => u.record_type.clone(),
        }
    }

    /// The record's self-reported creation time, when the lexicon has one.
    pub fn created_at(&self) -> Option<Datetime> {
        match self {
            Record::Post(r) => Some(r.created_at),
            Record::Like(r) => Some(r.created_at),
            Record::Repost(r) => Some(r.created_at),
            Record::Follow(r) => Some(r.created_at),
            Record::Block(r) => Some(r.created_at),
            Record::Profile(r) => Some(r.created_at),
            Record::FeedGenerator(r) => Some(r.created_at),
            Record::LabelerService(r) => Some(r.created_at),
            Record::Unknown(u) => u
                .value
                .get("createdAt")
                .and_then(Value::as_text)
                .and_then(|s| Datetime::parse_iso8601(s).ok()),
        }
    }

    /// Encode to the CBOR data model.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Record::Post(r) => {
                let mut fields = vec![
                    ("$type".to_string(), Value::text(known::POST)),
                    ("text".to_string(), Value::text(&r.text)),
                    (
                        "createdAt".to_string(),
                        Value::text(r.created_at.to_iso8601()),
                    ),
                    (
                        "langs".to_string(),
                        Value::Array(r.langs.iter().map(Value::text).collect()),
                    ),
                    (
                        "tags".to_string(),
                        Value::Array(r.tags.iter().map(Value::text).collect()),
                    ),
                ];
                if let Some(parent) = &r.reply_parent {
                    fields.push((
                        "reply".to_string(),
                        Value::map([("parent", Value::text(parent.to_string()))]),
                    ));
                }
                if let Some(embed) = &r.embed {
                    fields.push(("embed".to_string(), embed_to_value(embed)));
                }
                Value::map(fields)
            }
            Record::Like(r) => Value::map([
                ("$type", Value::text(known::LIKE)),
                ("subject", Value::text(r.subject.to_string())),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::Repost(r) => Value::map([
                ("$type", Value::text(known::REPOST)),
                ("subject", Value::text(r.subject.to_string())),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::Follow(r) => Value::map([
                ("$type", Value::text(known::FOLLOW)),
                ("subject", Value::text(r.subject.to_string())),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::Block(r) => Value::map([
                ("$type", Value::text(known::BLOCK)),
                ("subject", Value::text(r.subject.to_string())),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::Profile(r) => Value::map([
                ("$type", Value::text(known::PROFILE)),
                ("displayName", Value::text(&r.display_name)),
                ("description", Value::text(&r.description)),
                ("hasAvatar", Value::Bool(r.has_avatar)),
                ("hasBanner", Value::Bool(r.has_banner)),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::FeedGenerator(r) => Value::map([
                ("$type", Value::text(known::FEED_GENERATOR)),
                ("did", Value::text(r.service_did.to_string())),
                ("displayName", Value::text(&r.display_name)),
                ("description", Value::text(&r.description)),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::LabelerService(r) => Value::map([
                ("$type", Value::text(known::LABELER_SERVICE)),
                (
                    "policies",
                    Value::Array(
                        r.policies
                            .iter()
                            .map(|p| {
                                Value::map([
                                    ("value", Value::text(&p.value)),
                                    ("severity", Value::text(&p.severity)),
                                    ("blurs", Value::text(&p.blurs)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("createdAt", Value::text(r.created_at.to_iso8601())),
            ]),
            Record::Unknown(u) => {
                // Ensure the $type field is present and correct.
                let mut map = match &u.value {
                    Value::Map(m) => m.clone(),
                    other => {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("value".to_string(), other.clone());
                        m
                    }
                };
                map.insert("$type".to_string(), Value::text(u.record_type.as_str()));
                Value::Map(map)
            }
        }
    }

    /// Decode from the CBOR data model, dispatching on `$type`.
    pub(crate) fn from_value(value: &Value) -> Result<Record> {
        let type_str = value
            .get("$type")
            .and_then(Value::as_text)
            .ok_or_else(|| AtError::InvalidRecord("missing $type".into()))?;
        let get_text = |key: &str| -> Result<&str> {
            value
                .get(key)
                .and_then(Value::as_text)
                .ok_or_else(|| AtError::InvalidRecord(format!("missing field {key}")))
        };
        let get_datetime =
            |key: &str| -> Result<Datetime> { Datetime::parse_iso8601(get_text(key)?) };
        match type_str {
            known::POST => {
                let langs = value
                    .get("langs")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_text)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let tags = value
                    .get("tags")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_text)
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                let reply_parent = match value.get("reply").and_then(|r| r.get("parent")) {
                    Some(v) => Some(AtUri::parse(v.as_text().ok_or_else(|| {
                        AtError::InvalidRecord("reply.parent not text".into())
                    })?)?),
                    None => None,
                };
                let embed = match value.get("embed") {
                    Some(v) => Some(embed_from_value(v)?),
                    None => None,
                };
                Ok(Record::Post(PostRecord {
                    text: get_text("text")?.to_string(),
                    created_at: get_datetime("createdAt")?,
                    langs,
                    reply_parent,
                    embed,
                    tags,
                }))
            }
            known::LIKE => Ok(Record::Like(LikeRecord {
                subject: AtUri::parse(get_text("subject")?)?,
                created_at: get_datetime("createdAt")?,
            })),
            known::REPOST => Ok(Record::Repost(RepostRecord {
                subject: AtUri::parse(get_text("subject")?)?,
                created_at: get_datetime("createdAt")?,
            })),
            known::FOLLOW => Ok(Record::Follow(FollowRecord {
                subject: Did::parse(get_text("subject")?)?,
                created_at: get_datetime("createdAt")?,
            })),
            known::BLOCK => Ok(Record::Block(BlockRecord {
                subject: Did::parse(get_text("subject")?)?,
                created_at: get_datetime("createdAt")?,
            })),
            known::PROFILE => Ok(Record::Profile(ProfileRecord {
                display_name: get_text("displayName")?.to_string(),
                description: get_text("description")?.to_string(),
                has_avatar: value
                    .get("hasAvatar")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                has_banner: value
                    .get("hasBanner")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                created_at: get_datetime("createdAt")?,
            })),
            known::FEED_GENERATOR => Ok(Record::FeedGenerator(FeedGeneratorRecord {
                service_did: Did::parse(get_text("did")?)?,
                display_name: get_text("displayName")?.to_string(),
                description: get_text("description")?.to_string(),
                created_at: get_datetime("createdAt")?,
            })),
            known::LABELER_SERVICE => {
                let policies = value
                    .get("policies")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|p| -> Result<LabelValueDefinition> {
                        Ok(LabelValueDefinition {
                            value: p
                                .get("value")
                                .and_then(Value::as_text)
                                .ok_or_else(|| {
                                    AtError::InvalidRecord("policy missing value".into())
                                })?
                                .to_string(),
                            severity: p
                                .get("severity")
                                .and_then(Value::as_text)
                                .unwrap_or("inform")
                                .to_string(),
                            blurs: p
                                .get("blurs")
                                .and_then(Value::as_text)
                                .unwrap_or("none")
                                .to_string(),
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Record::LabelerService(LabelerServiceRecord {
                    policies,
                    created_at: get_datetime("createdAt")?,
                }))
            }
            other => Ok(Record::Unknown(UnknownRecord {
                record_type: Nsid::parse(other)?,
                value: value.clone(),
            })),
        }
    }

    /// Encode to DAG-CBOR bytes.
    pub fn to_cbor(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Append the record's DAG-CBOR encoding to `out`, byte for byte
    /// `cbor::encode(&self.to_value())`. The eight modelled kinds are
    /// written in one typed pass, fields in canonical key order; a
    /// third-party record *is* a [`Value`] and takes the generic encoder.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Record::Post(r) => r.encode_into(out),
            Record::Like(r) => {
                encode_edge(known::LIKE, r.created_at, out, |out| {
                    encode_uri(&r.subject, out)
                });
            }
            Record::Repost(r) => {
                encode_edge(known::REPOST, r.created_at, out, |out| {
                    encode_uri(&r.subject, out)
                });
            }
            Record::Follow(r) => {
                encode_edge(known::FOLLOW, r.created_at, out, |out| {
                    encode_did(&r.subject, out)
                });
            }
            Record::Block(r) => {
                encode_edge(known::BLOCK, r.created_at, out, |out| {
                    encode_did(&r.subject, out)
                });
            }
            Record::Profile(r) => r.encode_into(out),
            Record::FeedGenerator(r) => {
                raw::map_head(5, out);
                raw::text("did", out);
                encode_did(&r.service_did, out);
                raw::text("$type", out);
                raw::text(known::FEED_GENERATOR, out);
                raw::text("createdAt", out);
                encode_datetime(r.created_at, out);
                raw::text("description", out);
                raw::text(&r.description, out);
                raw::text("displayName", out);
                raw::text(&r.display_name, out);
            }
            Record::LabelerService(r) => {
                raw::map_head(3, out);
                raw::text("$type", out);
                raw::text(known::LABELER_SERVICE, out);
                raw::text("policies", out);
                raw::array_head(r.policies.len() as u64, out);
                for policy in &r.policies {
                    raw::map_head(3, out);
                    raw::text("blurs", out);
                    raw::text(&policy.blurs, out);
                    raw::text("value", out);
                    raw::text(&policy.value, out);
                    raw::text("severity", out);
                    raw::text(&policy.severity, out);
                }
                raw::text("createdAt", out);
                encode_datetime(r.created_at, out);
            }
            Record::Unknown(_) => out.extend_from_slice(&cbor::encode(&self.to_value())),
        }
    }

    /// Decode from DAG-CBOR bytes. A block in the canonical shape
    /// `Self::encode_into` writes is read in one typed pass; anything else
    /// — another lexicon, a non-canonical but valid encoding, a malformed
    /// block — goes through `from_value(decode(bytes))`, so what is
    /// accepted and every error are that path's.
    pub fn from_cbor(bytes: &[u8]) -> Result<Record> {
        match Record::decode_canonical(bytes) {
            Some(record) => Ok(record),
            None => Record::from_value(&cbor::decode(bytes)?),
        }
    }

    /// The typed half of [`Self::from_cbor`]: `None` unless `bytes` is
    /// exactly one modelled record in canonical shape.
    fn decode_canonical(bytes: &[u8]) -> Option<Record> {
        let r = &mut Reader::new(bytes);
        let record = match cbor::map_text_field(bytes, "$type")? {
            known::POST => Record::Post(PostRecord::decode_from(r)?),
            known::LIKE => {
                let (subject, created_at) = decode_edge(known::LIKE, r)?;
                Record::Like(LikeRecord {
                    subject: AtUri::parse(subject).ok()?,
                    created_at,
                })
            }
            known::REPOST => {
                let (subject, created_at) = decode_edge(known::REPOST, r)?;
                Record::Repost(RepostRecord {
                    subject: AtUri::parse(subject).ok()?,
                    created_at,
                })
            }
            known::FOLLOW => {
                let (subject, created_at) = decode_edge(known::FOLLOW, r)?;
                Record::Follow(FollowRecord {
                    subject: Did::parse(subject).ok()?,
                    created_at,
                })
            }
            known::BLOCK => {
                let (subject, created_at) = decode_edge(known::BLOCK, r)?;
                Record::Block(BlockRecord {
                    subject: Did::parse(subject).ok()?,
                    created_at,
                })
            }
            known::PROFILE => Record::Profile(ProfileRecord::decode_from(r)?),
            known::FEED_GENERATOR => {
                if r.map()? != 5 {
                    return None;
                }
                r.key("did")?;
                let service_did = Did::parse(r.text()?).ok()?;
                r.key("$type")?;
                r.key(known::FEED_GENERATOR)?;
                r.key("createdAt")?;
                let created_at = Datetime::parse_iso8601(r.text()?).ok()?;
                r.key("description")?;
                let description = r.text()?.to_string();
                r.key("displayName")?;
                let display_name = r.text()?.to_string();
                Record::FeedGenerator(FeedGeneratorRecord {
                    service_did,
                    display_name,
                    description,
                    created_at,
                })
            }
            known::LABELER_SERVICE => {
                if r.map()? != 3 {
                    return None;
                }
                r.key("$type")?;
                r.key(known::LABELER_SERVICE)?;
                r.key("policies")?;
                let len = r.array()?;
                let mut policies = Vec::with_capacity(len);
                for _ in 0..len {
                    if r.map()? != 3 {
                        return None;
                    }
                    r.key("blurs")?;
                    let blurs = r.text()?.to_string();
                    r.key("value")?;
                    let value = r.text()?.to_string();
                    r.key("severity")?;
                    let severity = r.text()?.to_string();
                    policies.push(LabelValueDefinition {
                        value,
                        severity,
                        blurs,
                    });
                }
                r.key("createdAt")?;
                let created_at = Datetime::parse_iso8601(r.text()?).ok()?;
                Record::LabelerService(LabelerServiceRecord {
                    policies,
                    created_at,
                })
            }
            _ => return None,
        };
        r.at_end().then_some(record)
    }

    /// Whether a block claims to be a record: a map with a text `$type` at
    /// its top level. An allocation-free head walk, for telling the record
    /// blocks of a CAR from its commit and MST node blocks (which carry no
    /// `$type`) without decoding any of them. On every block a repository
    /// exports it agrees with `Record::from_cbor(bytes).is_ok()`; a foreign
    /// block that claims a type and then fails its lexicon passes this probe
    /// and fails the decode, where the caller can count it.
    pub fn is_record_block(bytes: &[u8]) -> bool {
        cbor::map_text_field(bytes, "$type").is_some()
    }
}

// Typed field codecs. Each `encode_*` writes what `cbor::encode` writes for
// the `Value` that `to_value` builds for the same field; each `decode_*`
// reads exactly that back and nothing else.

fn encode_datetime(at: Datetime, out: &mut Vec<u8>) {
    raw::text_head(at.string_len(), out);
    at.write_to(out);
}

fn encode_did(did: &Did, out: &mut Vec<u8>) {
    raw::text_head(did.string_len(), out);
    did.write_to(out);
}

fn encode_uri(uri: &AtUri, out: &mut Vec<u8>) {
    raw::text_head(uri.string_len(), out);
    uri.write_to(out);
}

fn encode_texts(items: &[String], out: &mut Vec<u8>) {
    raw::array_head(items.len() as u64, out);
    for item in items {
        raw::text(item, out);
    }
}

fn decode_texts(r: &mut Reader<'_>) -> Option<Vec<String>> {
    let len = r.array()?;
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(r.text()?.to_string());
    }
    Some(items)
}

/// `{$type, subject, createdAt}`: the shape like, repost, follow and block
/// share. `subject` writes the subject as one text item.
fn encode_edge(
    kind: &str,
    created_at: Datetime,
    out: &mut Vec<u8>,
    subject: impl FnOnce(&mut Vec<u8>),
) {
    raw::map_head(3, out);
    raw::text("$type", out);
    raw::text(kind, out);
    raw::text("subject", out);
    subject(out);
    raw::text("createdAt", out);
    encode_datetime(created_at, out);
}

fn decode_edge<'a>(kind: &str, r: &mut Reader<'a>) -> Option<(&'a str, Datetime)> {
    if r.map()? != 3 {
        return None;
    }
    r.key("$type")?;
    r.key(kind)?;
    r.key("subject")?;
    let subject = r.text()?;
    r.key("createdAt")?;
    Some((subject, Datetime::parse_iso8601(r.text()?).ok()?))
}

fn encode_embed(embed: &Embed, out: &mut Vec<u8>) {
    raw::map_head(2, out);
    match embed {
        Embed::Images(images) => {
            raw::text("kind", out);
            raw::text("images", out);
            raw::text("images", out);
            raw::array_head(images.len() as u64, out);
            for image in images {
                raw::map_head(2, out);
                raw::text("alt", out);
                match &image.alt {
                    Some(alt) => raw::text(alt, out),
                    None => raw::null(out),
                }
                raw::text("mediaKind", out);
                raw::text(image.kind.as_str(), out);
            }
        }
        Embed::External { uri } => {
            raw::text("uri", out);
            raw::text(uri, out);
            raw::text("kind", out);
            raw::text("external", out);
        }
        Embed::Record(uri) => {
            raw::text("kind", out);
            raw::text("record", out);
            raw::text("record", out);
            encode_uri(uri, out);
        }
    }
}

fn decode_embed(r: &mut Reader<'_>) -> Option<Embed> {
    if r.map()? != 2 {
        return None;
    }
    match r.text()? {
        "uri" => {
            let uri = r.text()?.to_string();
            r.key("kind")?;
            r.key("external")?;
            return Some(Embed::External { uri });
        }
        "kind" => {}
        _ => return None,
    }
    match r.text()? {
        "images" => {
            r.key("images")?;
            let len = r.array()?;
            let mut images = Vec::with_capacity(len);
            for _ in 0..len {
                if r.map()? != 2 {
                    return None;
                }
                r.key("alt")?;
                let alt = if r.null() {
                    None
                } else {
                    Some(r.text()?.to_string())
                };
                r.key("mediaKind")?;
                let kind = MediaKind::parse(r.text()?).ok()?;
                images.push(ImageEmbed { alt, kind });
            }
            Some(Embed::Images(images))
        }
        "record" => {
            r.key("record")?;
            Some(Embed::Record(AtUri::parse(r.text()?).ok()?))
        }
        _ => None,
    }
}

fn embed_to_value(embed: &Embed) -> Value {
    match embed {
        Embed::Images(images) => Value::map([
            ("kind", Value::text("images")),
            (
                "images",
                Value::Array(
                    images
                        .iter()
                        .map(|img| {
                            Value::map([
                                (
                                    "alt",
                                    match &img.alt {
                                        Some(a) => Value::text(a),
                                        None => Value::Null,
                                    },
                                ),
                                ("mediaKind", Value::text(img.kind.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Embed::External { uri } => {
            Value::map([("kind", Value::text("external")), ("uri", Value::text(uri))])
        }
        Embed::Record(uri) => Value::map([
            ("kind", Value::text("record")),
            ("record", Value::text(uri.to_string())),
        ]),
    }
}

fn embed_from_value(value: &Value) -> Result<Embed> {
    let kind = value
        .get("kind")
        .and_then(Value::as_text)
        .ok_or_else(|| AtError::InvalidRecord("embed missing kind".into()))?;
    match kind {
        "images" => {
            let images = value
                .get("images")
                .and_then(Value::as_array)
                .ok_or_else(|| AtError::InvalidRecord("images embed missing images".into()))?
                .iter()
                .map(|img| -> Result<ImageEmbed> {
                    let alt = match img.get("alt") {
                        Some(Value::Text(s)) => Some(s.clone()),
                        _ => None,
                    };
                    let kind = MediaKind::parse(
                        img.get("mediaKind")
                            .and_then(Value::as_text)
                            .unwrap_or("photo"),
                    )?;
                    Ok(ImageEmbed { alt, kind })
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(Embed::Images(images))
        }
        "external" => Ok(Embed::External {
            uri: value
                .get("uri")
                .and_then(Value::as_text)
                .ok_or_else(|| AtError::InvalidRecord("external embed missing uri".into()))?
                .to_string(),
        }),
        "record" => Ok(Embed::Record(AtUri::parse(
            value
                .get("record")
                .and_then(Value::as_text)
                .ok_or_else(|| AtError::InvalidRecord("record embed missing record".into()))?,
        )?)),
        other => Err(AtError::InvalidRecord(format!(
            "unknown embed kind {other}"
        ))),
    }
}

#[cfg(test)]
const ALL_MEDIA_KINDS: [MediaKind; 10] = [
    MediaKind::Photo,
    MediaKind::Artwork,
    MediaKind::ScreenshotTwitter,
    MediaKind::ScreenshotBluesky,
    MediaKind::ScreenshotOther,
    MediaKind::GifTenor,
    MediaKind::GifOther,
    MediaKind::AiGenerated,
    MediaKind::Adult,
    MediaKind::Graphic,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn when() -> Datetime {
        Datetime::from_ymd_hms(2024, 4, 24, 12, 0, 0).unwrap()
    }

    fn alice() -> Did {
        Did::plc_from_seed(b"alice")
    }

    fn post_uri() -> AtUri {
        AtUri::record(alice(), Nsid::parse(known::POST).unwrap(), "3kdgeujwlq32y")
    }

    #[test]
    fn post_roundtrip_simple() {
        let record = Record::Post(PostRecord::simple("hello world", "en", when()));
        let back = Record::from_cbor(&record.to_cbor()).unwrap();
        assert_eq!(back, record);
        assert_eq!(record.collection().as_str(), known::POST);
        assert!(record.collection().is_bluesky_lexicon());
        assert_eq!(record.created_at(), Some(when()));
    }

    #[test]
    fn post_roundtrip_with_embeds_and_reply() {
        let record = Record::Post(PostRecord {
            text: "check this out".into(),
            created_at: when(),
            langs: vec!["en".into(), "ja".into()],
            reply_parent: Some(post_uri()),
            embed: Some(Embed::Images(vec![
                ImageEmbed {
                    alt: Some("a cat".into()),
                    kind: MediaKind::Photo,
                },
                ImageEmbed {
                    alt: None,
                    kind: MediaKind::GifTenor,
                },
            ])),
            tags: vec!["aiart".into()],
        });
        let back = Record::from_cbor(&record.to_cbor()).unwrap();
        assert_eq!(back, record);
        if let Record::Post(p) = &back {
            assert!(p.has_media_missing_alt());
            assert!(p.media_kinds().eq([MediaKind::Photo, MediaKind::GifTenor]));
        } else {
            panic!("expected post");
        }
    }

    #[test]
    fn external_and_record_embeds_roundtrip() {
        for embed in [
            Embed::External {
                uri: "https://tenor.com/view/123".into(),
            },
            Embed::Record(post_uri()),
        ] {
            let record = Record::Post(PostRecord {
                text: "embed test".into(),
                created_at: when(),
                langs: vec!["en".into()],
                reply_parent: None,
                embed: Some(embed.clone()),
                tags: vec![],
            });
            let back = Record::from_cbor(&record.to_cbor()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn graph_records_roundtrip() {
        let bob = Did::plc_from_seed(b"bob");
        for record in [
            Record::Like(LikeRecord {
                subject: post_uri(),
                created_at: when(),
            }),
            Record::Repost(RepostRecord {
                subject: post_uri(),
                created_at: when(),
            }),
            Record::Follow(FollowRecord {
                subject: bob.clone(),
                created_at: when(),
            }),
            Record::Block(BlockRecord {
                subject: bob,
                created_at: when(),
            }),
        ] {
            let back = Record::from_cbor(&record.to_cbor()).unwrap();
            assert_eq!(back, record);
            assert!(record.collection().is_bluesky_lexicon());
        }
    }

    #[test]
    fn profile_feedgen_labeler_roundtrip() {
        let records = [
            Record::Profile(ProfileRecord {
                display_name: "Alice".into(),
                description: "posting about art".into(),
                has_avatar: true,
                has_banner: false,
                created_at: when(),
            }),
            Record::FeedGenerator(FeedGeneratorRecord {
                service_did: Did::web("skyfeed.example").unwrap(),
                display_name: "cat-pics".into(),
                description: "all the cat pictures, nsfw excluded".into(),
                created_at: when(),
            }),
            Record::LabelerService(LabelerServiceRecord {
                policies: vec![
                    LabelValueDefinition {
                        value: "spoiler".into(),
                        severity: "inform".into(),
                        blurs: "content".into(),
                    },
                    LabelValueDefinition {
                        value: "no-alt-text".into(),
                        severity: "inform".into(),
                        blurs: "none".into(),
                    },
                ],
                created_at: when(),
            }),
        ];
        for record in records {
            let back = Record::from_cbor(&record.to_cbor()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn unknown_lexicon_roundtrip() {
        let record = Record::Unknown(UnknownRecord {
            record_type: Nsid::parse(known::WHTWND_ENTRY).unwrap(),
            value: Value::map([
                ("$type", Value::text(known::WHTWND_ENTRY)),
                ("title", Value::text("Long-form blogging on ATProto")),
                ("content", Value::text("# markdown body")),
                ("createdAt", Value::text(when().to_iso8601())),
            ]),
        });
        let back = Record::from_cbor(&record.to_cbor()).unwrap();
        assert_eq!(back.collection().as_str(), known::WHTWND_ENTRY);
        assert!(!back.collection().is_bluesky_lexicon());
        assert_eq!(back.created_at(), Some(when()));
    }

    #[test]
    fn from_value_rejects_missing_fields() {
        assert!(Record::from_value(&Value::map([("text", Value::text("x"))])).is_err());
        assert!(Record::from_value(&Value::map([
            ("$type", Value::text(known::POST)),
            ("text", Value::text("x")),
        ]))
        .is_err()); // missing createdAt
        assert!(Record::from_value(&Value::map([
            ("$type", Value::text(known::FOLLOW)),
            ("subject", Value::text("not-a-did")),
            ("createdAt", Value::text("2024-04-24")),
        ]))
        .is_err());
    }

    #[test]
    fn media_kind_roundtrip() {
        for kind in ALL_MEDIA_KINDS {
            assert_eq!(MediaKind::parse(kind.as_str()).unwrap(), kind);
        }
        assert!(MediaKind::parse("hologram").is_err());
    }
}

/// Seeded oracle tests: the typed codec against the generic one it must be
/// indistinguishable from (`to_value` / `from_value` over `cbor::encode` /
/// `cbor::decode`).
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::testrand::TestRng;
    use std::collections::BTreeMap;

    /// Text with lengths on both sides of the 24- and 256-byte heads, some
    /// of it non-ASCII.
    fn arb_text(rng: &mut TestRng) -> String {
        let len = match rng.below(10) {
            0 => 0,
            1 => 22 + rng.below(4) as usize,
            2 => 254 + rng.below(4) as usize,
            _ => rng.below(300) as usize,
        };
        let mut text = if rng.below(4) == 0 {
            "ラーメン é ".to_string()
        } else {
            String::new()
        };
        while text.len() < len {
            text.push((b'a' + rng.below(26) as u8) as char);
        }
        text
    }

    fn arb_did(rng: &mut TestRng) -> Did {
        if rng.below(3) == 0 {
            Did::web(&format!(
                "{}.{}.example",
                rng.lowercase(1, 12),
                rng.lowercase(1, 30)
            ))
            .unwrap()
        } else {
            Did::plc_from_seed(&rng.bytes(32))
        }
    }

    fn arb_uri(rng: &mut TestRng) -> AtUri {
        let did = arb_did(rng);
        let collection = match rng.below(4) {
            0 => Nsid::FEED_GENERATOR,
            1 => Nsid::parse("com.example.thing").unwrap(),
            _ => Nsid::POST,
        };
        match rng.below(8) {
            0 => AtUri::repo(did),
            _ => AtUri::record(did, collection, rng.lowercase(1, 16)),
        }
    }

    /// Mostly inside the study window; sometimes a year the fixed-width
    /// rendering does not cover (five digits, negative).
    fn arb_datetime(rng: &mut TestRng) -> Datetime {
        match rng.below(12) {
            0 => Datetime(253_402_300_800 + rng.below(1 << 36) as i64),
            1 => Datetime(-62_167_219_201 - rng.below(1 << 36) as i64),
            2 => Datetime(rng.below(86_400 * 366) as i64 - 86_400 * 183),
            _ => Datetime(1_668_000_000 + rng.below(50_000_000) as i64),
        }
    }

    fn arb_embed(rng: &mut TestRng) -> Embed {
        match rng.below(3) {
            0 => Embed::Images(
                (0..rng.below(4))
                    .map(|_| ImageEmbed {
                        alt: (rng.below(2) == 0).then(|| arb_text(rng)),
                        kind: ALL_MEDIA_KINDS[rng.below(10) as usize],
                    })
                    .collect(),
            ),
            1 => Embed::External {
                uri: format!("https://{}.example/{}", rng.lowercase(1, 9), arb_text(rng)),
            },
            _ => Embed::Record(arb_uri(rng)),
        }
    }

    fn arb_texts(rng: &mut TestRng) -> Vec<String> {
        (0..rng.below(4)).map(|_| rng.lowercase(0, 30)).collect()
    }

    /// One record of kind `kind` (0..9: the nine variants of [`Record`]).
    fn arb_record(rng: &mut TestRng, kind: u64) -> Record {
        let created_at = arb_datetime(rng);
        match kind {
            0 => Record::Post(PostRecord {
                text: arb_text(rng),
                created_at,
                langs: arb_texts(rng),
                reply_parent: (rng.below(3) == 0).then(|| arb_uri(rng)),
                embed: (rng.below(2) == 0).then(|| arb_embed(rng)),
                tags: arb_texts(rng),
            }),
            1 => Record::Like(LikeRecord {
                subject: arb_uri(rng),
                created_at,
            }),
            2 => Record::Repost(RepostRecord {
                subject: arb_uri(rng),
                created_at,
            }),
            3 => Record::Follow(FollowRecord {
                subject: arb_did(rng),
                created_at,
            }),
            4 => Record::Block(BlockRecord {
                subject: arb_did(rng),
                created_at,
            }),
            5 => Record::Profile(ProfileRecord {
                display_name: arb_text(rng),
                description: arb_text(rng),
                has_avatar: rng.below(2) == 0,
                has_banner: rng.below(2) == 0,
                created_at,
            }),
            6 => Record::FeedGenerator(FeedGeneratorRecord {
                service_did: arb_did(rng),
                display_name: arb_text(rng),
                description: arb_text(rng),
                created_at,
            }),
            7 => Record::LabelerService(LabelerServiceRecord {
                policies: (0..rng.below(4))
                    .map(|_| LabelValueDefinition {
                        value: rng.lowercase(0, 30),
                        severity: rng.lowercase(0, 8),
                        blurs: rng.lowercase(0, 8),
                    })
                    .collect(),
                created_at,
            }),
            _ => Record::Unknown(UnknownRecord {
                record_type: Nsid::WHTWND_ENTRY,
                value: Value::map([
                    ("$type", Value::text(known::WHTWND_ENTRY)),
                    ("title", Value::text(arb_text(rng))),
                    ("createdAt", Value::text(created_at.to_iso8601())),
                    ("visits", Value::Int(rng.next_u64() as i64 >> 8)),
                ]),
            }),
        }
    }

    /// What a decode came to, comparable across the two paths: the record,
    /// or the error's message.
    fn outcome(result: Result<Record>) -> std::result::Result<Record, String> {
        result.map_err(|e| e.to_string())
    }

    /// The reference decoder.
    fn generic(bytes: &[u8]) -> std::result::Result<Record, String> {
        outcome(cbor::decode(bytes).and_then(|value| Record::from_value(&value)))
    }

    #[test]
    fn typed_encoder_matches_the_generic_one_and_round_trips() {
        let mut rng = TestRng::new(0x7ec0de);
        for i in 0..900 {
            let kind = i % 9;
            let record = arb_record(&mut rng, kind);
            let bytes = record.to_cbor();
            assert_eq!(bytes, cbor::encode(&record.to_value()), "{record:?}");
            let decoded = outcome(Record::from_cbor(&bytes));
            assert_eq!(decoded, generic(&bytes), "{record:?}");
            // A negative year renders with a sign the parser has never
            // accepted (on either path); everything else comes back equal.
            let parseable = record.created_at().is_none_or(|at| at.date().year >= 0);
            assert_eq!(decoded.is_ok(), parseable, "{record:?}");
            if parseable {
                assert_eq!(decoded.as_ref(), Ok(&record));
                // ...and through the typed reader, not the fallback.
                assert_eq!(
                    Record::decode_canonical(&bytes).is_some(),
                    kind != 8,
                    "{record:?}"
                );
            }
        }
    }

    /// A test-only encoder that can break canonical form in chosen ways.
    struct Mangler<'a> {
        rng: &'a mut TestRng,
        /// Emit map keys in reverse canonical order.
        reverse_keys: bool,
        /// Encode every head argument below 24 in its two-byte form.
        long_heads: bool,
        /// Emit the first pair of the top-level map twice.
        duplicate_key: bool,
    }

    impl Mangler<'_> {
        fn head(&self, major: u8, arg: u64, out: &mut Vec<u8>) {
            if self.long_heads && arg < 24 {
                out.extend_from_slice(&[(major << 5) | 24, arg as u8]);
            } else {
                match major {
                    0 => raw::uint(arg, out),
                    3 => raw::text_head(arg as usize, out),
                    4 => raw::array_head(arg, out),
                    _ => raw::map_head(arg, out),
                }
            }
        }

        fn encode(&mut self, value: &Value, top: bool, out: &mut Vec<u8>) {
            match value {
                Value::Text(s) => {
                    self.head(3, s.len() as u64, out);
                    out.extend_from_slice(s.as_bytes());
                }
                Value::Int(i) if *i >= 0 => self.head(0, *i as u64, out),
                Value::Array(items) => {
                    self.head(4, items.len() as u64, out);
                    for item in items {
                        self.encode(item, false, out);
                    }
                }
                Value::Map(map) => {
                    let duplicate = top && self.duplicate_key && !map.is_empty();
                    self.head(5, map.len() as u64 + duplicate as u64, out);
                    let mut keys: Vec<&String> = map.keys().collect();
                    keys.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
                    if self.reverse_keys {
                        keys.reverse();
                    }
                    if duplicate {
                        keys.insert(self.rng.below(keys.len() as u64) as usize, keys[0]);
                    }
                    for key in keys {
                        self.head(3, key.len() as u64, out);
                        out.extend_from_slice(key.as_bytes());
                        self.encode(&map[key], false, out);
                    }
                }
                other => out.extend_from_slice(&cbor::encode(other)),
            }
        }
    }

    #[test]
    fn typed_decoder_is_indistinguishable_from_the_generic_one_under_mutation() {
        let mut rng = TestRng::new(0xdec0de);
        let mut mutations = 0;
        let mut accepted = 0;
        for i in 0..320 {
            let record = arb_record(&mut rng, i % 9);
            let canonical = record.to_cbor();
            let value = record.to_value();
            let mut cases: Vec<Vec<u8>> = Vec::new();
            // Raw damage: a truncation, two byte flips, trailing bytes.
            cases.push(canonical[..rng.below(canonical.len() as u64) as usize].to_vec());
            for _ in 0..2 {
                let mut flipped = canonical.clone();
                let at = rng.below(flipped.len() as u64) as usize;
                flipped[at] = rng.next_u64() as u8;
                cases.push(flipped);
            }
            let mut trailing = canonical.clone();
            trailing.extend_from_slice(&rng.bytes(4));
            trailing.push(0xf6);
            cases.push(trailing);
            // Valid CBOR that is not the canonical shape.
            for (reverse_keys, long_heads, duplicate_key) in [
                (true, false, false),
                (false, true, false),
                (false, false, true),
            ] {
                let mut out = Vec::new();
                Mangler {
                    rng: &mut rng,
                    reverse_keys,
                    long_heads,
                    duplicate_key,
                }
                .encode(&value, true, &mut out);
                cases.push(out);
            }
            // An extra field the lexicon does not know — valid, and then
            // with invalid UTF-8 inside it (the field a lenient reader
            // would skip without looking).
            let Value::Map(fields) = &value else {
                unreachable!("records are maps")
            };
            let mut extended: BTreeMap<String, Value> = fields.clone();
            extended.insert(rng.lowercase(1, 12), Value::text("zzzz-extra"));
            let with_extra = cbor::encode(&Value::Map(extended));
            let marker = with_extra
                .windows(4)
                .position(|w| w == b"zzzz")
                .expect("the extra field's text");
            let mut bad_utf8 = with_extra.clone();
            bad_utf8[marker] = 0xff;
            cases.push(with_extra);
            cases.push(bad_utf8);

            for bytes in cases {
                let typed = outcome(Record::from_cbor(&bytes));
                assert_eq!(typed, generic(&bytes), "{record:?} as {bytes:02x?}");
                mutations += 1;
                accepted += typed.is_ok() as u32;
            }
        }
        assert!(mutations >= 1500, "{mutations} mutations");
        // The mutations are not all rejections: the generic path accepts
        // reordered keys, long heads and extra fields, and so must this one.
        assert!(accepted >= 300, "{accepted} of {mutations} accepted");
    }
}
