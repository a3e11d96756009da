//! Lexicon record types.
//!
//! Repositories hold users' public actions — posts, likes, follows, blocks,
//! reposts, profiles — plus the declaration records for Feed Generators and
//! Labelers (§2). Records are typed by NSIDs and encoded as DAG-CBOR. The
//! `Unknown` variant carries records for third-party lexicons (e.g. the
//! WhiteWind blog entries observed in §4, "Non-Bluesky content").

use crate::aturi::AtUri;
use crate::cbor::Value;
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
    pub fn as_str(&self) -> &'static str {
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
    pub fn parse(s: &str) -> Result<MediaKind> {
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

    /// All media kinds (useful for generators and exhaustive tests).
    pub fn all() -> [MediaKind; 10] {
        [
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
        ]
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

    /// Whether the post has attached media.
    pub fn has_media(&self) -> bool {
        matches!(self.embed, Some(Embed::Images(_)))
    }

    /// Whether the post has attached media missing alt text.
    pub fn has_media_missing_alt(&self) -> bool {
        match &self.embed {
            Some(Embed::Images(images)) => images.iter().any(|i| i.alt.is_none()),
            _ => false,
        }
    }

    /// Iterate over attached media kinds.
    pub fn media_kinds(&self) -> Vec<MediaKind> {
        match &self.embed {
            Some(Embed::Images(images)) => images.iter().map(|i| i.kind).collect(),
            _ => Vec::new(),
        }
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
pub struct LabelValueDefinition {
    /// The label value, e.g. `spoiler`.
    pub value: String,
    /// Default severity (`inform`, `alert`, or `none`).
    pub severity: String,
    /// What the label blurs by default (`content`, `media`, or `none`).
    pub blurs: String,
}

/// `app.bsky.labeler.service` — a Labeler declaration (§2, §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelerServiceRecord {
    /// Declared label values and their default behaviour.
    pub policies: Vec<LabelValueDefinition>,
    /// Creation time.
    pub created_at: Datetime,
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
        let s = match self {
            Record::Post(_) => known::POST,
            Record::Like(_) => known::LIKE,
            Record::Repost(_) => known::REPOST,
            Record::Follow(_) => known::FOLLOW,
            Record::Block(_) => known::BLOCK,
            Record::Profile(_) => known::PROFILE,
            Record::FeedGenerator(_) => known::FEED_GENERATOR,
            Record::LabelerService(_) => known::LABELER_SERVICE,
            Record::Unknown(u) => return u.record_type.clone(),
        };
        Nsid::parse(s).expect("known NSIDs are valid")
    }

    /// Whether this record's lexicon is part of the Bluesky application.
    pub fn is_bluesky_lexicon(&self) -> bool {
        self.collection().is_bluesky_lexicon()
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
    pub fn to_value(&self) -> Value {
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
    pub fn from_value(value: &Value) -> Result<Record> {
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
        crate::cbor::encode(&self.to_value())
    }

    /// Decode from DAG-CBOR bytes.
    pub fn from_cbor(bytes: &[u8]) -> Result<Record> {
        Record::from_value(&crate::cbor::decode(bytes)?)
    }

    /// Whether a block claims to be a record: a map with a text `$type` at
    /// its top level. An allocation-free head walk, for telling the record
    /// blocks of a CAR from its commit and MST node blocks (which carry no
    /// `$type`) without decoding any of them. On every block a repository
    /// exports it agrees with `Record::from_cbor(bytes).is_ok()`; a foreign
    /// block that claims a type and then fails its lexicon passes this probe
    /// and fails the decode, where the caller can count it.
    pub fn is_record_block(bytes: &[u8]) -> bool {
        crate::cbor::map_text_field(bytes, "$type").is_some()
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
        assert!(record.is_bluesky_lexicon());
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
            assert!(p.has_media());
            assert!(p.has_media_missing_alt());
            assert_eq!(p.media_kinds(), vec![MediaKind::Photo, MediaKind::GifTenor]);
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
            assert!(record.is_bluesky_lexicon());
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
        assert!(!back.is_bluesky_lexicon());
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
        for kind in MediaKind::all() {
            assert_eq!(MediaKind::parse(kind.as_str()).unwrap(), kind);
        }
        assert!(MediaKind::parse("hologram").is_err());
    }
}
