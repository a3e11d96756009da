//! `at://` URIs identifying records within the network.
//!
//! Records are addressed as `at://<did>/<collection>/<rkey>`, e.g.
//! `at://did:plc:.../app.bsky.feed.post/3kdgeujwlq32y` (§2). Feed generators
//! return lists of such URIs; the feed-post dataset joins them back to the
//! repository dataset (§3).

use crate::did::Did;
use crate::error::{AtError, Result};
use crate::nsid::Nsid;
use std::fmt;

/// A parsed `at://` URI.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtUri {
    did: Did,
    collection: Option<Nsid>,
    rkey: Option<String>,
}

impl AtUri {
    /// URI of a record.
    pub fn record(did: Did, collection: Nsid, rkey: impl Into<String>) -> AtUri {
        AtUri {
            did,
            collection: Some(collection),
            rkey: Some(rkey.into()),
        }
    }

    /// Parse an `at://` URI string.
    pub(crate) fn parse(s: &str) -> Result<AtUri> {
        let rest = s
            .strip_prefix("at://")
            .ok_or_else(|| AtError::InvalidAtUri(s.to_string()))?;
        let mut parts = rest.splitn(3, '/');
        let did_str = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| AtError::InvalidAtUri(s.to_string()))?;
        let did = Did::parse(did_str).map_err(|_| AtError::InvalidAtUri(s.to_string()))?;
        let collection = match parts.next() {
            Some(c) if !c.is_empty() => {
                Some(Nsid::parse(c).map_err(|_| AtError::InvalidAtUri(s.to_string()))?)
            }
            Some(_) => return Err(AtError::InvalidAtUri(s.to_string())),
            None => None,
        };
        let rkey = match parts.next() {
            Some(r) if !r.is_empty() => {
                if !r
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'.' || b == b'_')
                {
                    return Err(AtError::InvalidAtUri(s.to_string()));
                }
                Some(r.to_string())
            }
            Some(_) => return Err(AtError::InvalidAtUri(s.to_string())),
            None => None,
        };
        if collection.is_none() && rkey.is_some() {
            return Err(AtError::InvalidAtUri(s.to_string()));
        }
        Ok(AtUri {
            did,
            collection,
            rkey,
        })
    }

    /// The repository owner.
    pub fn did(&self) -> &Did {
        &self.did
    }

    /// The collection NSID, if this URI points at a record or collection.
    pub fn collection(&self) -> Option<&Nsid> {
        self.collection.as_ref()
    }

    /// Full string form, rendered with one exact-size allocation and no
    /// formatter — what map keys are built with. Equal to `to_string()`.
    pub fn as_string(&self) -> String {
        crate::did::rendered(self.string_len(), |out| self.write_to(out))
    }

    /// Length in bytes of the full string form, without rendering it.
    pub(crate) fn string_len(&self) -> usize {
        "at://".len()
            + self.did.as_str().len()
            + self.collection.as_ref().map_or(0, |c| 1 + c.string_len())
            + self.rkey.as_ref().map_or(0, |r| 1 + r.len())
    }

    /// Append the full string form to `out` (`Self::string_len` bytes).
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"at://");
        out.extend_from_slice(self.did.as_str().as_bytes());
        if let Some(c) = &self.collection {
            out.push(b'/');
            c.write_to(out);
        }
        if let Some(r) = &self.rkey {
            out.push(b'/');
            out.extend_from_slice(r.as_bytes());
        }
    }

    /// FNV-1a hash of the URI's canonical string form (`at://…`), computed
    /// without materializing the string — the AppView's post-shard routing
    /// hash, on the per-like/per-label hot path.
    pub fn shard_hash(&self) -> u64 {
        use crate::did::{fnv1a_64, FNV_OFFSET};
        let hash = fnv1a_64(b"at://", FNV_OFFSET);
        let mut hash = fnv1a_64(self.did.as_str().as_bytes(), hash);
        if let Some(c) = &self.collection {
            hash = fnv1a_64(b"/", hash);
            hash = fnv1a_64(c.as_str().as_bytes(), hash);
        }
        if let Some(r) = &self.rkey {
            hash = fnv1a_64(b"/", hash);
            hash = fnv1a_64(r.as_bytes(), hash);
        }
        hash
    }
}

impl fmt::Display for AtUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at://{}", self.did)?;
        if let Some(c) = &self.collection {
            write!(f, "/{c}")?;
        }
        if let Some(r) = &self.rkey {
            write!(f, "/{r}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for AtUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtUri({self})")
    }
}

impl std::str::FromStr for AtUri {
    type Err = AtError;
    fn from_str(s: &str) -> Result<AtUri> {
        AtUri::parse(s)
    }
}

// A repository URI (`at://<did>`) parses from the wire, but nothing in the
// simulation builds one; only the tests do.
#[cfg(test)]
impl AtUri {
    /// URI of an entire repository (`at://<did>`).
    pub(crate) fn repo(did: Did) -> AtUri {
        AtUri {
            did,
            collection: None,
            rkey: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsid::known;

    fn did() -> Did {
        Did::plc_from_seed(b"alice")
    }

    #[test]
    fn record_uri_roundtrip() {
        let uri = AtUri::record(did(), Nsid::parse(known::POST).unwrap(), "3kdgeujwlq32y");
        let s = uri.to_string();
        assert!(s.starts_with("at://did:plc:"));
        assert!(s.ends_with("/app.bsky.feed.post/3kdgeujwlq32y"));
        let parsed = AtUri::parse(&s).unwrap();
        assert_eq!(parsed, uri);
        assert_eq!(parsed.rkey.as_deref(), Some("3kdgeujwlq32y"));
    }

    #[test]
    fn repo_uri() {
        let uri = AtUri::repo(did());
        assert!(uri.collection().is_none() && uri.rkey.is_none());
        let parsed = AtUri::parse(&uri.to_string()).unwrap();
        assert_eq!(parsed, uri);
    }

    #[test]
    fn collection_only_uri() {
        let s = format!("at://{}/app.bsky.feed.post", did());
        let uri = AtUri::parse(&s).unwrap();
        assert!(uri.collection().is_some());
        assert!(uri.rkey.is_none());
    }

    #[test]
    fn rejects_invalid() {
        for s in [
            "",
            "http://example.com",
            "at://",
            "at://notadid/app.bsky.feed.post/abc",
            "at://did:plc:ewvi7nxzyoun6zhxrhs64oiz//abc",
            "at://did:plc:ewvi7nxzyoun6zhxrhs64oiz/notansid/abc",
            "at://did:plc:ewvi7nxzyoun6zhxrhs64oiz/app.bsky.feed.post/bad key",
        ] {
            assert!(AtUri::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn web_did_uris_work() {
        let uri = AtUri::record(
            Did::web("blog.example.org").unwrap(),
            Nsid::parse(known::WHTWND_ENTRY).unwrap(),
            "entry1",
        );
        let parsed = AtUri::parse(&uri.to_string()).unwrap();
        assert_eq!(parsed.did().to_string(), "did:web:blog.example.org");
    }

    #[test]
    fn shard_hash_is_the_fnv1a_of_the_string_form() {
        use crate::did::{fnv1a_64, FNV_OFFSET};
        for uri in [
            AtUri::repo(did()),
            AtUri::record(did(), Nsid::parse(known::POST).unwrap(), "3kdgeujwlq32y"),
            AtUri::record(
                Did::web("blog.example.org").unwrap(),
                Nsid::parse(known::WHTWND_ENTRY).unwrap(),
                "entry1",
            ),
        ] {
            assert_eq!(
                uri.shard_hash(),
                fnv1a_64(uri.to_string().as_bytes(), FNV_OFFSET),
                "{uri}"
            );
        }
    }

    #[test]
    fn identifier_writers_match_display() {
        // `string_len`, `write_to` and the pre-sized renderings of the four
        // rendered identifier types against `to_string()`, on seeded random values.
        use crate::datetime::Datetime;
        use crate::testrand::TestRng;
        use crate::tid::Tid;
        fn check(shown: String, len: usize, write: impl Fn(&mut Vec<u8>)) {
            assert_eq!(len, shown.len(), "{shown}");
            // Appends: what is already in the buffer stays.
            let mut out = b"\x00prefix".to_vec();
            write(&mut out);
            assert_eq!(&out[7..], shown.as_bytes(), "{shown}");
        }
        let mut rng = TestRng::new(0x1de4717);
        for round in 0..500 {
            let did = match round % 3 {
                0 => Did::web(&format!(
                    "{}.{}.example",
                    rng.lowercase(1, 20),
                    rng.lowercase(1, 60)
                ))
                .unwrap(),
                _ => Did::plc_from_seed(&rng.bytes(32)),
            };

            let nsid = match round % 4 {
                0 => Nsid::parse(&format!(
                    "com.{}.{}",
                    rng.lowercase(1, 20),
                    rng.lowercase(1, 20)
                ))
                .unwrap(),
                1 => Nsid::parse("com.atproto.label.defs#label").unwrap(),
                2 => Nsid::LIKE,
                _ => Nsid::POST,
            };
            check(nsid.to_string(), nsid.string_len(), |out| {
                nsid.write_to(out)
            });

            let uri = match round % 5 {
                0 => AtUri::repo(did.clone()),
                1 => AtUri::parse(&format!("at://{did}/{nsid}")).unwrap(),
                _ => AtUri::record(did.clone(), nsid.clone(), rng.lowercase(1, 24)),
            };
            check(uri.to_string(), uri.string_len(), |out| uri.write_to(out));
            assert_eq!(uri.as_string(), uri.to_string());

            let tid = match round % 2 {
                0 => Tid::from_micros(rng.next_u64(), rng.next_u64() as u16),
                _ => Tid::from_micros(rng.below(1 << 20), 0),
            };
            check(tid.to_string(), tid.string_len(), |out| tid.write_to(out));
            assert_eq!(tid.to_string_form(), tid.to_string());

            // The formatter's rendering, spelled out (Display itself goes
            // through the writer now): study-window dates, the epoch's
            // neighbourhood, five-digit and negative years.
            let at = match round % 4 {
                0 => Datetime(253_402_300_800 + rng.below(1 << 40) as i64),
                1 => Datetime(-62_167_219_201 - rng.below(1 << 40) as i64),
                2 => Datetime(rng.below(1 << 20) as i64 - (1 << 19)),
                _ => Datetime(1_668_000_000 + rng.below(50_000_000) as i64),
            };
            let (date, sod) = (at.date(), at.seconds_of_day());
            let formatted = format!(
                "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
                date.year,
                date.month,
                date.day,
                sod / 3600,
                sod % 3600 / 60,
                sod % 60
            );
            check(formatted.clone(), at.string_len(), |out| at.write_to(out));
            assert_eq!(at.to_iso8601(), formatted);
            assert_eq!(at.to_string(), formatted);
        }
    }
}
