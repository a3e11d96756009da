//! Decentralized Identifiers (DIDs).
//!
//! Bluesky recognises two DID methods (§2 of the paper): `did:plc`, resolved
//! through the `plc.directory` service operated by Bluesky PBC, and `did:web`,
//! resolved through `https://<fqdn>/.well-known/did.json`. The immutable DID
//! is the primary key for a user across the whole network.
//!
//! # Representation
//!
//! A [`Did`] is its canonical text, `did:<method>:<identifier>`, held once in
//! one `Box<str>`. Every table that indexes by DID keys by `Did` itself and
//! looks up with `&Did` or, through `Borrow<str>`, with the `&str` it was read
//! from. Nothing inside the process renders a DID into a fresh key or parses
//! one back: text becomes a `Did` only where it comes off the wire
//! ([`Did::parse`], called by the record, AT-URI and DID-document decoders).
//!
//! The derived `Ord` compares the text, and that is the same order as the
//! parsed parts `(method, identifier)`: both methods start with `did:` and
//! first differ at `p` < `w`, which is [`DidMethod`]'s declared order, and
//! within a method the whole `did:<method>:` prefix is shared. So a
//! `BTreeMap<Did, _>` iterates exactly as one keyed by the rendered string or
//! by the parts, and the derived `Hash` is `str`'s, as `Borrow` requires.

use crate::crypto::{sha256, to_hex};
use crate::error::{AtError, Result};
use std::borrow::Borrow;
use std::fmt;

/// The DID method, which determines how the DID document is retrieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DidMethod {
    /// `did:plc` — resolved via the centralized PLC directory.
    Plc,
    /// `did:web` — resolved via the domain's `/.well-known/did.json`.
    Web,
}

/// A parsed DID, e.g. `did:plc:ewvi7nxzyoun6zhxrhs64oiz` or
/// `did:web:example.com`, held as its canonical text (see the module docs).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Did(Box<str>);

/// Alphabet used by PLC identifiers (base32-sortable, lowercase).
const PLC_ALPHABET: &[u8; 32] = b"234567abcdefghijklmnopqrstuvwxyz";
/// Length of the method-specific identifier of a `did:plc`.
pub(crate) const PLC_ID_LEN: usize = 24;

const PLC_PREFIX: &str = "did:plc:";
const WEB_PREFIX: &str = "did:web:";

impl Did {
    /// Parse a DID string.
    pub fn parse(s: &str) -> Result<Did> {
        let valid = if let Some(identifier) = s.strip_prefix(PLC_PREFIX) {
            is_plc_identifier(identifier)
        } else if let Some(domain) = s.strip_prefix(WEB_PREFIX) {
            is_web_domain(domain)
        } else {
            false
        };
        if !valid {
            return Err(AtError::InvalidDid(s.to_string()));
        }
        Ok(Did(s.into()))
    }

    /// Derive a deterministic `did:plc` from seed material (in the real PLC
    /// method the identifier is a hash of the genesis operation; we hash the
    /// seed, which preserves uniqueness and determinism).
    pub fn plc_from_seed(seed: &[u8]) -> Did {
        let digest = sha256(seed);
        let hex = to_hex(&digest);
        let mut did = String::with_capacity(PLC_PREFIX.len() + PLC_ID_LEN);
        did.push_str(PLC_PREFIX);
        for (i, b) in hex.bytes().enumerate().take(PLC_ID_LEN) {
            // Map each hex nibble character plus position into the PLC alphabet.
            let v = (b as usize + i * 7) % 32;
            did.push(PLC_ALPHABET[v] as char);
        }
        Did(did.into_boxed_str())
    }

    /// Construct a `did:web` for a domain.
    pub fn web(domain: &str) -> Result<Did> {
        let did = [WEB_PREFIX, domain].concat();
        if !is_web_domain(domain) {
            return Err(AtError::InvalidDid(did));
        }
        Ok(Did(did.into_boxed_str()))
    }

    /// The canonical text, `did:<method>:<identifier>`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The method of this DID.
    pub fn method(&self) -> DidMethod {
        if self.0.starts_with(PLC_PREFIX) {
            DidMethod::Plc
        } else {
            DidMethod::Web
        }
    }

    /// For `did:web`, the domain the DID document must be fetched from.
    pub fn web_domain(&self) -> Option<&str> {
        self.0.strip_prefix(WEB_PREFIX)
    }

    /// FNV-1a hash of the full DID string — the canonical entity-sharding
    /// hash: the workload plan partitions the population by it, and the
    /// AppView routes actors and graph edges by it, so both layers agree on
    /// which shard owns a DID.
    pub fn shard_hash(&self) -> u64 {
        fnv1a_64(self.0.as_bytes(), FNV_OFFSET)
    }
}

/// Whether `identifier` is a `did:plc` method-specific identifier: 24
/// characters of [`PLC_ALPHABET`].
fn is_plc_identifier(identifier: &str) -> bool {
    // The alphabet as two ranges: this runs per character of every DID read
    // off the wire, where a search of `PLC_ALPHABET` per byte was a third of
    // a record's decode.
    identifier.len() == PLC_ID_LEN
        && identifier
            .bytes()
            .all(|b| matches!(b, b'2'..=b'7' | b'a'..=b'z'))
}

/// Whether `domain` can be a `did:web` identifier: a dotted host name.
fn is_web_domain(domain: &str) -> bool {
    domain
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-')
        && !domain.starts_with('.')
        && !domain.ends_with('.')
        && domain.contains('.')
}

impl Borrow<str> for Did {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Render an identifier of `len` bytes through its buffer writer into a
/// `String` allocated once at its final size.
pub(crate) fn rendered(len: usize, write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::with_capacity(len);
    write(&mut out);
    String::from_utf8(out).expect("identifier writers append whole strs")
}

/// FNV-1a offset basis (the hash of the empty string).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step over a byte slice, continuing from `hash`
/// (start from [`FNV_OFFSET`]). Shared by every entity-sharding surface —
/// DIDs ([`Did::shard_hash`]) and AT-URIs (the AppView's post shards) — so
/// shard assignment is a stable pure function of the entity string.
pub fn fnv1a_64(bytes: &[u8], mut hash: u64) -> u64 {
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl fmt::Display for Did {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Did {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Did({self})")
    }
}

impl std::str::FromStr for Did {
    type Err = AtError;
    fn from_str(s: &str) -> Result<Did> {
        Did::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn parse_plc_did_from_paper() {
        let did = Did::parse("did:plc:ewvi7nxzyoun6zhxrhs64oiz").unwrap();
        assert_eq!(did.method(), DidMethod::Plc);
        assert_eq!(did.to_string(), "did:plc:ewvi7nxzyoun6zhxrhs64oiz");
        assert!(did.web_domain().is_none());
    }

    #[test]
    fn parse_labeler_dids_from_table6() {
        for s in [
            "did:plc:wp7hxfjl5l4zlptn7y6774lk",
            "did:plc:ar7c4by46qjdydhdevvrndac",
            "did:plc:newitj5jo3uel7o4mnf3vj2o",
            "did:plc:mjyeurqmqjeexbgigk3yytvb",
            "did:plc:bpkpvmwpd3nr2ry4btt55ack",
        ] {
            assert!(Did::parse(s).is_ok(), "{s}");
        }
    }

    #[test]
    fn parse_web_did() {
        let did = Did::parse("did:web:example.com").unwrap();
        assert_eq!(did.method(), DidMethod::Web);
        assert_eq!(did.web_domain(), Some("example.com"));
    }

    #[test]
    fn reject_malformed() {
        for s in [
            "",
            "did:",
            "did:plc:",
            "did:plc:short",
            "did:plc:UPPERCASEUPPERCASEUPPERC",
            "did:plc:0123456789abcdefghijklmn", // '0' and '1' not in alphabet
            "did:web:",
            "did:web:nodots",
            "did:web:.leading.dot",
            "did:web:trailing.dot.",
            "did:key:zabc",
            "plc:ewvi7nxzyoun6zhxrhs64oiz",
        ] {
            assert!(Did::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn seeded_plc_dids_are_deterministic_valid_and_distinct() {
        let mut seen = HashSet::new();
        for i in 0..5_000u32 {
            let did = Did::plc_from_seed(format!("user-{i}").as_bytes());
            assert_eq!(did, Did::plc_from_seed(format!("user-{i}").as_bytes()));
            // Re-parsing the rendered form succeeds.
            assert_eq!(Did::parse(&did.to_string()).unwrap(), did);
            assert!(seen.insert(did.to_string()), "collision at {i}");
        }
    }

    #[test]
    fn ordering_groups_by_method_then_id() {
        let a = Did::plc_from_seed(b"a");
        let b = Did::web("zzz.example").unwrap();
        assert!(a < b); // Plc < Web per enum ordering
    }

    #[test]
    fn from_str_works() {
        let did: Did = "did:web:blog.example.org".parse().unwrap();
        assert_eq!(did.method(), DidMethod::Web);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn seeded_dids_always_reparse() {
        let mut rng = TestRng::new(0xd1d);
        for _ in 0..200 {
            let seed = rng.bytes(48);
            let did = Did::plc_from_seed(&seed);
            assert_eq!(Did::parse(&did.to_string()).unwrap(), did);
        }
    }

    #[test]
    fn plc_identifier_check_is_the_alphabet() {
        for b in 0..=u8::MAX {
            let id = format!("{}{}", "a".repeat(PLC_ID_LEN - 1), b as char);
            let in_alphabet = b.is_ascii() && PLC_ALPHABET.contains(&b);
            assert_eq!(
                Did::parse(&format!("did:plc:{id}")).is_ok(),
                in_alphabet,
                "{b:#x}"
            );
        }
    }

    #[test]
    fn parser_never_panics() {
        let mut rng = TestRng::new(0xd1d2);
        for _ in 0..500 {
            let s = rng.junk_string(64);
            let _ = Did::parse(&s);
        }
    }

    #[test]
    fn shard_hash_is_the_fnv1a_of_the_string_form() {
        let mut rng = TestRng::new(0xd1d3);
        for _ in 0..100 {
            let did = Did::plc_from_seed(&rng.bytes(32));
            assert_eq!(
                did.shard_hash(),
                fnv1a_64(did.to_string().as_bytes(), FNV_OFFSET)
            );
        }
        let web = Did::web("example.com").unwrap();
        assert_eq!(
            web.shard_hash(),
            fnv1a_64(b"did:web:example.com", FNV_OFFSET)
        );
    }
}
