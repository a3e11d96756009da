//! Content identifiers (CIDs).
//!
//! ATProto addresses every repository node and record by a CID. We model a
//! CIDv1 with the DAG-CBOR codec and a SHA-256 multihash, rendered in a
//! base32-lower multibase, which is exactly the shape Bluesky uses
//! (`bafyrei...`). The binary layout is simplified (version byte, codec byte,
//! digest) but the string form, ordering and uniqueness properties match what
//! the measurement pipeline relies on.

use crate::crypto::{sha256, Digest, DIGEST_LEN};
use crate::error::{AtError, Result};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const BASE32_ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz234567";

/// Codec tag for DAG-CBOR blocks.
pub(crate) const CODEC_DAG_CBOR: u8 = 0x71;
/// Codec tag for raw blocks (e.g. blobs).
pub(crate) const CODEC_RAW: u8 = 0x55;
/// Length of the binary form: version, codec, hash tag, digest length, digest.
pub(crate) const CID_LEN: usize = 4 + DIGEST_LEN;

/// A content identifier: (version, codec, SHA-256 digest).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cid {
    codec: u8,
    digest: Digest,
}

/// A CID hashes to the first eight bytes of its digest: they are already a
/// uniform hash of the block. Equality stays the full 33 bytes, so two CIDs
/// that agree on those eight bytes (or differ only in codec) share a bucket
/// and nothing else.
impl Hash for Cid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut head = [0u8; 8];
        head.copy_from_slice(&self.digest[..8]);
        state.write_u64(u64::from_le_bytes(head));
    }
}

/// The pass-through hasher behind [`CidMap`] and `CidSet`: it hands back the
/// one `u64` [`Cid`]'s `Hash` writes. Unkeyed and unseeded, so a table's
/// layout — and with it a run — is the same every time.
///
/// An unkeyed hasher is acceptable for these keys because they are SHA-256
/// digests: every block taken off the simulated network is verified against
/// its CID by [`CarReader`](crate::repo::CarReader) before it reaches a
/// table, so steering a key into a chosen bucket costs the sender a hash
/// search per block.
///
/// The rule that goes with it: a hashed CID index is never iterated where
/// its order can reach bytes or a store's read or write order. Order is
/// produced at those sites — by sorting, or by an ordered map kept for that
/// purpose — and each such site says which bytes or which order depend on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CidHasher(u64);

impl Hasher for CidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = value;
    }

    /// Not reached by [`Cid`]; folds the bytes in so that any other key
    /// still hashes to something that depends on all of it.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }
}

/// A hash map keyed by CID (see [`CidHasher`]).
pub type CidMap<V> = HashMap<Cid, V, BuildHasherDefault<CidHasher>>;
/// A hash set of CIDs (see [`CidHasher`]).
pub(crate) type CidSet = HashSet<Cid, BuildHasherDefault<CidHasher>>;

impl Cid {
    /// CID of a DAG-CBOR encoded block.
    pub fn for_cbor(bytes: &[u8]) -> Cid {
        Cid {
            codec: CODEC_DAG_CBOR,
            digest: sha256(bytes),
        }
    }

    /// The codec byte.
    pub(crate) fn codec(&self) -> u8 {
        self.codec
    }

    /// The raw digest.
    pub(crate) fn digest(&self) -> &Digest {
        &self.digest
    }

    /// Binary form on the stack: version, codec, hash function tag, length,
    /// digest. What every encoder on the write path uses.
    pub(crate) fn to_array(self) -> [u8; CID_LEN] {
        let mut out = [0u8; CID_LEN];
        out[0] = 0x01; // CIDv1
        out[1] = self.codec;
        out[2] = 0x12; // sha2-256 multihash code
        out[3] = DIGEST_LEN as u8;
        out[4..].copy_from_slice(&self.digest);
        out
    }

    /// Parse the binary form produced by [`Self::to_array`].
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Cid> {
        if bytes.len() != CID_LEN {
            return Err(AtError::InvalidCid(format!(
                "bad CID length {}",
                bytes.len()
            )));
        }
        if bytes[0] != 0x01 || bytes[2] != 0x12 || bytes[3] != DIGEST_LEN as u8 {
            return Err(AtError::InvalidCid("bad CID header".into()));
        }
        let mut digest = [0u8; DIGEST_LEN];
        digest.copy_from_slice(&bytes[4..]);
        Ok(Cid {
            codec: bytes[1],
            digest,
        })
    }

    /// String form: multibase `b` prefix + base32-lower of the binary form.
    pub(crate) fn to_string_form(self) -> String {
        let mut s = String::with_capacity(60);
        s.push('b');
        base32_encode(&self.to_array(), &mut s);
        s
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_form())
    }
}

impl fmt::Debug for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cid({})", self.to_string_form())
    }
}

fn base32_encode(data: &[u8], out: &mut String) {
    let mut buffer: u64 = 0;
    let mut bits: u32 = 0;
    for &byte in data {
        buffer = (buffer << 8) | byte as u64;
        bits += 8;
        while bits >= 5 {
            bits -= 5;
            let idx = ((buffer >> bits) & 0x1f) as usize;
            out.push(BASE32_ALPHABET[idx] as char);
        }
    }
    if bits > 0 {
        let idx = ((buffer << (5 - bits)) & 0x1f) as usize;
        out.push(BASE32_ALPHABET[idx] as char);
    }
}

// A CID under the other codec a CAR may carry, for the tests (production
// builds only DAG-CBOR blocks).
#[cfg(test)]
impl Cid {
    /// CID of a raw (non-CBOR) block such as an image blob.
    pub(crate) fn for_raw(bytes: &[u8]) -> Cid {
        Cid {
            codec: CODEC_RAW,
            digest: sha256(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_is_deterministic_and_content_addressed() {
        let a = Cid::for_cbor(b"hello");
        let b = Cid::for_cbor(b"hello");
        let c = Cid::for_cbor(b"hello!");
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Codec participates in identity.
        assert_ne!(Cid::for_cbor(b"x"), Cid::for_raw(b"x"));
    }

    #[test]
    fn string_form_shape() {
        let cid = Cid::for_cbor(b"some record");
        let s = cid.to_string_form();
        assert!(s.starts_with('b'));
        assert!(s.len() > 50);
        assert!(s
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
    }

    #[test]
    fn roundtrip_string_and_bytes() {
        for payload in [&b""[..], b"a", b"abc", b"the quick brown fox"] {
            let cid = Cid::for_cbor(payload);
            assert_eq!(Cid::from_bytes(&cid.to_array()).unwrap(), cid);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Cid::from_bytes(&[1, 2, 3]).is_err());
        let mut bytes = Cid::for_cbor(b"x").to_array();
        bytes[0] = 0x02;
        assert!(Cid::from_bytes(&bytes).is_err());
    }

    /// The inverse of [`base32_encode`], kept here as the reference the
    /// encoder is checked against.
    fn base32_decode(s: &str) -> Vec<u8> {
        let mut buffer: u64 = 0;
        let mut bits: u32 = 0;
        let mut out = Vec::new();
        for c in s.bytes() {
            let val = BASE32_ALPHABET.iter().position(|&a| a == c).unwrap() as u64;
            buffer = (buffer << 5) | val;
            bits += 5;
            if bits >= 8 {
                bits -= 8;
                out.push(((buffer >> bits) & 0xff) as u8);
            }
        }
        out
    }

    #[test]
    fn base32_roundtrip_various_lengths() {
        for len in 0..40usize {
            let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let mut s = String::new();
            base32_encode(&data, &mut s);
            let back = base32_decode(&s);
            assert_eq!(back, data, "length {len}");
        }
    }

    #[test]
    fn ordering_is_stable() {
        let mut cids: Vec<Cid> = (0..10u8).map(|i| Cid::for_cbor(&[i])).collect();
        let mut cloned = cids.clone();
        cids.sort();
        cloned.sort_by_key(|c| *c.digest());
        // Ordering by digest matches derive(Ord) given equal codecs.
        assert_eq!(cids, cloned);
    }
}
