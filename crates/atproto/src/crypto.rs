//! Minimal cryptographic primitives used by the repository layer.
//!
//! The study never needs real elliptic-curve cryptography: it only needs repo
//! commits to be *content addressed* and *attributable to a signing key* so
//! that sync, firehose and identity semantics hold. We therefore implement
//! SHA-256 from the FIPS 180-4 specification and build a deterministic
//! keyed-hash signature scheme (an HMAC-SHA-256 construction) on top of it.
//! This keeps the workspace free of external crypto dependencies while
//! exercising the same code paths a real deployment would (hashing every
//! record, signing every commit, verifying on ingest).

use crate::error::{AtError, Result};

/// Output size of SHA-256 in bytes.
pub(crate) const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub(crate) type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use bsky_atproto::crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(bsky_atproto::crypto::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feed bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.process_block(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Consume the hasher and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero padding then the 64-bit length.
        self.update_padding();
        let mut len_block = [0u8; 8];
        len_block.copy_from_slice(&bit_len.to_be_bytes());
        // After update_padding the buffer has exactly 56 bytes pending.
        self.buffer[56..64].copy_from_slice(&len_block);
        let block = self.buffer;
        self.process_block(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Write 0x80 then pad with zeros until 56 bytes are pending in the
        // final block (processing an extra block if necessary).
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pending = self.buffer_len;
        let pad_len = if pending < 56 {
            56 - pending
        } else {
            120 - pending
        };
        // Manually process without affecting total_len.
        let mut input = &pad[..pad_len];
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        if !input.is_empty() {
            self.buffer[self.buffer_len..self.buffer_len + input.len()].copy_from_slice(input);
            self.buffer_len += input.len();
        }
        debug_assert_eq!(self.buffer_len, 56);
    }

    #[allow(unsafe_code)] // dispatch into the audited `shani` fast path
    fn process_block(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `available()` confirmed the sha/ssse3/sse4.1 features.
            unsafe { shani::process_block(&mut self.state, block) };
            return;
        }
        self.process_block_scalar(block);
    }

    fn process_block_scalar(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Hardware SHA-256 block compression via the x86 SHA extensions, used when
/// the CPU advertises them (every block run through here produces exactly
/// the state transition of [`Sha256::process_block_scalar`] — pinned by the
/// `hardware_and_scalar_compression_agree` test). Round-constant vectors are
/// loaded from the same `K` table as the scalar path. Layout follows the
/// standard ABEF/CDGH register scheme of the extension.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // the one audited exception to the crate-wide deny
mod shani {
    use super::K;
    #[allow(clippy::wildcard_imports)]
    use core::arch::x86_64::*;

    /// One-time runtime feature probe.
    pub(crate) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    #[inline]
    unsafe fn load_k(round: usize) -> __m128i {
        _mm_loadu_si128(K.as_ptr().add(round).cast())
    }

    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features (checked by
    /// [`available`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(crate) unsafe fn process_block(state: &mut [u32; 8], block: &[u8; 64]) {
        // Big-endian 32-bit lane loads of the message block.
        let byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bu64 as i64, 0x0405060700010203u64 as i64);

        // Repack [a,b,c,d] / [e,f,g,h] into the ABEF / CDGH working pair.
        let mut tmp = _mm_loadu_si128(state.as_ptr().cast());
        let mut state1 = _mm_loadu_si128(state.as_ptr().add(4).cast());
        tmp = _mm_shuffle_epi32(tmp, 0xB1);
        state1 = _mm_shuffle_epi32(state1, 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, state1, 8);
        state1 = _mm_blend_epi16(state1, tmp, 0xF0);
        let abef_save = state0;
        let cdgh_save = state1;

        // Four-round step: feed W[i..i+4]+K[i..i+4] through both halves of
        // the state.
        macro_rules! rounds4 {
            ($wk:expr) => {{
                let mut msg = $wk;
                state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                msg = _mm_shuffle_epi32(msg, 0x0E);
                state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            }};
        }

        let mut msgs = [
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), byte_swap),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), byte_swap),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), byte_swap),
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), byte_swap),
        ];

        // Rounds 0-11: the schedule only needs the msg1 half so far.
        rounds4!(_mm_add_epi32(msgs[0], load_k(0)));
        rounds4!(_mm_add_epi32(msgs[1], load_k(4)));
        msgs[0] = _mm_sha256msg1_epu32(msgs[0], msgs[1]);
        rounds4!(_mm_add_epi32(msgs[2], load_k(8)));
        msgs[1] = _mm_sha256msg1_epu32(msgs[1], msgs[2]);

        // Rounds 12-51: full rotating schedule. In group `g` the vector
        // `msgs[g % 4]` carries W[4g..4g+4]; the next vector absorbs the
        // alignr/msg2 recurrence and the previous one starts msg1.
        for g in 3..=12 {
            let a = g % 4;
            rounds4!(_mm_add_epi32(msgs[a], load_k(4 * g)));
            let shifted = _mm_alignr_epi8(msgs[a], msgs[(a + 3) % 4], 4);
            msgs[(a + 1) % 4] = _mm_add_epi32(msgs[(a + 1) % 4], shifted);
            msgs[(a + 1) % 4] = _mm_sha256msg2_epu32(msgs[(a + 1) % 4], msgs[a]);
            msgs[(a + 3) % 4] = _mm_sha256msg1_epu32(msgs[(a + 3) % 4], msgs[a]);
        }

        // Rounds 52-63: drain the schedule (no further msg1 feeding needed).
        for g in 13..=14 {
            let a = g % 4;
            rounds4!(_mm_add_epi32(msgs[a], load_k(4 * g)));
            let shifted = _mm_alignr_epi8(msgs[a], msgs[(a + 3) % 4], 4);
            msgs[(a + 1) % 4] = _mm_add_epi32(msgs[(a + 1) % 4], shifted);
            msgs[(a + 1) % 4] = _mm_sha256msg2_epu32(msgs[(a + 1) % 4], msgs[a]);
        }
        rounds4!(_mm_add_epi32(msgs[3], load_k(60)));

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);

        // Unpack ABEF/CDGH back to [a,b,c,d] / [e,f,g,h].
        tmp = _mm_shuffle_epi32(state0, 0x1B);
        state1 = _mm_shuffle_epi32(state1, 0xB1);
        state0 = _mm_blend_epi16(tmp, state1, 0xF0);
        state1 = _mm_alignr_epi8(state1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), state0);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), state1);
    }
}

/// Hash a byte slice in one call.
pub(crate) fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// HMAC-SHA-256 keyed hash (RFC 2104 construction).
pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let d = sha256(key);
        key_block[..DIGEST_LEN].copy_from_slice(&d);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Render a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Parse lowercase/uppercase hex into bytes.
pub fn from_hex(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(AtError::InvalidCid(format!("odd hex length {}", s.len())));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| AtError::InvalidCid(format!("bad hex char {}", pair[0] as char)))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| AtError::InvalidCid(format!("bad hex char {}", pair[1] as char)))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// A signing key for repository commits and label streams.
///
/// The key is a 32-byte secret; the "public key" (the identifier placed in DID
/// documents) is the SHA-256 of the secret, which is enough for the simulated
/// network to verify attributions deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SigningKey {
    secret: [u8; 32],
}

/// A verifying (public) key derived from a [`SigningKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VerifyingKey {
    public: Digest,
}

/// A detached signature over a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Signature(pub Digest);

impl SigningKey {
    /// Derive a key deterministically from seed material (e.g. a DID string
    /// plus a per-network secret).
    pub(crate) fn from_seed(seed: &[u8]) -> Self {
        SigningKey {
            secret: sha256(seed),
        }
    }

    /// The matching verifying key.
    pub(crate) fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            public: sha256(&self.secret),
        }
    }

    /// Sign a message.
    pub(crate) fn sign(&self, message: &[u8]) -> Signature {
        // Bind the signature to the public key so two keys never produce the
        // same signature for the same message.
        let pk = self.verifying_key();
        let mut keyed = Vec::with_capacity(64);
        keyed.extend_from_slice(&self.secret);
        keyed.extend_from_slice(&pk.public);
        Signature(hmac_sha256(&keyed, message))
    }
}

// DID documents carry their key as an opaque string; only the tests render
// one from a key.
#[cfg(test)]
impl VerifyingKey {
    /// `did:key`-style multibase rendering used inside DID documents.
    pub(crate) fn to_multibase(&self) -> String {
        format!("zQ3sim{}", to_hex(&self.public))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On machines with the SHA extensions the hardware compression must
    /// reproduce the scalar path bit for bit — every CID and signature in
    /// the study depends on it. On machines without them, this degenerates
    /// to scalar-vs-scalar and passes trivially.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // exercises the audited `shani` fast path directly
    #[test]
    fn hardware_and_scalar_compression_agree() {
        if !shani::available() {
            return;
        }
        let mut state = H0;
        let mut scalar = Sha256::new();
        // A few hundred deterministic pseudo-random blocks, chained so state
        // divergence at any block propagates to the end.
        let mut seed = 0x1234_5678_9abc_def0u64;
        for _ in 0..256 {
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                chunk.copy_from_slice(&seed.to_le_bytes());
            }
            unsafe { shani::process_block(&mut state, &block) };
            scalar.process_block_scalar(&block);
            assert_eq!(state, scalar.state);
        }
    }

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_exact_block_boundaries() {
        // 55, 56, 63, 64, 65 bytes exercise every padding branch.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x61u8; n];
            let one_shot = sha256(&data);
            let mut inc = Sha256::new();
            for chunk in data.chunks(7) {
                inc.update(chunk);
            }
            assert_eq!(one_shot, inc.finalize(), "length {n}");
        }
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hmac_rfc4231_case1() {
        // RFC 4231 test case 1.
        let key = [0x0bu8; 20];
        let digest = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&digest),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let digest = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&digest),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let key = vec![0xaau8; 131];
        let digest = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&digest),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = (0u8..=255).collect::<Vec<_>>();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn signatures_verify_and_bind_to_key() {
        let k1 = SigningKey::from_seed(b"did:plc:alice");
        let k2 = SigningKey::from_seed(b"did:plc:bob");
        let msg = b"commit bytes";
        let sig = k1.sign(msg);
        assert_eq!(k1.sign(msg), sig);
        assert_ne!(k2.sign(msg), sig);
        assert_ne!(k1.sign(b"other message"), sig);
    }

    #[test]
    fn signing_is_deterministic() {
        let k = SigningKey::from_seed(b"seed");
        assert_eq!(k.sign(b"m"), k.sign(b"m"));
    }

    #[test]
    fn verifying_key_multibase_roundtrip() {
        let k = SigningKey::from_seed(b"did:plc:carol");
        let vk = k.verifying_key();
        let mb = vk.to_multibase();
        assert!(mb.starts_with("zQ3sim"));
        assert_eq!(from_hex(&mb["zQ3sim".len()..]).unwrap(), vk.public);
    }
}
