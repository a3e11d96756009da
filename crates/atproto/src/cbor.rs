//! A DAG-CBOR subset encoder/decoder.
//!
//! All Bluesky records are encoded as CBOR (§2, "User Data Repositories").
//! This module implements the deterministic subset DAG-CBOR prescribes:
//! definite-length items only, canonical map-key ordering (shorter keys first,
//! then bytewise), 64-bit integers, UTF-8 strings, byte strings, arrays, maps,
//! booleans, null, and CID links (encoded as tag 42 over the binary CID with a
//! multibase-identity prefix byte, matching the IPLD convention).
//!
//! ## Two paths, one rule
//!
//! * **Generic**: [`Value`] with [`encode`] / [`decode`]. The data-model
//!   view: it takes any shape, sorts map keys itself and names what is wrong
//!   with a malformed input. It is the only path for shapes this workspace
//!   does not define (third-party lexicons held by
//!   [`crate::record::UnknownRecord`], anything off the wire that is not
//!   canonical), what the cold readers still use (a CAR's header, a commit's
//!   summary) and the reference every typed encoder and decoder is tested
//!   against.
//! * **Typed**: the [`raw`] writers and the borrowed `Reader`. One pass,
//!   no intermediate tree: an encoder that knows its shape emits the fields
//!   in canonical key order straight into the output buffer, and a decoder
//!   that knows its shape reads exactly that sequence straight off the slice.
//!
//! The rule that separates them: the typed path is for the shapes this
//! workspace itself emits (the eight modelled record kinds, commits, MST
//! nodes); everything else goes through
//! [`Value`]. A typed encoder must produce [`encode`]'s bytes for the
//! equivalent `Value`, and a typed decoder accepts only the canonical shape
//! and reports *any* deviation as `None`, on which its caller falls back to
//! [`decode`] — so what is accepted, what is rejected and every error message
//! are the generic path's by construction.

use crate::cid::{Cid, CID_LEN};
use crate::error::{AtError, Result};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// A CBOR data model value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer (covers both CBOR major types 0 and 1).
    Int(i64),
    /// UTF-8 text string.
    Text(String),
    /// Raw byte string.
    Bytes(Vec<u8>),
    /// Array of values.
    Array(Vec<Value>),
    /// String-keyed map.
    Map(BTreeMap<String, Value>),
    /// An IPLD link to another block.
    Link(Cid),
}

impl Value {
    /// Build a map from an iterator of pairs.
    pub fn map<I, K>(pairs: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Map(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Text helper.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Get a map field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// Interpret as text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret as boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Interpret as a link.
    pub(crate) fn as_link(&self) -> Option<&Cid> {
        match self {
            Value::Link(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Array(a) => write!(f, "array[{}]", a.len()),
            Value::Map(m) => write!(f, "map[{}]", m.len()),
            Value::Link(c) => write!(f, "link({c})"),
        }
    }
}

const MAJOR_UINT: u8 = 0;
const MAJOR_NEGINT: u8 = 1;
const MAJOR_BYTES: u8 = 2;
const MAJOR_TEXT: u8 = 3;
const MAJOR_ARRAY: u8 = 4;
const MAJOR_MAP: u8 = 5;
const MAJOR_TAG: u8 = 6;
const MAJOR_SIMPLE: u8 = 7;
const TAG_CID: u64 = 42;

/// Encode a value to DAG-CBOR bytes.
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

fn write_head(major: u8, arg: u64, out: &mut impl raw::Sink) {
    let mt = major << 5;
    if arg < 24 {
        out.push(mt | arg as u8);
    } else if arg <= u8::MAX as u64 {
        out.push(mt | 24);
        out.push(arg as u8);
    } else if arg <= u16::MAX as u64 {
        out.push(mt | 25);
        out.put(&(arg as u16).to_be_bytes());
    } else if arg <= u32::MAX as u64 {
        out.push(mt | 26);
        out.put(&(arg as u32).to_be_bytes());
    } else {
        out.push(mt | 27);
        out.put(&arg.to_be_bytes());
    }
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => raw::null(out),
        Value::Bool(b) => raw::bool(*b, out),
        Value::Int(i) => raw::int(*i, out),
        Value::Text(s) => raw::text(s, out),
        Value::Bytes(b) => raw::bytes(b, out),
        Value::Array(items) => {
            raw::array_head(items.len() as u64, out);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Map(map) => {
            raw::map_head(map.len() as u64, out);
            // DAG-CBOR canonical ordering: length first, then bytewise.
            let mut keys: Vec<&String> = map.keys().collect();
            keys.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
            for key in keys {
                raw::text(key, out);
                encode_into(&map[key], out);
            }
        }
        Value::Link(cid) => raw::link(cid, out),
    }
}

/// The streaming writer: one function per item kind, each appending to the
/// output buffer exactly the bytes [`encode`] produces for the equivalent
/// [`Value`]. For encoders that emit a fixed, known shape (records, commits,
/// MST nodes) without building a `Value` tree first. Callers
/// are responsible for emitting map keys in DAG-CBOR canonical order
/// (shorter first, then bytewise).
pub mod raw {
    use super::*;

    /// Where the writers put their bytes: a buffer, or anything else that
    /// takes bytes as they come (an MST node is hashed as it is encoded,
    /// without a buffer of its own).
    pub(crate) trait Sink {
        /// Append `bytes`.
        fn put(&mut self, bytes: &[u8]);

        /// Append one byte.
        fn push(&mut self, byte: u8) {
            self.put(&[byte]);
        }
    }

    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }

        fn push(&mut self, byte: u8) {
            Vec::push(self, byte);
        }
    }

    /// Map head for `len` pairs.
    pub(crate) fn map_head(len: u64, out: &mut impl Sink) {
        write_head(MAJOR_MAP, len, out);
    }

    /// Array head for `len` items.
    pub(crate) fn array_head(len: u64, out: &mut impl Sink) {
        write_head(MAJOR_ARRAY, len, out);
    }

    /// Head of a text string of `len` bytes; the caller appends exactly
    /// that many bytes of UTF-8 next (how identifiers are rendered in place
    /// instead of into a `String` first).
    pub(crate) fn text_head(len: usize, out: &mut impl Sink) {
        write_head(MAJOR_TEXT, len as u64, out);
    }

    /// Text string.
    pub(crate) fn text(s: &str, out: &mut impl Sink) {
        text_head(s.len(), out);
        out.put(s.as_bytes());
    }

    /// Byte string.
    pub(crate) fn bytes(b: &[u8], out: &mut impl Sink) {
        write_head(MAJOR_BYTES, b.len() as u64, out);
        out.put(b);
    }

    /// Non-negative integer.
    pub(crate) fn uint(value: u64, out: &mut impl Sink) {
        write_head(MAJOR_UINT, value, out);
    }

    /// Signed integer (major type 0 or 1).
    pub(crate) fn int(value: i64, out: &mut impl Sink) {
        if value >= 0 {
            write_head(MAJOR_UINT, value as u64, out);
        } else {
            write_head(MAJOR_NEGINT, (-1 - value) as u64, out);
        }
    }

    /// Boolean.
    pub(crate) fn bool(value: bool, out: &mut impl Sink) {
        out.push((MAJOR_SIMPLE << 5) | if value { 21 } else { 20 });
    }

    /// Null.
    pub(crate) fn null(out: &mut impl Sink) {
        out.push((MAJOR_SIMPLE << 5) | 22);
    }

    /// A tagged IPLD link (CID): tag 42 over the multibase identity prefix
    /// (0x00, per the DAG-CBOR CID convention) and the binary CID, written
    /// from the stack.
    pub(crate) fn link(cid: &Cid, out: &mut impl Sink) {
        write_head(MAJOR_TAG, TAG_CID, out);
        write_head(MAJOR_BYTES, (CID_LEN + 1) as u64, out);
        out.push(0x00);
        out.put(&cid.to_array());
    }
}

/// Encoded lengths, for callers that need the size of an encoding they
/// never build (the firehose's per-event wire accounting). Each mirrors the
/// arm of [`encode`] it is named after, byte for byte.
pub(crate) mod len {
    /// An item head carrying `arg`: any major type, string and array
    /// lengths included.
    pub(crate) fn head(arg: u64) -> usize {
        match arg {
            0..=23 => 1,
            24..=0xff => 2,
            0x100..=0xffff => 3,
            0x1_0000..=0xffff_ffff => 5,
            _ => 9,
        }
    }

    /// A `Value::Int`.
    pub(crate) fn int(value: i64) -> usize {
        head(if value >= 0 { value } else { -1 - value } as u64)
    }

    /// A `Value::Text` (or `Value::Bytes`) of `len` payload bytes.
    pub(crate) fn text(len: usize) -> usize {
        head(len as u64) + len
    }

    /// A `Value::Link`: tag 42, the head of a 37-byte string, the multibase
    /// identity prefix and the 36-byte binary CID.
    pub(crate) const LINK: usize = 2 + 2 + 1 + super::CID_LEN;
}

/// Decode DAG-CBOR bytes into a value, requiring that the whole input is
/// consumed.
pub fn decode(bytes: &[u8]) -> Result<Value> {
    let mut reader = Reader::new(bytes);
    let value = reader.read_value(0)?;
    if reader.pos != bytes.len() {
        return Err(AtError::CborDecode(format!(
            "{} trailing bytes",
            bytes.len() - reader.pos
        )));
    }
    Ok(value)
}

/// A cursor over encoded bytes. [`decode`] drives it to build a [`Value`];
/// its public methods are the typed path's reader (see the module docs):
/// each reads one item of the kind the caller expects, borrowed from the
/// input where it has a payload, and returns `None` for anything else —
/// another kind, a malformed or truncated item, an integer or a CID
/// [`decode`] would refuse. After a `None` the position is unspecified: the
/// caller's only move is to give the whole input to [`decode`]. Everything a
/// typed read accepts, [`decode`] accepts with the same meaning.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 64;

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Whether every byte of the input has been read. A typed decoder ends
    /// with this: trailing bytes are a deviation like any other.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The head of an item of major type `major`: its argument.
    fn head(&mut self, major: u8) -> Option<u64> {
        let initial = self.read_byte().ok()?;
        if initial >> 5 != major {
            return None;
        }
        self.read_arg(initial & 0x1f).ok()
    }

    /// The item count of a map or array head. Every item takes at least one
    /// byte, so a count beyond the bytes left is refused here: what is
    /// returned is safe to reserve space for.
    fn count(&mut self, major: u8) -> Option<usize> {
        let count = usize::try_from(self.head(major)?).ok()?;
        (count <= self.bytes.len() - self.pos).then_some(count)
    }

    /// A map head: the number of pairs that follow.
    pub(crate) fn map(&mut self) -> Option<usize> {
        self.count(MAJOR_MAP)
    }

    /// An array head: the number of items that follow.
    pub(crate) fn array(&mut self) -> Option<usize> {
        self.count(MAJOR_ARRAY)
    }

    /// A text string.
    pub(crate) fn text(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.head(MAJOR_TEXT)?).ok()?;
        std::str::from_utf8(self.read_slice(len).ok()?).ok()
    }

    /// The text string `name`, as a map key a typed decoder expects next
    /// (bytes equal to a `str`'s are UTF-8: nothing else to check).
    pub(crate) fn key(&mut self, name: &str) -> Option<()> {
        let len = usize::try_from(self.head(MAJOR_TEXT)?).ok()?;
        (self.read_slice(len).ok()? == name.as_bytes()).then_some(())
    }

    /// A boolean.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.read_byte().ok()? {
            0xf4 => Some(false),
            0xf5 => Some(true),
            _ => None,
        }
    }

    /// Consume a null if that is the next item; otherwise read nothing.
    pub(crate) fn null(&mut self) -> bool {
        let found = self.bytes.get(self.pos) == Some(&0xf6);
        self.pos += found as usize;
        found
    }

    fn read_byte(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| AtError::CborDecode("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    /// `len` comes straight off the wire, so the end offset is a checked sum.
    fn read_slice(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| AtError::CborDecode("unexpected end of input".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn read_arg(&mut self, info: u8) -> Result<u64> {
        match info {
            0..=23 => Ok(info as u64),
            24 => Ok(self.read_byte()? as u64),
            25 => {
                let s = self.read_slice(2)?;
                Ok(u16::from_be_bytes([s[0], s[1]]) as u64)
            }
            26 => {
                let s = self.read_slice(4)?;
                Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]) as u64)
            }
            27 => {
                let s = self.read_slice(8)?;
                Ok(u64::from_be_bytes([
                    s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
                ]))
            }
            _ => Err(AtError::CborDecode(format!(
                "indefinite-length or reserved additional info {info}"
            ))),
        }
    }

    /// The argument of a length-carrying head (strings, arrays, maps).
    fn read_len(&mut self, info: u8) -> Result<usize> {
        usize::try_from(self.read_arg(info)?)
            .map_err(|_| AtError::CborDecode("length exceeds address space".into()))
    }

    fn read_value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(AtError::CborDecode("nesting too deep".into()));
        }
        let initial = self.read_byte()?;
        let major = initial >> 5;
        let info = initial & 0x1f;
        match major {
            MAJOR_UINT => {
                let v = self.read_arg(info)?;
                if v > i64::MAX as u64 {
                    return Err(AtError::CborDecode("integer out of range".into()));
                }
                Ok(Value::Int(v as i64))
            }
            MAJOR_NEGINT => {
                let v = self.read_arg(info)?;
                if v >= i64::MAX as u64 {
                    return Err(AtError::CborDecode("integer out of range".into()));
                }
                Ok(Value::Int(-1 - v as i64))
            }
            MAJOR_BYTES => {
                let len = self.read_len(info)?;
                Ok(Value::Bytes(self.read_slice(len)?.to_vec()))
            }
            MAJOR_TEXT => {
                let len = self.read_len(info)?;
                let s = std::str::from_utf8(self.read_slice(len)?)
                    .map_err(|_| AtError::CborDecode("invalid UTF-8 in text string".into()))?;
                Ok(Value::Text(s.to_string()))
            }
            MAJOR_ARRAY => {
                let len = self.read_len(info)?;
                if len > self.bytes.len() {
                    return Err(AtError::CborDecode("array length exceeds input".into()));
                }
                let mut items = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    items.push(self.read_value(depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            MAJOR_MAP => {
                let len = self.read_len(info)?;
                if len > self.bytes.len() {
                    return Err(AtError::CborDecode("map length exceeds input".into()));
                }
                let mut map = BTreeMap::new();
                for _ in 0..len {
                    let key = match self.read_value(depth + 1)? {
                        Value::Text(s) => s,
                        other => {
                            return Err(AtError::CborDecode(format!("non-text map key: {other}")))
                        }
                    };
                    let value = self.read_value(depth + 1)?;
                    match map.entry(key) {
                        Entry::Vacant(slot) => {
                            slot.insert(value);
                        }
                        Entry::Occupied(slot) => {
                            return Err(AtError::CborDecode(format!(
                                "duplicate map key {:?}",
                                slot.key()
                            )))
                        }
                    }
                }
                Ok(Value::Map(map))
            }
            MAJOR_TAG => {
                let tag = self.read_arg(info)?;
                if tag != TAG_CID {
                    return Err(AtError::CborDecode(format!("unsupported tag {tag}")));
                }
                let inner = self.read_value(depth + 1)?;
                match inner {
                    Value::Bytes(b) if !b.is_empty() && b[0] == 0x00 => {
                        Ok(Value::Link(Cid::from_bytes(&b[1..]).map_err(|e| {
                            AtError::CborDecode(format!("bad CID in link: {e}"))
                        })?))
                    }
                    _ => Err(AtError::CborDecode(
                        "tag 42 must wrap identity CID bytes".into(),
                    )),
                }
            }
            MAJOR_SIMPLE => match info {
                20 => Ok(Value::Bool(false)),
                21 => Ok(Value::Bool(true)),
                22 => Ok(Value::Null),
                _ => Err(AtError::CborDecode(format!(
                    "unsupported simple value {info}"
                ))),
            },
            _ => unreachable!("major type is 3 bits"),
        }
    }

    /// Step over one value without building it: the head-walking twin of
    /// [`Reader::read_value`]. It follows the same framing rules (definite
    /// lengths, the same tag and simple values, bounded nesting, lengths
    /// checked against the input) and allocates nothing, but looks at no
    /// payload — UTF-8, integer range, CID bytes and duplicate keys go
    /// unchecked — so it answers "where does this value end", not "is it
    /// valid".
    fn skip_value(&mut self, depth: usize) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(AtError::CborDecode("nesting too deep".into()));
        }
        let initial = self.read_byte()?;
        let major = initial >> 5;
        let info = initial & 0x1f;
        match major {
            MAJOR_UINT | MAJOR_NEGINT => {
                self.read_arg(info)?;
            }
            MAJOR_BYTES | MAJOR_TEXT => {
                let len = self.read_len(info)?;
                self.read_slice(len)?;
            }
            MAJOR_ARRAY | MAJOR_MAP => {
                let len = self.read_len(info)?;
                if len > self.bytes.len() {
                    return Err(AtError::CborDecode("length exceeds input".into()));
                }
                let items = if major == MAJOR_MAP { len * 2 } else { len };
                for _ in 0..items {
                    self.skip_value(depth + 1)?;
                }
            }
            MAJOR_TAG => {
                let tag = self.read_arg(info)?;
                if tag != TAG_CID {
                    return Err(AtError::CborDecode(format!("unsupported tag {tag}")));
                }
                self.skip_value(depth + 1)?;
            }
            MAJOR_SIMPLE if matches!(info, 20..=22) => {}
            _ => {
                return Err(AtError::CborDecode(format!(
                    "unsupported simple value {info}"
                )))
            }
        }
        Ok(())
    }
}

/// The text stored under `key` in the top-level map of an encoded block,
/// borrowed from the input. `None` when the block is not a map, has a
/// non-text key or a non-text value under `key`, lacks the key, or is
/// malformed before the key is reached. Walks item heads only and allocates
/// nothing: the cheap way to ask what kind of block this is before paying
/// for [`decode`]. It vouches for nothing else about the block.
pub(crate) fn map_text_field<'a>(bytes: &'a [u8], key: &str) -> Option<&'a str> {
    let mut reader = Reader::new(bytes);
    let len = reader.map()?;
    // Every iteration consumes input or returns, so a crafted `len` cannot
    // make this loop longer than the block.
    for _ in 0..len {
        if reader.text()? == key {
            return reader.text();
        }
        reader.skip_value(1).ok()?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::to_hex;

    fn roundtrip(v: &Value) -> Value {
        decode(&encode(v)).expect("roundtrip decode")
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(23),
            Value::Int(24),
            Value::Int(255),
            Value::Int(256),
            Value::Int(65_536),
            Value::Int(4_294_967_296),
            Value::Int(-1),
            Value::Int(-24),
            Value::Int(-25),
            Value::Int(-1_000_000),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN + 1),
            Value::text(""),
            Value::text("hello"),
            Value::text("日本語のポスト"),
            Value::Bytes(vec![]),
            Value::Bytes(vec![1, 2, 3, 255]),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn lengths_match_the_encoder() {
        for v in [0, 23, 24, 255, 256, 65_535, 65_536, u32::MAX as i64] {
            for v in [v, v + 1, -v, -v - 1, -v - 2] {
                assert_eq!(len::int(v), encode(&Value::Int(v)).len(), "{v}");
            }
        }
        for v in [i64::MAX, i64::MIN + 1, i64::MIN] {
            assert_eq!(len::int(v), encode(&Value::Int(v)).len(), "{v}");
        }
        for n in [0, 23, 24, 255, 256, 65_535, 65_536] {
            assert_eq!(len::text(n), encode(&Value::text("x".repeat(n))).len());
            assert_eq!(len::text(n), encode(&Value::Bytes(vec![0; n])).len());
            assert_eq!(
                len::head(n as u64) + n,
                encode(&Value::Array(vec![Value::Null; n])).len()
            );
        }
        assert_eq!(len::LINK, encode(&Value::Link(Cid::for_raw(b"x"))).len());
    }

    #[test]
    fn known_encodings_match_rfc8949() {
        // Selected RFC 8949 appendix A vectors.
        assert_eq!(to_hex(&encode(&Value::Int(0))), "00");
        assert_eq!(to_hex(&encode(&Value::Int(10))), "0a");
        assert_eq!(to_hex(&encode(&Value::Int(100))), "1864");
        assert_eq!(to_hex(&encode(&Value::Int(1000))), "1903e8");
        assert_eq!(to_hex(&encode(&Value::Int(-10))), "29");
        assert_eq!(to_hex(&encode(&Value::Int(-100))), "3863");
        assert_eq!(to_hex(&encode(&Value::text("a"))), "6161");
        assert_eq!(to_hex(&encode(&Value::text("IETF"))), "6449455446");
        assert_eq!(to_hex(&encode(&Value::Bool(true))), "f5");
        assert_eq!(to_hex(&encode(&Value::Null)), "f6");
        assert_eq!(
            to_hex(&encode(&Value::Array(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(3)
            ]))),
            "83010203"
        );
    }

    #[test]
    fn nested_structures_roundtrip() {
        let post = Value::map([
            ("$type", Value::text("app.bsky.feed.post")),
            ("text", Value::text("Hello from the blue skies")),
            ("createdAt", Value::text("2024-04-24T13:05:09Z")),
            (
                "langs",
                Value::Array(vec![Value::text("en"), Value::text("pt")]),
            ),
            (
                "embed",
                Value::map([
                    ("imageCount", Value::Int(2)),
                    ("alt", Value::Null),
                    ("link", Value::Link(Cid::for_raw(b"image-bytes"))),
                ]),
            ),
        ]);
        assert_eq!(roundtrip(&post), post);
    }

    #[test]
    fn map_keys_are_canonically_ordered() {
        // "aa" (len 2) must sort before "b"? No: DAG-CBOR orders by length
        // first, so "b" (len 1) precedes "aa" (len 2).
        let v = Value::map([("aa", Value::Int(1)), ("b", Value::Int(2))]);
        let bytes = encode(&v);
        // map(2), text(1) 'b', 02, text(2) 'aa', 01
        assert_eq!(to_hex(&bytes), "a261620262616101");
        // Encoding is independent of insertion order.
        let v2 = Value::map([("b", Value::Int(2)), ("aa", Value::Int(1))]);
        assert_eq!(encode(&v2), bytes);
    }

    #[test]
    fn link_roundtrip() {
        let cid = Cid::for_cbor(b"a block");
        let v = Value::map([("root", Value::Link(cid))]);
        let back = roundtrip(&v);
        assert_eq!(back.get("root").unwrap().as_link().unwrap(), &cid);
    }

    #[test]
    fn decode_rejects_malformed() {
        // Truncated text string.
        assert!(decode(&[0x65, b'a', b'b']).is_err());
        // Indefinite-length array.
        assert!(decode(&[0x9f, 0x01, 0xff]).is_err());
        // Duplicate map keys.
        assert!(decode(&[0xa2, 0x61, b'a', 0x01, 0x61, b'a', 0x02]).is_err());
        // Non-text map key.
        assert!(decode(&[0xa1, 0x01, 0x01]).is_err());
        // Unknown tag.
        assert!(decode(&[0xc1, 0x01]).is_err());
        // Trailing garbage.
        assert!(decode(&[0x01, 0x02]).is_err());
        // Float (major 7, info 27) unsupported in our DAG-CBOR subset.
        assert!(decode(&[0xfb, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Absurd claimed array length.
        assert!(decode(&[0x9a, 0xff, 0xff, 0xff, 0xff]).is_err());
        // Empty input.
        assert!(decode(&[]).is_err());
        // A string length whose end offset overflows `usize` is a
        // truncation like any other, not a panic.
        let mut huge = vec![0x7b];
        huge.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode(&huge).is_err());
        assert!(map_text_field(&huge, "a").is_none());
    }

    #[test]
    fn duplicate_map_keys_are_rejected_by_name() {
        // Regression: the decoder used to clone every key of every map so
        // it could name a duplicate; the entry API names it without.
        let err = decode(&[0xa2, 0x61, b'a', 0x01, 0x61, b'a', 0x02]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "CBOR decode error: duplicate map key \"a\""
        );
        // Nested maps too, and the first occurrence is what a well-formed
        // sibling still decodes to.
        let nested = [
            0xa1, 0x61, b'm', 0xa2, 0x62, b'k', b'k', 0xf6, 0x62, b'k', b'k', 0xf5,
        ];
        assert!(decode(&nested)
            .unwrap_err()
            .to_string()
            .ends_with("duplicate map key \"kk\""));
        let fine = [
            0xa1, 0x61, b'm', 0xa2, 0x62, b'k', b'k', 0xf6, 0x62, b'k', b'l', 0xf5,
        ];
        let value = decode(&fine).unwrap();
        assert!(matches!(value.get("m"), Some(Value::Map(m)) if m.len() == 2));
    }

    #[test]
    fn map_text_field_finds_top_level_text_only() {
        let cid = Cid::for_cbor(b"x");
        let block = encode(&Value::map([
            ("a", Value::Int(-300)),
            ("nest", Value::map([("$type", Value::text("inner"))])),
            (
                "list",
                Value::Array(vec![
                    Value::Link(cid),
                    Value::Null,
                    Value::Bytes(vec![7; 300]),
                ]),
            ),
            ("$type", Value::text("app.bsky.feed.post")),
            ("zzzzzzzz", Value::Bool(true)),
        ]));
        assert_eq!(map_text_field(&block, "$type"), Some("app.bsky.feed.post"));
        // Keys sorting after, before and inside other values.
        assert_eq!(map_text_field(&block, "zzzzzzzz"), None, "not text");
        assert_eq!(map_text_field(&block, "a"), None, "not text");
        assert_eq!(map_text_field(&block, "missing"), None);
        // Only the top level is searched.
        let nested_only = encode(&Value::map([(
            "nest",
            Value::map([("$type", Value::text("inner"))]),
        )]));
        assert_eq!(map_text_field(&nested_only, "$type"), None);
        // Not a map, empty, truncated before the key, non-text key.
        assert_eq!(
            map_text_field(&encode(&Value::text("$type")), "$type"),
            None
        );
        assert_eq!(map_text_field(&[], "$type"), None);
        assert_eq!(map_text_field(&block[..10], "$type"), None);
        assert_eq!(map_text_field(&[0xa1, 0x01, 0x61, b'x'], "$type"), None);
        // A crafted pair count far beyond the input ends at the input.
        assert_eq!(
            map_text_field(&[0xbb, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0], "k"),
            None
        );
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut bytes = vec![0x81u8; 100]; // 100 nested single-element arrays...
        bytes.push(0x01); // ...terminating in the int 1
        assert!(decode(&bytes).is_err());
        let mut ok_bytes = vec![0x81u8; 10];
        ok_bytes.push(0x01);
        assert!(decode(&ok_bytes).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    fn arb_leaf(rng: &mut TestRng) -> Value {
        match rng.below(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => {
                let mut v = rng.next_u64() as i64;
                if v == i64::MIN {
                    v = 0;
                }
                Value::Int(v)
            }
            3 => Value::text(rng.lowercase(0, 24)),
            4 => Value::Bytes(rng.bytes(24)),
            _ => Value::Link(Cid::for_cbor(&rng.bytes(24))),
        }
    }

    fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
        if depth == 0 || rng.below(3) == 0 {
            return arb_leaf(rng);
        }
        if rng.below(2) == 0 {
            let len = rng.below(6) as usize;
            Value::Array((0..len).map(|_| arb_value(rng, depth - 1)).collect())
        } else {
            let len = rng.below(6) as usize;
            Value::Map(
                (0..len)
                    .map(|_| (rng.lowercase(1, 8), arb_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = TestRng::new(0xcb01);
        for _ in 0..200 {
            let v = arb_value(&mut rng, 3);
            let bytes = encode(&v);
            let back = decode(&bytes).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn decode_never_panics() {
        let mut rng = TestRng::new(0xcb02);
        for _ in 0..500 {
            let bytes = rng.bytes(256);
            let _ = decode(&bytes);
        }
    }

    #[test]
    fn skip_value_ends_where_read_value_ends() {
        // On everything the decoder accepts, the head walk consumes exactly
        // the same bytes; on random bytes it never panics and never accepts
        // a framing the decoder refuses for its length.
        let mut rng = TestRng::new(0xcb04);
        for _ in 0..300 {
            let mut bytes = encode(&arb_value(&mut rng, 3));
            let encoded = bytes.len();
            bytes.extend_from_slice(&rng.bytes(8));
            let mut reader = Reader::new(&bytes);
            reader.skip_value(0).unwrap();
            assert_eq!(reader.pos, encoded);
        }
        for _ in 0..500 {
            let bytes = rng.bytes(256);
            let mut skipper = Reader::new(&bytes);
            let mut decoder = Reader::new(&bytes);
            let skipped = skipper.skip_value(0).is_ok();
            if decoder.read_value(0).is_ok() {
                assert!(skipped);
                assert_eq!(skipper.pos, decoder.pos);
            }
            let _ = map_text_field(&bytes, "k");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut rng = TestRng::new(0xcb03);
        for _ in 0..100 {
            let v = arb_value(&mut rng, 3);
            assert_eq!(encode(&v), encode(&v));
        }
    }
}
