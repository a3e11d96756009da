//! Merkle Search Tree (MST).
//!
//! ATProto repositories store their record index in an MST: a deterministic,
//! content-addressed search tree whose shape depends only on the set of keys
//! it contains (never on insertion order). Keys are `<collection>/<rkey>`
//! strings and values are CIDs of the record blocks.
//!
//! The tree is **a live spine plus stubs, updated in place**. A key's layer is
//! the number of leading zero bit pairs of `sha256(key)`, exactly like the
//! reference implementation; a node at layer `L` holds the keys of layer `L`
//! in its key range, and every non-empty gap between them (and at both
//! ends) is a child node at layer `L - 1` — an entry-less pass-through node
//! where the gap's keys all sit further down. The root sits at the highest
//! layer any key has; the empty tree is one entry-less node at layer 0.
//! Because that shape is a pure function of the key set, identical contents
//! give identical node bytes and an identical root CID.
//!
//! Mutations keep the shape: an insert splits the gap subtree it lands in
//! around the new key, and a replace only swaps a value. There is no
//! removal: a key, once inserted, stays, so the tree only grows (a
//! repository only creates records). A write is one descent:
//! [`Mst::insert`] computes the key's layer once and walks down
//! to the node of that layer, where it either finds the key and swaps its
//! value or splits the gap for it, so the caller learns from the returned
//! previous value whether it created or replaced. Every node on the touched
//! path drops its memoised CID, so [`Mst::root_cid`] encodes and hashes that
//! path alone: a commit costs its batch, not its repository. The node tree
//! is the only copy of the mapping; lookups and ordered walks read it.
//! The tree is also the only copy of its node *blocks*: nothing stores
//! them, and `Mst::for_each_block` encodes them all while an archive is
//! written. Node blocks are encoded directly with [`crate::cbor`]'s raw
//! writers — byte-identical to the generic `Value` encoder, without
//! allocating a value tree per node — and a node that is only hashed is
//! encoded straight into the hasher.
//!
//! Node entries are **prefix-compressed on the wire**, as in the reference
//! implementation: within a node, each entry carries `p` (the number of key
//! bytes shared with the previous entry's key) and `k` (the remaining
//! suffix). Sibling record keys share long `<collection>/<rkey>` prefixes,
//! so this shrinks every node block — and with them full CAR exports and the
//! structural section of `getRepo(since)` deltas.
//!
//! *Keys.* The tree keeps its keys in that wire form too. All of a tree's
//! nodes sit in one arena and name each other by index, and a node keeps
//! its entries back to back in one byte record: per entry `p`, the suffix
//! length, the suffix, the value CID and — above layer 0, where a node can
//! have subtrees — the index of the subtree to its right. A node's first
//! key is whole (`p` is 0), so an entry costs its CID, its suffix and two
//! to six bytes, and no key costs an allocation of its own. Sealing copies
//! the stored `p` and suffix straight into the block. A search compares a
//! key with each entry's `p` and suffix without rebuilding the entry's key;
//! an ordered walk rebuilds keys in one fixed buffer of the longest length
//! `validate_key` admits, and a `p` or a suffix length is a byte, so
//! every key entering a tree is validated. An insert rewrites the `p` and
//! suffix of the entry after the new one, whose shared prefix can only
//! grow.
//!
//! *Stubs.* Most of a repository's tree is frozen: its record keys are
//! written in day order within each collection, so a new key lands at the
//! right edge of its collection, and a subtree behind that edge is never
//! touched again; only its CID is read, when its parent is hashed. When the
//! caller says which values it can draw again, and on which day each was
//! drawn (`Mst::collapse`), every maximal subtree whose values it can all
//! draw and whose gap is bounded by two such keys of one collection becomes
//! a *stub*: one entry-less node holding the subtree's CID, its layer and
//! the day range of its values, and the arena is rebuilt without the freed
//! slots. The root never collapses. What stays is the live spine: the paths
//! to the collections' right edges and the values that cannot be drawn. A
//! collapse walks every node but the stubs: the spine, and the few
//! released subtrees whose gap spans two collections.
//!
//! A stub is read only through its CID check. A descent that meets one
//! re-derives it (`Mst::open` for one key's path, `Mst::expand` for the
//! whole tree): the caller draws the stub's days again (`Draw`), the
//! drawn keys inside the stub's gap build a fresh tree, lifted to the
//! stub's layer, and it is grafted back only if it hashes to the stub's
//! CID. Anything else is an error, and the stub stays. [`Mst::insert`] and
//! `Mst::get` never see inside a stub: an insert whose key falls in one
//! is refused, a lookup panics, and a walk or a block export over one
//! panics; the repository opens or expands first.
//!
//! The tests pin the incremental tree, its encoder and the byte win over the
//! legacy full-key encoding against a rebuild-from-scratch reference builder
//! and a node decoder that live beside them under `#[cfg(test)]`, and the
//! collapsed tree against the same tree never collapsed.

use crate::cbor::raw::{self, Sink};
use crate::cid::{Cid, PACKED_LEN};
use crate::crypto::{sha256, Sha256};
use crate::error::{AtError, Result};
use std::cell::Cell;
use std::cmp::Ordering;

/// The fanout parameter: a key's layer is the number of leading zero *pairs of
/// bits* in its SHA-256 hash (fanout 4, as in the reference implementation).
const BITS_PER_LAYER: u32 = 2;

/// The longest key [`validate_key`] admits, and so the length of the buffer
/// an ordered walk rebuilds keys in ([`KeyBuf`]).
const MAX_KEY_LEN: usize = 256;

/// Compute the MST layer of a key.
pub(crate) fn key_layer(key: &str) -> u32 {
    let digest = sha256(key.as_bytes());
    let mut zeros = 0u32;
    for byte in digest {
        if byte == 0 {
            zeros += 8;
            continue;
        }
        zeros += byte.leading_zeros();
        break;
    }
    zeros / BITS_PER_LAYER
}

/// Validate an MST key (`<collection>/<rkey>`).
pub(crate) fn validate_key(key: &str) -> Result<()> {
    let (collection, rkey) = key
        .split_once('/')
        .ok_or_else(|| AtError::RepoError(format!("MST key missing '/': {key}")))?;
    if collection.is_empty() || rkey.is_empty() || key.len() > MAX_KEY_LEN {
        return Err(AtError::RepoError(format!("invalid MST key: {key}")));
    }
    if !key
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_' || b == b'/')
    {
        return Err(AtError::RepoError(format!("invalid MST key bytes: {key}")));
    }
    Ok(())
}

/// A node's memoised content address.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// Mutated since it was last hashed.
    Dirty,
    /// The CID its current bytes hash to.
    Hashed(Cid),
    /// A collapsed subtree ([`Mst::collapse`]): the CID of the subtree it
    /// stands for. The node holds no entry, and its `left` packs the day
    /// range its values were drawn on ([`days`]) instead of a child.
    Stub(Cid),
}

/// The day range a stub keeps in its `left`: the first day in the high
/// half, the last in the low.
fn days(left: NodeId) -> (u16, u16) {
    ((left >> 16) as u16, left as u16)
}

/// [`days`]'s inverse.
fn pack_days((first, last): (u16, u16)) -> NodeId {
    NodeId::from(first) << 16 | NodeId::from(last)
}

/// The day range of two sets of values together.
fn widen((first, last): (u16, u16), (from, to): (u16, u16)) -> (u16, u16) {
    (first.min(from), last.max(to))
}

/// A key around a gap, as [`Mst::collapse`] reads it: its bytes, and
/// whether its value's bytes are released.
type Bound<'k> = Option<(&'k [u8], bool)>;

/// Whether a gap is frozen: both keys around it are released, and they
/// share their collection, so every key inside it does too. A repository
/// writes a collection's keys in day order, so the gap is behind the
/// collection's newest key and no new key lands in it.
fn frozen(below: Bound<'_>, above: Bound<'_>) -> bool {
    let (Some((low, true)), Some((high, true))) = (below, above) else {
        return false;
    };
    let slash = low.iter().position(|&byte| byte == b'/');
    slash.is_some_and(|slash| common_prefix_len(low, high) > slash)
}

/// What re-derives a collapsed subtree: every `(key, value)` pair the days
/// `first..=last` drew. The tree keeps the pairs that fall in the
/// subtree's gap.
pub(crate) type Draw<'a> = dyn FnMut(u16, u16) -> Result<Vec<(String, Cid)>> + 'a;

/// A node's index in its tree's arena ([`Mst::nodes`]).
type NodeId = u32;

/// No node: an empty gap, or the end of the free list.
const NIL: NodeId = NodeId::MAX;

/// The bytes of an entry record besides its suffix and its right subtree:
/// `p`, the suffix length less one (a suffix is 1 to [`MAX_KEY_LEN`] bytes)
/// and the packed value CID.
const ENTRY_FIXED: usize = 2 + PACKED_LEN;

/// The bytes an entry's right subtree takes in a node at `layer`: its
/// [`NodeId`], or nothing at layer 0, where every gap is empty. Most entries
/// sit at layer 0 (a key's layer is 0 with odds of 3 in 4).
fn right_len(layer: u8) -> usize {
    4 * usize::from(layer > 0)
}

/// One entry of a node's record, read in place.
struct Entry<'r> {
    /// Where the entry starts in the record.
    at: usize,
    /// `p`: the key bytes shared with the previous entry's key.
    prefix: usize,
    /// `k`: the rest of the key.
    suffix: &'r [u8],
    value: &'r [u8; PACKED_LEN],
    /// The gap between this entry and the next.
    right: NodeId,
    /// Where the record's next entry starts.
    end: usize,
}

impl Entry<'_> {
    /// Where the value sits in the record.
    fn value_at(&self) -> usize {
        self.at + 2 + self.suffix.len()
    }

    /// Where the right subtree's index sits in the record (at layers above
    /// 0).
    fn right_at(&self) -> usize {
        self.value_at() + PACKED_LEN
    }

    fn value(&self) -> Cid {
        Cid::from_packed(self.value)
    }
}

/// Read the entry that starts at `at` in the record of a node at `layer`.
fn entry_at(record: &[u8], at: usize, layer: u8) -> Entry<'_> {
    let value_at = at + 3 + usize::from(record[at + 1]);
    let right_at = value_at + PACKED_LEN;
    let end = right_at + right_len(layer);
    Entry {
        at,
        prefix: usize::from(record[at]),
        suffix: &record[at + 2..value_at],
        value: record[value_at..right_at].try_into().expect("a packed CID"),
        right: match layer {
            0 => NIL,
            _ => NodeId::from_le_bytes(record[right_at..end].try_into().expect("a node index")),
        },
        end,
    }
}

/// Append an entry's `p` and suffix length to `out`. The caller has
/// validated the key, so `prefix + suffix_len` is at most [`MAX_KEY_LEN`]
/// and the suffix is not empty.
fn write_head(prefix: usize, suffix_len: usize, out: &mut impl Sink) {
    out.push(u8::try_from(prefix).expect("a prefix shorter than a key"));
    out.push(u8::try_from(suffix_len - 1).expect("a key of at most 256 bytes"));
}

/// Append the record of an entry of a node at `layer` to `out`.
fn write_entry(
    prefix: usize,
    suffix: &[u8],
    value: Cid,
    layer: u8,
    right: NodeId,
    out: &mut impl Sink,
) {
    write_head(prefix, suffix.len(), out);
    out.put(suffix);
    out.put(&value.to_packed());
    if layer > 0 {
        out.put(&right.to_le_bytes());
    }
}

/// An entry record and the new head of the entry after it, built on the
/// stack ([`Node::insert`]).
struct EntryBuf {
    len: usize,
    bytes: [u8; EntryBuf::CAPACITY],
}

impl EntryBuf {
    const CAPACITY: usize = ENTRY_FIXED + MAX_KEY_LEN + 4 + 2;
}

impl Sink for EntryBuf {
    fn put(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// Number of leading bytes two keys share.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A key rebuilt from prefix-compressed entries, in key order: each entry's
/// `p` cuts the previous key and its suffix extends it.
struct KeyBuf {
    len: usize,
    bytes: [u8; MAX_KEY_LEN],
}

impl KeyBuf {
    fn new() -> KeyBuf {
        KeyBuf {
            len: 0,
            bytes: [0; MAX_KEY_LEN],
        }
    }

    /// Step to `entry`'s key from the key of the entry before it, or from
    /// any key that sorts between the two (they share at least `p` bytes).
    fn step(&mut self, entry: &Entry<'_>) {
        let end = entry.prefix + entry.suffix.len();
        self.bytes[entry.prefix..end].copy_from_slice(entry.suffix);
        self.len = end;
    }

    fn get(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Hold the key `other` holds, copying its bytes alone.
    fn copy_from(&mut self, other: &KeyBuf) {
        self.bytes[..other.len].copy_from_slice(other.get());
        self.len = other.len;
    }
}

/// Where a key falls in one node.
struct Place {
    /// The first entry whose key is not below the key (the record's length
    /// when there is none).
    at: usize,
    /// The entry at `at` holds the key.
    found: bool,
    /// Where the index of the gap before `at` sits: `None` for the node's
    /// left subtree, else the offset of that index in the record (which a
    /// node at layer 0 does not store).
    gap: Option<usize>,
    /// Bytes the key shares with the key before `at` (0 when there is none):
    /// the key's `p` were it inserted here.
    shared_before: usize,
    /// Bytes the key shares with the key at `at`.
    shared_after: usize,
}

/// One tree node. Below the root a node is never vacant (it has an entry or
/// a left subtree) and sits exactly one layer under its parent.
#[derive(Debug, Clone)]
struct Node {
    /// The entries' records, back to back (see the module docs). Its
    /// capacity is never more than half again its length: a full record
    /// grows by half its length ([`splice`]), and the lower half of a split
    /// is shrunk to fit ([`Node::split_off`]). `Vec`'s own doubling would
    /// leave a tree built in key order — a repository's, whose record keys
    /// are timestamps — at twice the bytes it uses, while an exact size
    /// would reallocate every node on every write.
    record: Vec<u8>,
    /// The gap before the first entry.
    left: NodeId,
    memo: Cell<Memo>,
    /// At most 128: a digest has 256 bits.
    layer: u8,
}

/// Replace the `len` bytes of `record` at `at` with the longer `with`.
fn splice(record: &mut Vec<u8>, at: usize, len: usize, with: &[u8]) {
    let (old, grow) = (record.len(), with.len() - len);
    if record.capacity() < old + grow {
        record.reserve_exact(grow.max(old / 2));
    }
    record.resize(old + grow, 0);
    record.copy_within(at + len..old, at + with.len());
    record[at..at + with.len()].copy_from_slice(with);
}

impl Node {
    fn new(layer: u8, left: NodeId, record: Vec<u8>) -> Node {
        Node {
            record,
            left,
            memo: Cell::new(Memo::Dirty),
            layer,
        }
    }

    /// A node of one entry, `key` over `right`.
    fn single(layer: u8, left: NodeId, key: &[u8], value: Cid, right: NodeId) -> Node {
        let mut record = Vec::with_capacity(ENTRY_FIXED + key.len() + right_len(layer));
        write_entry(0, key, value, layer, right, &mut record);
        Node::new(layer, left, record)
    }

    fn is_vacant(&self) -> bool {
        self.record.is_empty() && self.left == NIL
    }

    fn is_stub(&self) -> bool {
        matches!(self.memo.get(), Memo::Stub(_))
    }

    fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let entry = (at < self.record.len()).then(|| entry_at(&self.record, at, self.layer))?;
            at = entry.end;
            Some(entry)
        })
    }

    /// Where `key` falls. Keys are compared without being rebuilt: an
    /// entry's key is the previous entry's first `p` bytes and its suffix,
    /// and the previous key sorts below `key`, sharing
    /// [`Place::shared_before`] bytes with it. A larger `p` puts the entry
    /// below `key` too, a smaller one above it, and only an equal one needs
    /// its suffix compared.
    fn place(&self, key: &[u8]) -> Place {
        let mut place = Place {
            at: self.record.len(),
            found: false,
            gap: None,
            shared_before: 0,
            shared_after: 0,
        };
        for entry in self.entries() {
            if entry.prefix > place.shared_before {
                place.gap = Some(entry.right_at());
                continue;
            }
            let mut shared = entry.prefix;
            let mut order = Ordering::Greater;
            if entry.prefix == place.shared_before {
                let rest = &key[shared..];
                let common = common_prefix_len(entry.suffix, rest);
                shared += common;
                order = entry.suffix[common..].cmp(&rest[common..]);
            }
            if order == Ordering::Less {
                place.gap = Some(entry.right_at());
                place.shared_before = shared;
                continue;
            }
            place.at = entry.at;
            place.found = order == Ordering::Equal;
            place.shared_after = shared;
            break;
        }
        place
    }

    /// The subtree in the gap [`Place::gap`] names; nothing hangs under a
    /// node at layer 0.
    fn gap(&self, gap: Option<usize>) -> NodeId {
        match gap {
            _ if self.layer == 0 => NIL,
            None => self.left,
            Some(at) => {
                NodeId::from_le_bytes(self.record[at..at + 4].try_into().expect("a node index"))
            }
        }
    }

    fn set_gap(&mut self, gap: Option<usize>, child: NodeId) {
        match gap {
            _ if self.layer == 0 => assert_eq!(child, NIL, "a subtree under layer 0"),
            None => self.left = child,
            Some(at) => self.record[at..at + 4].copy_from_slice(&child.to_le_bytes()),
        }
    }

    /// Subtrees in key order. Nothing hangs under a stub or a node at layer
    /// 0, so their entries are not read.
    fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (left, record): (NodeId, &[u8]) = if self.layer > 0 && !self.is_stub() {
            (self.left, &self.record)
        } else {
            (NIL, &[])
        };
        let mut at = 0;
        let rights = std::iter::from_fn(move || {
            let entry = (at < record.len()).then(|| entry_at(record, at, self.layer))?;
            at = entry.end;
            Some(entry.right)
        });
        std::iter::once(left)
            .chain(rights)
            .filter(|&child| child != NIL)
    }

    /// Insert an absent key at `place`, over the subtree `right`. The entry
    /// after it shares `place.shared_after` bytes with the key, no fewer
    /// than it shared with the key before, so its stored suffix loses the
    /// difference.
    fn insert(&mut self, place: &Place, key: &[u8], value: Cid, right: NodeId) {
        let mut with = EntryBuf {
            len: 0,
            bytes: [0; EntryBuf::CAPACITY],
        };
        let (prefix, layer) = (place.shared_before, self.layer);
        write_entry(prefix, &key[prefix..], value, layer, right, &mut with);
        let mut len = 0;
        if place.at < self.record.len() {
            let next = entry_at(&self.record, place.at, layer);
            let cut = place.shared_after - next.prefix;
            write_head(place.shared_after, next.suffix.len() - cut, &mut with);
            len = 2 + cut;
        }
        splice(&mut self.record, place.at, len, &with.bytes[..with.len]);
    }

    /// Cut the entries from `at` on out of this node into a record of their
    /// own, whose first entry's key is stored whole: the first `p` bytes of
    /// `key`, which that entry's key shares ([`Node::place`]), and its
    /// suffix. What stays is shrunk to fit: in a tree built in key order
    /// the key that splits a node closes it, as every later key sorts after
    /// that one.
    fn split_off(&mut self, at: usize, key: &[u8]) -> Vec<u8> {
        let mut upper = Vec::new();
        if at < self.record.len() {
            let entry = entry_at(&self.record, at, self.layer);
            let rest = &self.record[at + 2..];
            upper.reserve_exact(2 + entry.prefix + rest.len());
            write_head(0, entry.prefix + entry.suffix.len(), &mut upper);
            upper.extend_from_slice(&key[..entry.prefix]);
            upper.extend_from_slice(rest);
            self.record.truncate(at);
        }
        self.record.shrink_to_fit();
        upper
    }

    /// The memoised CID, or a stub's; every reader seals the tree first.
    fn cid(&self) -> Cid {
        match self.memo.get() {
            Memo::Hashed(cid) | Memo::Stub(cid) => cid,
            Memo::Dirty => panic!("MST node read before it was hashed"),
        }
    }

    /// Rewrite the index of every subtree of this node through `moved`,
    /// which moves the subtree and returns where it now sits.
    fn move_children(&mut self, moved: &mut dyn FnMut(NodeId) -> NodeId) {
        if self.is_stub() || self.layer == 0 {
            return;
        }
        if self.left != NIL {
            self.left = moved(self.left);
        }
        let mut at = 0;
        while at < self.record.len() {
            let entry = entry_at(&self.record, at, self.layer);
            let (right, right_at) = (entry.right, entry.right_at());
            at = entry.end;
            if right != NIL {
                let id = moved(right);
                self.record[right_at..right_at + 4].copy_from_slice(&id.to_le_bytes());
            }
        }
    }
}

/// Take the subtree at `id` out of the arena `from`, children first,
/// handing each node to `place`, which returns its new index; returns the
/// subtree's.
fn move_subtree(from: &mut [Node], id: NodeId, place: &mut dyn FnMut(Node) -> NodeId) -> NodeId {
    let mut node = std::mem::replace(&mut from[id as usize], Node::new(0, NIL, Vec::new()));
    node.move_children(&mut |child| move_subtree(from, child, place));
    place(node)
}

/// The bytes [`Hashing`] gathers before it hashes them.
const HASHING_BLOCK: usize = 512;

/// A node block on its way into the hasher: the raw writers' small pieces
/// are gathered on the stack and hashed a block at a time.
struct Hashing {
    hasher: Sha256,
    len: usize,
    block: [u8; HASHING_BLOCK],
}

impl Sink for Hashing {
    fn put(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > HASHING_BLOCK {
            self.hasher.update(&self.block[..self.len]);
            self.len = 0;
        }
        if bytes.len() > HASHING_BLOCK {
            self.hasher.update(bytes);
        } else {
            self.block[self.len..self.len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len();
        }
    }
}

impl Hashing {
    fn cid(mut self) -> Cid {
        self.hasher.update(&self.block[..self.len]);
        Cid::for_cbor_digest(self.hasher.finalize())
    }
}

/// A content-addressed key→CID index.
///
/// The node tree under `root` is the authoritative state; see the module
/// docs for its shape and layout and how mutations maintain it.
#[derive(Debug, Clone)]
pub struct Mst {
    /// Every node of the tree, and the free slots a split left behind.
    nodes: Vec<Node>,
    root: NodeId,
    /// The first free slot of `nodes`; each free slot's `left` names the
    /// next.
    free: NodeId,
    /// Keys, the ones under stubs included.
    len: usize,
    /// Stubs in the tree ([`Mst::collapse`]).
    stubs: usize,
    /// Nodes hashed so far, the unit of the tests' work bounds.
    hashed: Cell<u64>,
}

impl Default for Mst {
    fn default() -> Mst {
        Mst {
            nodes: vec![Node::new(0, NIL, Vec::new())],
            root: 0,
            free: NIL,
            len: 0,
            stubs: 0,
            hashed: Cell::new(0),
        }
    }
}

impl PartialEq for Mst {
    fn eq(&self, other: &Mst) -> bool {
        // Memos and the arena's layout are derived state; two trees are
        // equal iff their contents are. Like any walk, this panics on a
        // collapsed subtree.
        let mut theirs = Vec::with_capacity(other.len);
        other.for_each_entry(|key, value| theirs.push((key.to_owned(), value)));
        let mut theirs = theirs.into_iter();
        let mut same = self.len == other.len;
        self.for_each_entry(|key, value| {
            same &= theirs.next().is_some_and(|(k, v)| k == key && v == value);
        });
        same
    }
}

impl Eq for Mst {}

impl Mst {
    /// Create an empty tree.
    pub(crate) fn new() -> Mst {
        Mst::default()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id as usize]
    }

    /// Put `node` in a free slot, or at the end of the arena, which grows
    /// by half its length when full ([`Node::record`] says why).
    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free == NIL {
            if self.nodes.len() == self.nodes.capacity() {
                self.nodes.reserve_exact(self.nodes.len() / 2 + 1);
            }
            self.nodes.push(node);
            return NodeId::try_from(self.nodes.len() - 1).expect("MST arena exceeds 2^32 nodes");
        }
        let id = self.free;
        self.free = std::mem::replace(self.node_mut(id), node).left;
        id
    }

    /// Drop a node's memoised CID ahead of a mutation.
    fn touch(&self, id: NodeId) {
        self.node(id).memo.set(Memo::Dirty);
    }

    /// Return a vacant node's slot to the free list.
    fn release(&mut self, id: NodeId) {
        let free = self.free;
        *self.node_mut(id) = Node::new(0, free, Vec::new());
        self.free = id;
    }

    /// Insert or replace a key, returning the previous value if any. A key
    /// that falls in a collapsed subtree is refused: `Mst::open` re-derives
    /// the subtree first.
    pub fn insert(&mut self, key: &str, cid: Cid) -> Result<Option<Cid>> {
        validate_key(key)?;
        if self.stubs > 0 && self.descend(key.as_bytes()).is_err() {
            return Err(AtError::RepoError(format!(
                "{key} falls in a collapsed subtree"
            )));
        }
        Ok(self.set(key, cid))
    }

    /// [`Mst::insert`] of a key the caller has already validated, and whose
    /// path meets no stub.
    pub(crate) fn set(&mut self, key: &str, cid: Cid) -> Option<Cid> {
        let layer = u8::try_from(key_layer(key)).expect("a layer of a 256-bit digest");
        let key = key.as_bytes();
        let root = self.root;
        if self.len == 0 {
            self.touch(root);
            self.node_mut(root).layer = layer;
        }
        let old = if layer > self.node(root).layer {
            // The key becomes the only entry of a new, higher root; the old
            // root splits around it and each half is lifted to sit just
            // under the new one.
            let (before, after) = self.split(root, key);
            let before = self.lift(before, layer - 1);
            let after = self.lift(after, layer - 1);
            self.root = self.alloc(Node::single(layer, before, key, cid, after));
            None
        } else {
            self.upsert(root, key, layer, cid)
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Insert or replace a key of `layer <= node.layer` in the subtree at
    /// `id`, returning the previous value. One descent: the key can only
    /// sit in the node of its own layer, so the nodes above it just pick the
    /// gap to go down, and only a real change dirties the path back up.
    fn upsert(&mut self, id: NodeId, key: &[u8], layer: u8, value: Cid) -> Option<Cid> {
        let node = self.node(id);
        assert!(!node.is_stub(), "a write into a collapsed subtree");
        let place = node.place(key);
        let gap = node.gap(place.gap);
        if layer < node.layer {
            let old = if gap == NIL {
                let below = node.layer - 1;
                let leaf = self.alloc(Node::single(layer, NIL, key, value, NIL));
                let lifted = self.lift(leaf, below);
                self.node_mut(id).set_gap(place.gap, lifted);
                None
            } else {
                self.upsert(gap, key, layer, value)
            };
            if old != Some(value) {
                self.touch(id);
            }
            return old;
        }
        if place.found {
            let entry = entry_at(&node.record, place.at, node.layer);
            let (old, at) = (entry.value(), entry.value_at());
            self.node_mut(id).record[at..at + PACKED_LEN].copy_from_slice(&value.to_packed());
            if old != value {
                self.touch(id);
            }
            return Some(old);
        }
        // The gap the key lands in splits around it.
        self.touch(id);
        let (before, after) = self.split(gap, key);
        let node = self.node_mut(id);
        node.set_gap(place.gap, before);
        node.insert(&place, key, value, after);
        None
    }

    /// Split the subtree at `id` around an absent key that belongs above
    /// it: the keys before it and the keys after it, each still a valid gap
    /// at that layer.
    fn split(&mut self, id: NodeId, key: &[u8]) -> (NodeId, NodeId) {
        if id == NIL {
            return (NIL, NIL);
        }
        assert!(!self.node(id).is_stub(), "a split of a collapsed subtree");
        self.touch(id);
        let node = self.node(id);
        let place = node.place(key);
        let gap = node.gap(place.gap);
        let (before, after) = self.split(gap, key);
        let node = self.node_mut(id);
        node.set_gap(place.gap, before);
        let upper = Node::new(node.layer, after, node.split_off(place.at, key));
        let upper = if upper.is_vacant() {
            NIL
        } else {
            self.alloc(upper)
        };
        if self.node(id).is_vacant() {
            self.release(id);
            return (NIL, upper);
        }
        (id, upper)
    }

    /// Wrap a subtree in entry-less pass-through nodes up to `layer`.
    fn lift(&mut self, mut id: NodeId, layer: u8) -> NodeId {
        if id == NIL {
            return NIL;
        }
        while self.node(id).layer < layer {
            id = self.alloc(Node::new(self.node(id).layer + 1, id, Vec::new()));
        }
        id
    }

    /// Look up a key.
    ///
    /// # Panics
    ///
    /// When the key falls in a collapsed subtree: [`Mst::open`] re-derives
    /// it first.
    pub(crate) fn get(&self, key: &str) -> Option<Cid> {
        self.descend(key.as_bytes())
            .unwrap_or_else(|_| panic!("{key} is looked up in a collapsed subtree"))
    }

    /// [`Mst::get`], answering `None` for a key that falls in a collapsed
    /// subtree.
    pub(crate) fn get_live(&self, key: &str) -> Option<Cid> {
        self.descend(key.as_bytes()).ok().flatten()
    }

    /// The one descent of a lookup: the key's value, or `Err` with the stub
    /// the key falls in.
    fn descend(&self, key: &[u8]) -> std::result::Result<Option<Cid>, NodeId> {
        let mut id = self.root;
        loop {
            let node = self.node(id);
            if node.is_stub() {
                return Err(id);
            }
            let place = node.place(key);
            if place.found {
                return Ok(Some(entry_at(&node.record, place.at, node.layer).value()));
            }
            match node.gap(place.gap) {
                NIL => return Ok(None),
                child => id = child,
            }
        }
    }

    /// Stubs in the tree: a tree without any can be walked whole.
    pub(crate) fn stubs(&self) -> usize {
        self.stubs
    }

    /// Hand `visit` every `(key, value)` pair in key order.
    ///
    /// # Panics
    ///
    /// On a collapsed subtree: [`Mst::expand`] re-derives them all first.
    pub(crate) fn for_each_entry(&self, mut visit: impl FnMut(&str, Cid)) {
        self.walk(self.root, &mut KeyBuf::new(), &mut visit);
    }

    /// [`Mst::for_each_entry`] over one subtree. One buffer serves the whole
    /// walk: a subtree's keys all sort between the entries around it, so
    /// its last key shares the next entry's `p` bytes.
    fn walk(&self, id: NodeId, key: &mut KeyBuf, visit: &mut impl FnMut(&str, Cid)) {
        let node = self.node(id);
        assert!(!node.is_stub(), "a walk into a collapsed subtree");
        if node.left != NIL {
            self.walk(node.left, key, visit);
        }
        for entry in node.entries() {
            key.step(&entry);
            let text = std::str::from_utf8(key.get()).expect("validated keys are ASCII");
            visit(text, entry.value());
            if entry.right != NIL {
                self.walk(entry.right, key, visit);
            }
        }
    }

    /// The root CID. Hashes only the nodes mutated since the last call, so
    /// a repeat with no mutation in between hashes nothing.
    pub fn root_cid(&self) -> Cid {
        self.seal(self.root)
    }

    /// Hash every dirty node of the subtree at `id`, children before
    /// parents, and return the subtree's CID.
    fn seal(&self, id: NodeId) -> Cid {
        let node = self.node(id);
        if let Memo::Hashed(cid) | Memo::Stub(cid) = node.memo.get() {
            return cid;
        }
        for child in node.children() {
            self.seal(child);
        }
        let mut hashing = Hashing {
            hasher: Sha256::new(),
            len: 0,
            block: [0; HASHING_BLOCK],
        };
        self.encode(node, &mut hashing);
        self.hashed.set(self.hashed.get() + 1);
        let cid = hashing.cid();
        node.memo.set(Memo::Hashed(cid));
        cid
    }

    /// A node's block, written to `out`; its subtrees must already be
    /// hashed. Entry maps carry their keys in canonical order, which for
    /// one-byte keys is bytewise: `k` < `p` < `t` < `v`; the node map's are
    /// `e` < `l` < `layer`.
    fn encode(&self, node: &Node, out: &mut impl Sink) {
        raw::map_head(3, out);
        raw::text("e", out);
        raw::array_head(node.entries().count() as u64, out);
        for entry in node.entries() {
            let right = (entry.right != NIL).then(|| self.node(entry.right).cid());
            raw::map_head(3 + u64::from(right.is_some()), out);
            raw::text("k", out);
            raw::text_head(entry.suffix.len(), out);
            out.put(entry.suffix);
            raw::text("p", out);
            raw::uint(entry.prefix as u64, out);
            if let Some(right) = right {
                raw::text("t", out);
                raw::link(&right, out);
            }
            raw::text("v", out);
            raw::link(&entry.value(), out);
        }
        raw::text("l", out);
        match node.left {
            NIL => raw::null(out),
            left => raw::link(&self.node(left).cid(), out),
        }
        raw::text("layer", out);
        raw::uint(u64::from(node.layer), out);
    }

    /// The one walk over the tree's node blocks, for both archive exports:
    /// seals the tree, then hands `visit` every node's CID and block bytes,
    /// children before parents. Re-encodes every node into one buffer that
    /// lives for the walk; hashes only the dirty ones.
    ///
    /// # Panics
    ///
    /// On a collapsed subtree, as [`Mst::for_each_entry`] does.
    pub(crate) fn for_each_block(&self, mut visit: impl FnMut(&Cid, &[u8])) {
        self.root_cid();
        let mut buf = Vec::new();
        self.blocks_under(self.root, &mut buf, &mut visit);
    }

    /// [`Mst::for_each_block`] over one subtree.
    fn blocks_under(&self, id: NodeId, buf: &mut Vec<u8>, visit: &mut impl FnMut(&Cid, &[u8])) {
        let node = self.node(id);
        assert!(!node.is_stub(), "an export of a collapsed subtree");
        for child in node.children() {
            self.blocks_under(child, buf, visit);
        }
        buf.clear();
        self.encode(node, buf);
        visit(&node.cid(), buf);
    }

    /// Collapse every maximal subtree whose values `released` dates (the
    /// day a value was drawn on; `None` for a value whose bytes are held)
    /// and whose gap is frozen ([`frozen`]) into a stub: its CID, its layer
    /// and the day range of its values. The root never collapses. The arena
    /// is then rebuilt to fit, without the freed slots. Returns the stubs
    /// made.
    pub(crate) fn collapse(&mut self, released: &dyn Fn(Cid) -> Option<u16>) -> usize {
        self.root_cid();
        let mut found = Vec::new();
        self.survey(self.root, None, None, released, &mut found);
        let mut below = Vec::new();
        for &id in &found {
            let (cid, range) = (self.node(id).cid(), self.days_under(id, released));
            // Every slot under the stub goes to the free list.
            below.extend(self.node(id).children());
            while let Some(child) = below.pop() {
                let node = &self.nodes[child as usize];
                below.extend(node.children());
                self.stubs -= usize::from(node.is_stub());
                self.release(child);
            }
            let node = self.node_mut(id);
            node.record = Vec::new();
            node.left = pack_days(range);
            node.memo.set(Memo::Stub(cid));
            self.stubs += 1;
        }
        if !found.is_empty() {
            self.rebuild();
        }
        found.len()
    }

    /// Whether every value under the node at `id` is released; appends to
    /// `found` the maximal frozen subtrees below it that are not stubs yet.
    /// `lower` and `upper` are the keys around the subtree.
    fn survey(
        &self,
        id: NodeId,
        lower: Bound<'_>,
        upper: Bound<'_>,
        released: &dyn Fn(Cid) -> Option<u16>,
        found: &mut Vec<NodeId>,
    ) -> bool {
        let node = self.node(id);
        if node.layer == 0 {
            // No gap to survey: the first held value answers.
            return node
                .entries()
                .all(|entry| released(entry.value()).is_some());
        }
        let mut gap = |child: NodeId, below: Bound<'_>, above: Bound<'_>| {
            if child == NIL {
                return true;
            }
            if self.node(child).is_stub() {
                return true;
            }
            let mark = found.len();
            let all = self.survey(child, below, above, released, found);
            if all && frozen(below, above) {
                found.truncate(mark);
                found.push(child);
            }
            all
        };
        let (mut prev, mut key) = (KeyBuf::new(), KeyBuf::new());
        let (mut all, mut child, mut below_released) = (true, node.left, None);
        for entry in node.entries() {
            prev.copy_from(&key);
            key.step(&entry);
            let drawn = released(entry.value()).is_some();
            let below = match below_released {
                None => lower,
                Some(flag) => Some((prev.get(), flag)),
            };
            all &= gap(child, below, Some((key.get(), drawn))) & drawn;
            below_released = Some(drawn);
            child = entry.right;
        }
        let below = match below_released {
            None => lower,
            Some(flag) => Some((key.get(), flag)),
        };
        all & gap(child, below, upper)
    }

    /// The day range of the values under the node at `id`, which `released`
    /// dates every one of.
    fn days_under(&self, id: NodeId, released: &dyn Fn(Cid) -> Option<u16>) -> (u16, u16) {
        let node = self.node(id);
        if node.is_stub() {
            return days(node.left);
        }
        let mut range = (u16::MAX, 0);
        for entry in node.entries() {
            let day = released(entry.value()).expect("a frozen subtree's values are released");
            range = widen(range, (day, day));
        }
        for child in node.children() {
            range = widen(range, self.days_under(child, released));
        }
        range
    }

    /// Move the live nodes into an arena of their own size, leaving the
    /// free slots behind.
    fn rebuild(&mut self) {
        let mut free = 0;
        let mut slot = self.free;
        while slot != NIL {
            free += 1;
            slot = self.node(slot).left;
        }
        let mut old = std::mem::take(&mut self.nodes);
        let mut nodes = Vec::with_capacity(old.len() - free);
        self.root = move_subtree(&mut old, self.root, &mut |node| {
            nodes.push(node);
            NodeId::try_from(nodes.len() - 1).expect("MST arena exceeds 2^32 nodes")
        });
        self.nodes = nodes;
        self.free = NIL;
    }

    /// Look up `key`, re-deriving every stub on its path and grafting it
    /// back, so that a write of `key` meets none. Returns the stubs
    /// re-derived and the key's value. Fails, leaving the stub in place,
    /// when a subtree drawn again does not hash to its stub's CID.
    pub(crate) fn open(&mut self, key: &str, draw: &mut Draw<'_>) -> Result<(usize, Option<Cid>)> {
        let mut opened = 0;
        loop {
            match self.descend(key.as_bytes()) {
                Ok(value) => return Ok((opened, value)),
                Err(stub) => {
                    let (below, above) = self.bounds_on_path(key.as_bytes());
                    let fresh = self.rederive(stub, below.as_deref(), above.as_deref(), draw)?;
                    self.graft(stub, fresh);
                    opened += 1;
                }
            }
        }
    }

    /// Re-derive every stub of the tree and graft it back ([`Mst::open`]).
    pub(crate) fn expand(&mut self, draw: &mut Draw<'_>) -> Result<usize> {
        let mut stubs = Vec::new();
        if self.stubs > 0 {
            self.find_stubs(self.root, None, None, &mut stubs);
        }
        for (stub, below, above) in &stubs {
            let fresh = self.rederive(*stub, below.as_deref(), above.as_deref(), draw)?;
            self.graft(*stub, fresh);
        }
        Ok(stubs.len())
    }

    /// The stubs of the subtree at `id`, each with the keys around it.
    #[allow(clippy::type_complexity)]
    fn find_stubs(
        &self,
        id: NodeId,
        lower: Option<&[u8]>,
        upper: Option<&[u8]>,
        out: &mut Vec<(NodeId, Option<Vec<u8>>, Option<Vec<u8>>)>,
    ) {
        let node = self.node(id);
        if node.is_stub() {
            out.push((id, lower.map(<[u8]>::to_vec), upper.map(<[u8]>::to_vec)));
            return;
        }
        let (mut prev, mut key) = (KeyBuf::new(), KeyBuf::new());
        let (mut child, mut first) = (node.left, true);
        for entry in node.entries() {
            prev.copy_from(&key);
            key.step(&entry);
            if child != NIL {
                let below = if first { lower } else { Some(prev.get()) };
                self.find_stubs(child, below, Some(key.get()), out);
            }
            first = false;
            child = entry.right;
        }
        if child != NIL {
            self.find_stubs(
                child,
                if first { lower } else { Some(key.get()) },
                upper,
                out,
            );
        }
    }

    /// The keys around the first stub on `key`'s path.
    fn bounds_on_path(&self, key: &[u8]) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let (mut below, mut above) = (None, None);
        let mut id = self.root;
        while !self.node(id).is_stub() {
            let node = self.node(id);
            let place = node.place(key);
            let mut keys = KeyBuf::new();
            for entry in node.entries() {
                keys.step(&entry);
                if entry.at >= place.at {
                    above = Some(keys.get().to_vec());
                    break;
                }
                if entry.end == place.at {
                    below = Some(keys.get().to_vec());
                }
            }
            id = node.gap(place.gap);
        }
        (below, above)
    }

    /// The subtree the stub at `id` stands for, drawn again: a fresh tree
    /// of the drawn pairs that fall between `below` and `above`, lifted to
    /// the stub's layer. An error unless it hashes to the stub's CID.
    fn rederive(
        &self,
        id: NodeId,
        below: Option<&[u8]>,
        above: Option<&[u8]>,
        draw: &mut Draw<'_>,
    ) -> Result<Mst> {
        let node = self.node(id);
        let (cid, layer, (first, last)) = (node.cid(), node.layer, days(node.left));
        let mut fresh = Mst::new();
        for (key, value) in draw(first, last)? {
            let bytes = key.as_bytes();
            if below.is_some_and(|low| bytes <= low) || above.is_some_and(|high| bytes >= high) {
                continue;
            }
            validate_key(&key)?;
            fresh.set(&key, value);
        }
        if fresh.len > 0 && fresh.node(fresh.root).layer <= layer {
            fresh.root = fresh.lift(fresh.root, layer);
            if fresh.root_cid() == cid {
                return Ok(fresh);
            }
        }
        Err(AtError::RepoError(format!(
            "the {} key(s) drawn again for a collapsed subtree do not hash to its CID {cid}",
            fresh.len
        )))
    }

    /// Put a re-derived subtree in the place of the stub at `id`.
    fn graft(&mut self, id: NodeId, mut fresh: Mst) {
        let mut from = std::mem::take(&mut fresh.nodes);
        let mut root = std::mem::replace(
            &mut from[fresh.root as usize],
            Node::new(0, NIL, Vec::new()),
        );
        root.move_children(&mut |child| {
            move_subtree(&mut from, child, &mut |node| self.alloc(node))
        });
        *self.node_mut(id) = root;
        self.stubs -= 1;
    }
}

/// Collect a tree; panics on a key [`Mst::insert`] refuses, naming it.
impl FromIterator<(String, Cid)> for Mst {
    fn from_iter<T: IntoIterator<Item = (String, Cid)>>(iter: T) -> Self {
        let mut mst = Mst::new();
        for (key, cid) in iter {
            if let Err(error) = mst.insert(&key, cid) {
                panic!("cannot collect an MST: {error}");
            }
        }
        mst
    }
}

// ---------------------------------------------------------------------------
// Reference implementations the tests below (and `repo.rs`'s) hold the
// incremental tree and its node encoder to. They rebuild every node from the
// tree's key list and share only the raw CBOR writers with the live tree.
// ---------------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::cbor::Value;

    /// A node entry awaiting encoding.
    struct PendingEntry<'a> {
        key: &'a str,
        value: Cid,
        subtree: Option<Cid>,
    }

    /// Append one MST node block to `out`. With `compress`, each entry's
    /// key is cut to the suffix past the prefix it shares with the previous
    /// entry of *this* node (compression never crosses node boundaries);
    /// without, every entry carries its whole key and no `p`.
    fn encode_node(
        left_child: Option<Cid>,
        entries: &[PendingEntry<'_>],
        layer: u32,
        compress: bool,
        out: &mut Vec<u8>,
    ) {
        raw::map_head(3, out);
        raw::text("e", out);
        raw::array_head(entries.len() as u64, out);
        let mut prev_key = "";
        for entry in entries {
            let fields = 2 + usize::from(compress) + usize::from(entry.subtree.is_some());
            raw::map_head(fields as u64, out);
            let prefix = if compress {
                common_prefix_len(prev_key.as_bytes(), entry.key.as_bytes())
            } else {
                0
            };
            prev_key = entry.key;
            raw::text("k", out);
            raw::text(&entry.key[prefix..], out);
            if compress {
                raw::text("p", out);
                raw::uint(prefix as u64, out);
            }
            if let Some(subtree) = entry.subtree {
                raw::text("t", out);
                raw::link(&subtree, out);
            }
            raw::text("v", out);
            raw::link(&entry.value, out);
        }
        raw::text("l", out);
        match left_child {
            Some(cid) => raw::link(&cid, out),
            None => raw::null(out),
        }
        raw::text("layer", out);
        raw::uint(layer as u64, out);
    }

    /// An encoded tree node.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct MstNode {
        /// CID of this node's encoded block.
        pub(crate) cid: Cid,
        /// The encoded DAG-CBOR bytes of the node.
        pub(crate) bytes: Vec<u8>,
    }

    impl Mst {
        /// Every node block of the tree, children before parents: what
        /// [`Mst::for_each_block`] hands a full export, copied out.
        pub(crate) fn blocks(&self) -> Vec<MstNode> {
            let mut blocks = Vec::new();
            self.for_each_block(|cid, bytes| {
                blocks.push(MstNode {
                    cid: *cid,
                    bytes: bytes.to_vec(),
                })
            });
            blocks
        }

        /// Every `(key, value)` pair in key order, copied out.
        pub(crate) fn entries(&self) -> Vec<(String, Cid)> {
            let mut entries = Vec::with_capacity(self.len);
            self.for_each_entry(|key, value| entries.push((key.to_owned(), value)));
            entries
        }

        /// Arena slots and record bytes in use: what a mutation that must
        /// leave the tree as it was may not move.
        pub(crate) fn layout(&self) -> (usize, usize) {
            let bytes = self.nodes.iter().map(|node| node.record.len()).sum();
            (self.nodes.len(), bytes)
        }

        /// The entries of a single collection (keys beginning with
        /// `<collection>/`).
        pub(crate) fn collection_entries(&self, collection: &str) -> Vec<(String, Cid)> {
            let prefix = format!("{collection}/");
            let mut entries = self.entries();
            entries.retain(|(key, _)| key.starts_with(&prefix));
            entries
        }

        /// Total serialized size of all node blocks in bytes (prefix-compressed
        /// wire encoding).
        pub(crate) fn structural_size(&self) -> usize {
            self.blocks().iter().map(|n| n.bytes.len()).sum()
        }

        /// What the node blocks would occupy under the legacy full-key encoding
        /// (every entry carries its whole key, no `p` field). Kept purely as the
        /// measurement baseline for the prefix-compression win; nothing encodes
        /// this form on the wire anymore.
        pub(crate) fn structural_size_uncompressed(&self) -> usize {
            self.build_with(false).1.iter().map(|n| n.bytes.len()).sum()
        }

        /// The reference builder: materialise the whole tree from the key list
        /// alone (layers re-derived from the key hashes), returning the root CID
        /// and every node block. The tests pin the incremental tree against it.
        pub(crate) fn build_with(&self, compress: bool) -> (Cid, Vec<MstNode>) {
            let mut blocks = Vec::new();
            let items: Vec<(String, Cid, u32)> = self
                .entries()
                .into_iter()
                .map(|(key, cid)| {
                    let layer = key_layer(&key);
                    (key, cid, layer)
                })
                .collect();
            let top_layer = items.iter().map(|(_, _, l)| *l).max().unwrap_or(0);
            let root = Self::build_node(&items, top_layer, &mut blocks, compress);
            (root, blocks)
        }

        /// Recursively build the node covering `items` at `layer`.
        fn build_node(
            items: &[(String, Cid, u32)],
            layer: u32,
            blocks: &mut Vec<MstNode>,
            compress: bool,
        ) -> Cid {
            // Entries at this layer, in order; the gaps between them (and at both
            // ends) become child subtrees at layer - 1.
            let mut node_entries: Vec<PendingEntry<'_>> = Vec::new();
            let mut segment_start = 0usize;
            let mut left_child: Option<Cid> = None;
            let mut first_entry_seen = false;

            let flush_segment =
                |start: usize, end: usize, blocks: &mut Vec<MstNode>| -> Option<Cid> {
                    if start >= end {
                        return None;
                    }
                    if layer == 0 {
                        // Cannot descend further; at layer 0 every item must be an
                        // entry, which the layer computation guarantees.
                        return None;
                    }
                    Some(Self::build_node(
                        &items[start..end],
                        layer - 1,
                        blocks,
                        compress,
                    ))
                };

            for (idx, (key, cid, item_layer)) in items.iter().enumerate() {
                if *item_layer >= layer {
                    // Subtree of everything since the previous entry.
                    let subtree = flush_segment(segment_start, idx, blocks);
                    if !first_entry_seen {
                        left_child = subtree;
                    } else if let Some(sub) = subtree {
                        // Attach as the "tree" of the previous entry.
                        if let Some(prev) = node_entries.last_mut() {
                            prev.subtree = Some(sub);
                        }
                    }
                    first_entry_seen = true;
                    node_entries.push(PendingEntry {
                        key,
                        value: *cid,
                        subtree: None,
                    });
                    segment_start = idx + 1;
                }
            }
            // Trailing subtree.
            let trailing = flush_segment(segment_start, items.len(), blocks);
            if !first_entry_seen {
                left_child = trailing;
            } else if let Some(sub) = trailing {
                if let Some(prev) = node_entries.last_mut() {
                    prev.subtree = Some(sub);
                }
            }

            let mut bytes = Vec::new();
            encode_node(left_child, &node_entries, layer, compress, &mut bytes);
            let cid = Cid::for_cbor(&bytes);
            blocks.push(MstNode { cid, bytes });
            cid
        }
    }

    /// One entry of a decoded node, with the full key reconstructed from the
    /// prefix compression.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct MstNodeEntry {
        /// The full record key.
        pub(crate) key: String,
        /// The record block CID.
        pub(crate) value: Cid,
        /// Link to the subtree between this entry and the next, if any.
        pub(crate) tree: Option<Cid>,
    }

    /// A decoded MST node block.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct DecodedMstNode {
        /// Link to the subtree left of the first entry.
        pub(crate) left: Option<Cid>,
        /// The node's layer.
        pub(crate) layer: u32,
        /// Entries in key order.
        pub(crate) entries: Vec<MstNodeEntry>,
    }

    /// Decode a node block, undoing the per-entry key prefix compression. An
    /// entry without a `p` field decodes as an uncompressed (full-key) entry,
    /// so both wire forms parse.
    pub(crate) fn decode_node(bytes: &[u8]) -> Result<DecodedMstNode> {
        let value = crate::cbor::decode(bytes)?;
        let raw_entries = value
            .get("e")
            .and_then(Value::as_array)
            .ok_or_else(|| AtError::RepoError("MST node missing entry array".into()))?;
        let left = value.get("l").and_then(Value::as_link).copied();
        let layer = value.get("layer").and_then(Value::as_int).unwrap_or(0) as u32;
        let mut entries = Vec::with_capacity(raw_entries.len());
        let mut prev = String::new();
        for entry in raw_entries {
            let prefix = entry.get("p").and_then(Value::as_int).unwrap_or(0) as usize;
            let suffix = entry
                .get("k")
                .and_then(Value::as_text)
                .ok_or_else(|| AtError::RepoError("MST entry missing key".into()))?;
            // `get` also refuses a prefix that ends inside a multi-byte
            // character, which slicing would panic on.
            let shared = prev.get(..prefix).ok_or_else(|| {
                AtError::RepoError(format!(
                    "MST entry prefix {prefix} does not fit the previous key (length {})",
                    prev.len()
                ))
            })?;
            let key = format!("{shared}{suffix}");
            let value_cid = *entry
                .get("v")
                .and_then(Value::as_link)
                .ok_or_else(|| AtError::RepoError("MST entry missing value".into()))?;
            let tree = entry.get("t").and_then(Value::as_link).copied();
            prev.clone_from(&key);
            entries.push(MstNodeEntry {
                key,
                value: value_cid,
                tree,
            });
        }
        Ok(DecodedMstNode {
            left,
            layer,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::reference::decode_node;
    use super::*;
    use crate::cbor::Value;
    use std::collections::BTreeMap;

    fn cid_for(n: u32) -> Cid {
        Cid::for_cbor(&n.to_be_bytes())
    }

    /// The direct node encoder must emit exactly what encoding the
    /// equivalent `Value` tree emits — the wire bytes (and so every node
    /// CID and repo commit) must not shift with the encoding fast path.
    #[test]
    fn direct_encoding_matches_value_encoding() {
        let mut mst = Mst::new();
        for n in 0..300u32 {
            mst.insert(&key_for(n), cid_for(n)).unwrap();
        }
        for compress in [true, false] {
            for node in mst.build_with(compress).1 {
                let decoded = decode_node(&node.bytes).unwrap();
                let mut prev: Option<String> = None;
                let entries: Vec<Value> = decoded
                    .entries
                    .iter()
                    .map(|entry| {
                        let shared = if compress {
                            prev.as_deref()
                                .map(|p| common_prefix_len(p.as_bytes(), entry.key.as_bytes()))
                                .unwrap_or(0)
                        } else {
                            0
                        };
                        let mut pairs = vec![
                            ("k".to_string(), Value::text(&entry.key[shared..])),
                            ("v".to_string(), Value::Link(entry.value)),
                        ];
                        if compress {
                            pairs.push(("p".to_string(), Value::Int(shared as i64)));
                        }
                        if let Some(tree) = entry.tree {
                            pairs.push(("t".to_string(), Value::Link(tree)));
                        }
                        prev = Some(entry.key.clone());
                        Value::map(pairs)
                    })
                    .collect();
                let value = Value::map([
                    (
                        "l",
                        match decoded.left {
                            Some(cid) => Value::Link(cid),
                            None => Value::Null,
                        },
                    ),
                    ("e", Value::Array(entries)),
                    ("layer", Value::Int(decoded.layer as i64)),
                ]);
                assert_eq!(
                    crate::cbor::encode(&value),
                    node.bytes,
                    "direct encoding diverged (compress: {compress})"
                );
            }
        }
    }

    /// Mutations drop the memoised CIDs on their path; reads after a
    /// mutation see the new tree, and a no-op replace keeps every memo.
    #[test]
    fn build_memo_tracks_mutations() {
        let mut mst = Mst::new();
        mst.insert(&key_for(1), cid_for(1)).unwrap();
        let root1 = mst.root_cid();
        assert_eq!(mst.root_cid(), root1, "memoised read is stable");
        let hashed = mst.hashed.get();
        mst.insert(&key_for(1), cid_for(1)).unwrap(); // no-op replace
        assert_eq!(mst.root_cid(), root1);
        assert_eq!(mst.hashed.get(), hashed, "a no-op replace dirties nothing");
        mst.insert(&key_for(2), cid_for(2)).unwrap();
        let root2 = mst.root_cid();
        assert_ne!(root2, root1, "insert invalidates the memo");
    }

    fn key_for(n: u32) -> String {
        format!("app.bsky.feed.post/rkey{n:06}")
    }

    /// The work bound, as counts: on a 2 000-key tree a single-key commit
    /// hashes its path (at most 16 nodes, not the ~700 of the tree), and a
    /// repeated `root_cid()` hashes nothing.
    #[test]
    fn a_commit_hashes_its_path() {
        let mut mst = Mst::new();
        for n in 0..2000 {
            mst.insert(&key_for(n), cid_for(n)).unwrap();
        }
        let nodes = mst.blocks().len();
        assert!(nodes > 400, "{nodes} nodes");
        for n in 2000..2100 {
            let before = mst.hashed.get();
            mst.insert(&key_for(n), cid_for(n)).unwrap();
            let root = mst.root_cid();
            let hashed = mst.hashed.get() - before;
            assert!(hashed <= 16, "key {n}: hashed {hashed} nodes");
            assert_eq!(mst.root_cid(), root);
            assert_eq!(mst.hashed.get() - before, hashed, "repeat read hashed");
        }
        assert_eq!(mst.root_cid(), mst.build_with(true).0);
    }

    #[test]
    fn insert_get_and_replace() {
        let mut mst = Mst::new();
        assert_eq!(mst.len, 0);
        assert_eq!(mst.insert(&key_for(1), cid_for(1)).unwrap(), None);
        // One entry is its whole key, its packed CID and six bytes, in the
        // root's record and nowhere else.
        let right = right_len(mst.node(mst.root).layer);
        let one = (1, ENTRY_FIXED + key_for(1).len() + right);
        assert_eq!(mst.layout(), one);
        assert_eq!(ENTRY_FIXED, 35);
        // A replaced value leaves the layout as it is.
        assert_eq!(
            mst.insert(&key_for(1), cid_for(2)).unwrap(),
            Some(cid_for(1))
        );
        assert_eq!(mst.layout(), one);
        assert_eq!(mst.get(&key_for(1)), Some(cid_for(2)));
        assert_eq!(mst.get(&key_for(2)), None);
        assert_eq!(mst.len, 1);
        // A node is its record, a child index, its memo and its layer: 64
        // bytes in the arena, where a boxed node with a `Vec` of 48-byte
        // entries cost a heap block of its own besides.
        assert_eq!(std::mem::size_of::<Node>(), 64);
    }

    #[test]
    fn key_validation() {
        assert!(validate_key("app.bsky.feed.post/3kdgeujwlq32y").is_ok());
        assert!(validate_key("nokey").is_err());
        assert!(validate_key("/empty-collection").is_err());
        assert!(validate_key("collection/").is_err());
        assert!(validate_key("has space/abc").is_err());
        let mut mst = Mst::new();
        assert!(mst.insert("bad key", cid_for(0)).is_err());
        assert!(mst
            .insert(&format!("c/{}", "k".repeat(254)), cid_for(0))
            .is_ok());
        assert!(mst
            .insert(&format!("c/{}", "k".repeat(255)), cid_for(0))
            .is_err());
    }

    /// Collecting a tree validates its keys as `insert` does: a key the
    /// rebuilt-key buffer or the ASCII prefix cut could not hold panics,
    /// naming the key, instead of landing in the tree.
    #[test]
    #[should_panic(expected = "invalid MST key bytes: c/\u{e9}0")]
    fn collecting_refuses_non_ascii_keys() {
        let _: Mst = (0..200u32)
            .map(|n| {
                (
                    format!("c/{}{n}", ['\u{e9}', '\u{e8}'][n as usize % 2]),
                    cid_for(n),
                )
            })
            .collect();
    }

    #[test]
    #[should_panic(expected = "MST key missing '/': nokey")]
    fn collecting_refuses_keys_without_a_slash() {
        let _: Mst = [("nokey".to_string(), cid_for(0))].into_iter().collect();
    }

    /// Keys of the longest admitted length, sharing all but their last
    /// byte (a `p` of 255 and whole keys of 256 bytes), round-trip through
    /// the records and the encoder, inserted backwards so that each insert
    /// rewrites the head of the entry after it.
    #[test]
    fn longest_keys_round_trip() {
        let stem = format!("c/{}", "k".repeat(253));
        let tails =
            std::iter::once(String::new()).chain(('0'..='9').chain('a'..='z').map(String::from));
        let keys: Vec<String> = tails.map(|tail| format!("{stem}{tail}")).collect();
        let mut mst = Mst::new();
        for (n, key) in keys.iter().enumerate().rev() {
            mst.insert(key, cid_for(n as u32)).unwrap();
        }
        let stored: Vec<String> = mst.entries().into_iter().map(|(key, _)| key).collect();
        assert_eq!(stored, keys);
        assert_eq!(mst.root_cid(), mst.build_with(true).0);
    }

    #[test]
    fn root_is_independent_of_insertion_order() {
        let n = 500;
        let mut a = Mst::new();
        for i in 0..n {
            a.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let mut b = Mst::new();
        for i in (0..n).rev() {
            b.insert(&key_for(i), cid_for(i)).unwrap();
        }
        // Replace a value in b and put it back; final contents are identical.
        b.insert(&key_for(10), cid_for(10_000)).unwrap();
        b.insert(&key_for(10), cid_for(10)).unwrap();
        assert_eq!(a.root_cid(), b.root_cid());
        assert_eq!(a, b);
    }

    #[test]
    fn root_changes_with_content() {
        let mut a = Mst::new();
        a.insert(&key_for(1), cid_for(1)).unwrap();
        let root1 = a.root_cid();
        a.insert(&key_for(2), cid_for(2)).unwrap();
        let root2 = a.root_cid();
        assert_ne!(root1, root2);
        // Changing a value (not a key) also changes the root.
        a.insert(&key_for(2), cid_for(3)).unwrap();
        assert_ne!(a.root_cid(), root2);
        // Empty tree has a root too (the empty node).
        assert_ne!(Mst::new().root_cid(), root1);
    }

    #[test]
    fn blocks_contain_all_values_reachable() {
        let mut mst = Mst::new();
        for i in 0..200 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let blocks = mst.blocks();
        assert!(!blocks.is_empty());
        // Decode every node and collect every referenced value CID.
        let mut value_cids = Vec::new();
        for node in &blocks {
            let value = crate::cbor::decode(&node.bytes).unwrap();
            assert_eq!(Cid::for_cbor(&node.bytes), node.cid);
            for entry in value.get("e").unwrap().as_array().unwrap() {
                value_cids.push(*entry.get("v").unwrap().as_link().unwrap());
            }
        }
        value_cids.sort();
        let mut expected: Vec<Cid> = (0..200).map(cid_for).collect();
        expected.sort();
        assert_eq!(value_cids, expected);
        assert!(mst.structural_size() > 0);
    }

    #[test]
    fn layers_spread_keys() {
        // Most keys land on layer 0; a minority on deeper layers, so the tree
        // actually has internal structure for a few hundred keys.
        let layers: Vec<u32> = (0..2000).map(|i| key_layer(&key_for(i))).collect();
        let zero = layers.iter().filter(|&&l| l == 0).count();
        let nonzero = layers.len() - zero;
        assert!(zero > nonzero, "layer 0 should dominate");
        assert!(nonzero > 0, "some keys should promote to higher layers");
    }

    #[test]
    fn collection_iteration_respects_boundaries() {
        let mut mst = Mst::new();
        mst.insert("app.bsky.feed.post/aaa", cid_for(1)).unwrap();
        mst.insert("app.bsky.feed.post/bbb", cid_for(2)).unwrap();
        mst.insert("app.bsky.feed.like/aaa", cid_for(3)).unwrap();
        mst.insert("app.bsky.graph.follow/aaa", cid_for(4)).unwrap();
        let keys = |collection| -> Vec<String> {
            let entries = mst.collection_entries(collection).into_iter();
            entries.map(|(key, _)| key).collect()
        };
        assert_eq!(
            keys("app.bsky.feed.post"),
            vec!["app.bsky.feed.post/aaa", "app.bsky.feed.post/bbb"]
        );
        assert_eq!(keys("app.bsky.feed.like"), vec!["app.bsky.feed.like/aaa"]);
        assert!(keys("app.bsky.feed").is_empty());
    }

    #[test]
    fn node_decode_reconstructs_prefix_compressed_keys() {
        let mut mst = Mst::new();
        for i in 0..300 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        mst.insert("app.bsky.feed.like/aaa111", cid_for(9_001))
            .unwrap();
        mst.insert("app.bsky.graph.follow/zz9", cid_for(9_002))
            .unwrap();
        // Decode every node and collect all (key, value) pairs: the tree's
        // full mapping must come back exactly, despite the compression.
        let mut decoded: BTreeMap<String, Cid> = BTreeMap::new();
        for node in mst.blocks() {
            let parsed = decode_node(&node.bytes).unwrap();
            for entry in parsed.entries {
                assert!(validate_key(&entry.key).is_ok(), "bad key {}", entry.key);
                decoded.insert(entry.key, entry.value);
            }
        }
        let expected: BTreeMap<String, Cid> = mst.entries().into_iter().collect();
        assert_eq!(decoded, expected);
    }

    #[test]
    fn prefix_compression_shrinks_node_blocks() {
        let mut mst = Mst::new();
        for i in 0..500 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let compressed = mst.structural_size();
        let uncompressed = mst.structural_size_uncompressed();
        assert!(
            compressed < uncompressed,
            "prefix compression must shrink nodes: {compressed} vs {uncompressed}"
        );
        // Sibling keys share `app.bsky.feed.post/rkey…`, so the win is
        // substantial, not marginal.
        assert!(
            (compressed as f64) < 0.9 * uncompressed as f64,
            "expected a >10% structural win, got {compressed} vs {uncompressed}"
        );
        // Both encodings represent the same mapping.
        assert_eq!(mst.blocks().len(), mst.build_with(false).1.len());
    }

    #[test]
    fn decode_node_rejects_malformed_blocks() {
        assert!(decode_node(b"junk").is_err());
        // A map without the entry array.
        let no_entries = crate::cbor::encode(&Value::map([("l", Value::Null)]));
        assert!(decode_node(&no_entries).is_err());
        // A prefix longer than the previous key is corrupt.
        let bad_prefix = crate::cbor::encode(&Value::map([
            ("l", Value::Null),
            (
                "e",
                Value::Array(vec![Value::map([
                    ("p", Value::Int(5)),
                    ("k", Value::text("x/y")),
                    ("v", Value::Link(cid_for(1))),
                ])]),
            ),
            ("layer", Value::Int(0)),
        ]));
        assert!(decode_node(&bad_prefix).is_err());
        // A prefix that ends inside a multi-byte character of the previous
        // key is corrupt too (and must not slice the string there).
        let entry = |p: i64, k: &str| {
            Value::map([
                ("p", Value::Int(p)),
                ("k", Value::text(k)),
                ("v", Value::Link(cid_for(1))),
            ])
        };
        let split_char = crate::cbor::encode(&Value::map([
            ("l", Value::Null),
            ("e", Value::Array(vec![entry(0, "\u{e9}/a"), entry(1, "b")])),
            ("layer", Value::Int(0)),
        ]));
        assert!(decode_node(&split_char).is_err());
        assert_eq!(common_prefix_len(b"abc/def", b"abc/xyz"), 4);
        assert_eq!(common_prefix_len(b"", b"abc"), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;
    use std::collections::BTreeMap;

    /// An incremental tree driven next to a plain ordered map, checked
    /// against the rebuild-from-scratch reference builder.
    #[derive(Default)]
    struct Checked {
        mst: Mst,
        model: BTreeMap<String, Cid>,
    }

    /// The most record bytes a node of `len` bytes of entries may hold.
    fn slack_bound(len: usize) -> usize {
        len + len / 2
    }

    /// Record bytes held and used over every node of the tree, and the
    /// entries they hold, asserting on the way that no node holds more
    /// bytes than [`slack_bound`] allows for its length, that every record
    /// is in the wire form (a node's first key whole, every other entry's
    /// `p` exactly the bytes it shares with the key before it, no suffix
    /// empty), and that every arena slot is a node of the tree or free.
    fn entry_slots(mst: &Mst) -> (usize, usize, usize) {
        let (mut held, mut used, mut entries) = (0, 0, 0);
        let mut reached = 1;
        let mut stack = vec![mst.root];
        while let Some(id) = stack.pop() {
            let node = mst.node(id);
            let (cap, len) = (node.record.capacity(), node.record.len());
            assert!(
                cap <= slack_bound(len),
                "a node of {len} record bytes holds {cap}"
            );
            held += cap;
            used += len;
            let mut prev: Vec<u8> = Vec::new();
            for entry in node.entries() {
                assert!(!entry.suffix.is_empty());
                let mut key = prev[..entry.prefix].to_vec();
                key.extend_from_slice(entry.suffix);
                assert_eq!(entry.prefix, common_prefix_len(&prev, &key));
                assert!(prev < key, "entries in key order");
                prev = key;
                entries += 1;
            }
            let children: Vec<NodeId> = node.children().collect();
            reached += children.len();
            stack.extend(children);
        }
        let mut free = mst.free;
        while free != NIL {
            reached += 1;
            free = mst.node(free).left;
        }
        assert_eq!(reached, mst.nodes.len(), "arena slots leaked");
        assert_eq!(entries, mst.len);
        (held, used, entries)
    }

    impl Checked {
        fn insert(&mut self, key: &str, cid: Cid) {
            let layout = self.mst.layout();
            let old = self.mst.insert(key, cid).unwrap();
            assert_eq!(old, self.model.insert(key.to_string(), cid), "{key}");
            if old.is_some() {
                assert_eq!(self.mst.layout(), layout, "a replace moved a record");
            }
            entry_slots(&self.mst);
        }

        /// The end of a batch: root CID and block list (in order, bytes
        /// included) must be what the reference rebuild says.
        fn check(&self) {
            assert_eq!(self.mst.len, self.model.len());
            assert!(self.mst.entries().into_iter().eq(self.model.clone()));
            let (root, blocks) = self.mst.build_with(true);
            assert_eq!(self.mst.root_cid(), root);
            assert_eq!(self.mst.blocks(), blocks);
        }
    }

    fn value(n: u64) -> Cid {
        Cid::for_cbor(&n.to_be_bytes())
    }

    /// `count` distinct keys whose layer satisfies `pick`.
    fn keys_where(pick: impl Fn(u32) -> bool, count: usize) -> Vec<String> {
        (0u32..)
            .map(|n| format!("app.bsky.feed.post/k{n}"))
            .filter(|key| pick(key_layer(key)))
            .take(count)
            .collect()
    }

    /// A repository's collections, and one that extends another by a
    /// dotted segment: `.` sorts below `/`, so its keys fall between the
    /// shorter collection's and share its whole name.
    const COLLECTIONS: [&str; 8] = [
        "app.bsky.actor.profile",
        "app.bsky.feed.generator",
        "app.bsky.feed.like",
        "app.bsky.feed.post",
        "app.bsky.feed.post.x",
        "app.bsky.feed.repost",
        "app.bsky.graph.block",
        "app.bsky.graph.follow",
    ];

    #[test]
    fn incremental_tree_matches_the_reference_rebuild() {
        let mut rng = TestRng::new(0x35a);
        for round in 0..10 {
            let mut tree = Checked::default();
            // The first rounds draw from a key space small enough that
            // replaces of live keys are common, over two collections. The
            // rest are repositories' streams: TID keys in time order over
            // every collection, the TIDs closer together (sharing longer
            // prefixes) from round to round.
            let space = 40 + 150 * round;
            let mut micros = 1_700_000_000_000_000u64;
            let mut arb_key = |rng: &mut TestRng| {
                if round < 6 {
                    let collection = COLLECTIONS[2 + rng.below(2) as usize];
                    return format!("{collection}/r{}", rng.below(space));
                }
                micros += 1 + rng.below([5_000_000, 60_000, 1_000, 10][round as usize - 6]);
                let collection = COLLECTIONS[rng.below(COLLECTIONS.len() as u64) as usize];
                let rkey = crate::tid::Tid::from_micros(micros, 7).to_string_form();
                format!("{collection}/{rkey}")
            };
            for batch in 0..60 {
                // Every fifth batch replaces live values and then puts them
                // back: the root is what it was.
                if batch % 5 == 4 && !tree.model.is_empty() {
                    let (before, root) = (tree.model.clone(), tree.mst.root_cid());
                    let keys: Vec<String> = before.keys().cloned().collect();
                    for _ in 0..1 + rng.below(6) {
                        let key = &keys[rng.below(keys.len() as u64) as usize];
                        tree.insert(key, value(rng.next_u64()));
                    }
                    for (key, cid) in &before {
                        if tree.model[key] != *cid {
                            tree.insert(key, *cid);
                        }
                    }
                    tree.check();
                    assert_eq!(tree.mst.root_cid(), root, "a batch put back");
                    continue;
                }
                for _ in 0..1 + rng.below(6) {
                    let key = arb_key(&mut rng);
                    match tree.model.get(&key).copied() {
                        Some(same) if rng.below(2) == 0 => tree.insert(&key, same), // no-op replace
                        _ => tree.insert(&key, value(rng.next_u64())),
                    }
                }
                tree.check();
            }
        }
    }

    /// The shape changes random batches rarely hit, one at a time.
    #[test]
    fn incremental_tree_handles_root_lifts() {
        let low = keys_where(|layer| layer == 0, 12);
        let mid = keys_where(|layer| layer == 1, 2);
        let high = keys_where(|layer| layer >= 2, 2);
        let mut tree = Checked::default();
        tree.check(); // the empty tree
        for (n, key) in low.iter().enumerate() {
            tree.insert(key, value(n as u64));
        }
        tree.check();
        // A key two or more layers above the root: the old root splits
        // around it and hangs under pass-through nodes.
        tree.insert(&high[0], value(100));
        tree.check();
        // Keys landing in, and next to, the pass-through chain.
        tree.insert(&mid[0], value(101));
        tree.check();
        tree.insert(&high[1], value(102));
        tree.insert(&mid[1], value(103));
        tree.check();
        // A no-op replace of a deep key hashes nothing.
        tree.insert(&low[3], value(3));
        let hashed = tree.mst.hashed.get();
        tree.check();
        assert_eq!(tree.mst.hashed.get(), hashed);
        // A lone high key is its own root.
        let mut lone = Checked::default();
        lone.insert(&high[0], value(200));
        lone.check();
        assert!(lone.mst.node(lone.mst.root).layer >= 2);
    }

    /// A repository's tree: record keys are TIDs, so each collection's keys
    /// arrive in ascending order, and the collections interleave. Built in
    /// that order, the tree's records hold under 1 % more bytes than they
    /// use, not the twice as many `Vec` doubling would leave: the only
    /// records with room to spare are the ones still growing, at the right
    /// edge of each collection.
    #[test]
    fn a_repository_shaped_tree_holds_little_entry_slack() {
        let collections = [
            "app.bsky.feed.like",
            "app.bsky.feed.post",
            "app.bsky.feed.repost",
            "app.bsky.graph.follow",
        ];
        let mut rng = TestRng::new(0x7d5);
        let mut mst = Mst::new();
        let mut micros = 1_700_000_000_000_000u64;
        for n in 0..30_000u64 {
            micros += 1 + rng.below(5_000_000);
            let collection = collections[rng.below(4) as usize];
            let rkey = crate::tid::Tid::from_micros(micros, 7).to_string_form();
            let key = format!("{collection}/{rkey}");
            assert_eq!(mst.insert(&key, value(n)).unwrap(), None);
        }
        let (held, used, entries) = entry_slots(&mst);
        assert_eq!(entries, 30_000);
        assert!(
            held * 100 <= used * 101,
            "{held} record bytes held for {used} used"
        );
    }

    /// A random repository-shaped key set: keys `<collection>/d<day>n<n>`
    /// over every collection, so each collection's keys sort by day; each
    /// key's value, and the day it was drawn on.
    fn dated_keys(rng: &mut TestRng) -> Vec<(String, Cid, u16)> {
        let (count, days) = (1 + rng.below(600), 1 + rng.below(60));
        let mut keys: BTreeMap<String, (Cid, u16)> = BTreeMap::new();
        for n in 0..count {
            let collection = COLLECTIONS[rng.below(COLLECTIONS.len() as u64) as usize];
            let day = rng.below(days) as u16;
            let key = format!("{collection}/d{day:03}n{n}");
            keys.insert(key, (value(rng.next_u64()), day));
        }
        keys.into_iter()
            .map(|(key, (cid, day))| (key, cid, day))
            .collect()
    }

    /// Collapse the released, frozen subtrees of random trees. The root
    /// stays, the arena keeps no free slot, and once every stub is drawn
    /// again each node block and each entry is the never-collapsed tree's
    /// and the reference builder's. A lookup or an insert that meets a stub
    /// opens it first, and the tree it leaves is the one never collapsed,
    /// with the insert. A tampered, short or failing source fails the
    /// re-derivation, and the stub stays.
    #[test]
    fn collapsed_subtrees_draw_again_to_the_tree_they_were() {
        let mut rng = TestRng::new(0xc011_a95e);
        let (mut collapsed, mut opened) = (0, 0);
        for round in 0..60 {
            let keys = dated_keys(&mut rng);
            let cutoff = rng.below(70) as u16;
            // One value in twenty stays held, as a profile's does.
            let released: BTreeMap<Cid, u16> = keys
                .iter()
                .filter(|&&(_, _, day)| day < cutoff && rng.below(20) > 0)
                .map(|&(_, cid, day)| (cid, day))
                .collect();
            let whole: Mst = keys
                .iter()
                .map(|(key, cid, _)| (key.clone(), *cid))
                .collect();
            let mut tree = whole.clone();
            let stubs = tree.collapse(&|cid| released.get(&cid).copied());
            let here = format!("round {round}: {} keys, {stubs} stubs", keys.len());
            assert_eq!(tree.stubs(), stubs, "{here}");
            assert_eq!(tree.root_cid(), whole.root_cid(), "{here}");
            assert_eq!(tree.free, NIL, "{here}");
            let (slots, bytes) = (tree.layout(), whole.layout());
            assert!(slots.0 <= bytes.0, "{here}");
            assert!(stubs == 0 || slots.1 < bytes.1, "{here}");
            assert!(!tree.node(tree.root).is_stub(), "{here}");
            collapsed += stubs;
            let mut draw = |first: u16, last: u16| -> Result<Vec<(String, Cid)>> {
                let days = keys
                    .iter()
                    .filter(|(_, _, day)| (first..=last).contains(day));
                Ok(days.map(|(key, cid, _)| (key.clone(), *cid)).collect())
            };

            let mut open = tree.clone();
            assert_eq!(open.expand(&mut draw).unwrap(), stubs, "{here}");
            assert_eq!(open.stubs(), 0);
            let (root, blocks) = whole.build_with(true);
            assert_eq!(open.root_cid(), root, "{here}");
            assert_eq!(open.blocks(), blocks, "{here}");
            assert_eq!(open.entries(), whole.entries(), "{here}");
            entry_slots(&open);

            // Every key under a stub: unknown until opened, then the value
            // the whole tree holds; and a new key beside it inserts as into
            // the tree never collapsed.
            let mut inserted = whole.clone();
            for (n, (key, cid, _)) in keys.iter().enumerate() {
                if tree.descend(key.as_bytes()).is_ok() {
                    assert_eq!(tree.get(key), Some(*cid), "{here}");
                    continue;
                }
                assert_eq!(tree.get_live(key), None, "{here}");
                let fresh = format!("{key}x");
                if tree.descend(fresh.as_bytes()).is_err() {
                    assert!(tree.insert(&fresh, value(n as u64)).is_err(), "{here}");
                }
                opened += tree.open(key, &mut draw).unwrap().0;
                assert_eq!(tree.get(key), Some(*cid), "{here}");
                opened += tree.open(&fresh, &mut draw).unwrap().0;
                assert_eq!(tree.insert(&fresh, value(n as u64)).unwrap(), None);
                inserted.insert(&fresh, value(n as u64)).unwrap();
                assert_eq!(tree.root_cid(), inserted.root_cid(), "{here}");
            }
            assert_eq!(tree.stubs(), 0, "{here}");
            assert_eq!(tree.blocks(), inserted.build_with(true).1, "{here}");

            // Drawn wrong: every value changed, the last day of the range
            // left out, or no source.
            let mut stubbed = whole.clone();
            stubbed.collapse(&|cid| released.get(&cid).copied());
            // A stub opened by a lookup alone collapses again at the next
            // release.
            if let Some((key, _, _)) = keys
                .iter()
                .find(|(key, ..)| stubbed.descend(key.as_bytes()).is_err())
            {
                let mut reopened = stubbed.clone();
                assert!(reopened.open(key, &mut draw).unwrap().0 > 0, "{here}");
                assert!(reopened.stubs() < stubs, "{here}");
                reopened.collapse(&|cid| released.get(&cid).copied());
                assert_eq!(reopened.stubs(), stubs, "{here}");
                assert_eq!(reopened.root_cid(), whole.root_cid(), "{here}");
            }
            let mut tampered = |first: u16, last: u16| -> Result<Vec<(String, Cid)>> {
                let pairs = draw(first, last)?;
                Ok(pairs.into_iter().map(|(key, _)| (key, value(7))).collect())
            };
            let mut short = |first: u16, last: u16| -> Result<Vec<(String, Cid)>> {
                let days = keys
                    .iter()
                    .filter(|(_, _, day)| (first..last).contains(day));
                Ok(days.map(|(key, cid, _)| (key.clone(), *cid)).collect())
            };
            let mut missing = |_: u16, _: u16| -> Result<Vec<(String, Cid)>> {
                Err(AtError::RepoError("no record source".into()))
            };
            let wrong: [&mut Draw<'_>; 3] = [&mut tampered, &mut short, &mut missing];
            for draw in wrong {
                let mut copy = stubbed.clone();
                assert_eq!(copy.expand(draw).is_err(), stubs > 0, "{here}");
                assert_eq!(copy.stubs(), stubbed.stubs(), "{here}");
                assert_eq!(copy.root_cid(), whole.root_cid(), "{here}");
            }
        }
        assert!(
            collapsed > 200 && opened > 100,
            "{collapsed} stubs, {opened} opened"
        );
    }

    fn arb_entries(rng: &mut TestRng) -> BTreeMap<String, u32> {
        let count = rng.below(64) as usize;
        (0..count)
            .map(|_| {
                let key = format!("app.bsky.feed.post/{}", rng.lowercase(1, 8));
                (key, rng.next_u64() as u32)
            })
            .collect()
    }

    #[test]
    fn root_depends_only_on_contents() {
        let mut rng = TestRng::new(0x357);
        for _ in 0..40 {
            let entries = arb_entries(&mut rng);
            let order_seed = rng.next_u64();
            let mut forward = Mst::new();
            for (k, v) in &entries {
                forward.insert(k, Cid::for_cbor(&v.to_be_bytes())).unwrap();
            }
            // Insert in a pseudo-shuffled order.
            let mut keys: Vec<_> = entries.keys().cloned().collect();
            keys.sort_by_key(|k| crate::crypto::sha256(format!("{order_seed}{k}").as_bytes()));
            let mut shuffled = Mst::new();
            for k in keys {
                let v = entries[&k];
                shuffled
                    .insert(&k, Cid::for_cbor(&v.to_be_bytes()))
                    .unwrap();
            }
            assert_eq!(forward.root_cid(), shuffled.root_cid());
        }
    }

    #[test]
    fn diff_then_apply_restores_equality() {
        let mut rng = TestRng::new(0x358);
        for _ in 0..40 {
            // `b` holds every key of `a`, some under new values, and more.
            let a = arb_entries(&mut rng);
            let mut b = arb_entries(&mut rng);
            for (key, value) in &a {
                let value = if rng.below(3) == 0 {
                    rng.next_u64() as u32
                } else {
                    *value
                };
                b.entry(key.clone()).or_insert(value);
            }
            let make = |m: &BTreeMap<String, u32>| -> Mst {
                m.iter()
                    .map(|(k, v)| (k.clone(), Cid::for_cbor(&v.to_be_bytes())))
                    .collect()
            };
            let old = make(&a);
            let new = make(&b);
            // Applying the difference to `old` must produce `new`.
            let mut patched = old.clone();
            for (key, cid) in new.entries() {
                patched.insert(&key, cid).unwrap();
            }
            assert_eq!(patched.root_cid(), new.root_cid());
            assert_eq!(patched, new);
        }
    }
}
