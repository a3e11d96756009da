//! Merkle Search Tree (MST).
//!
//! ATProto repositories store their record index in an MST: a deterministic,
//! content-addressed search tree whose shape depends only on the set of keys
//! it contains (never on insertion order). Keys are `<collection>/<rkey>`
//! strings and values are CIDs of the record blocks.
//!
//! The tree is kept **materialised and updated in place**. A key's layer is
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
//! `Mst::take_node_delta` reports what a batch of mutations did to the node
//! *set* (the CIDs that joined the tree, children before parents, and those
//! that left it), which the repository layer logs per commit. The tree is also the only copy of its node *blocks*: nothing
//! stores them, and `Mst::for_each_block` encodes them while an archive is
//! written, pruned to the subtrees a consumer lacks. Node blocks are encoded
//! directly with [`crate::cbor`]'s raw writers — byte-identical to the
//! generic `Value` encoder, without allocating a value tree per node — and
//! a node that is only hashed is encoded straight into the hasher.
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
//! The tests pin the incremental tree, its encoder and the byte win over the
//! legacy full-key encoding against a rebuild-from-scratch reference builder
//! and a node decoder that live beside them under `#[cfg(test)]`.

use crate::cbor::raw::{self, Sink};
use crate::cid::{Cid, CidSet, PACKED_LEN};
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

/// A node's memoised content address, and whether the last
/// [`Mst::take_node_delta`] has already accounted for it.
#[derive(Debug, Clone, Copy)]
enum Memo {
    /// Mutated since it was last hashed.
    Dirty,
    /// Hashed since the last drain, not yet reported by one.
    Fresh(Cid),
    /// A member of the node set as of the last drain.
    Settled(Cid),
}

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

    /// Subtrees in key order.
    fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.left)
            .chain(self.entries().map(|entry| entry.right))
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

    /// The memoised CID; every reader seals the tree first.
    fn cid(&self) -> Cid {
        match self.memo.get() {
            Memo::Fresh(cid) | Memo::Settled(cid) => cid,
            Memo::Dirty => panic!("MST node read before it was hashed"),
        }
    }
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
    len: usize,
    /// CIDs that were live at the last [`Mst::take_node_delta`] and whose
    /// nodes have been mutated or unlinked since. Bounded by the size of the
    /// tree at that drain; a tree that is never drained never adds to it.
    removed: CidSet,
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
            removed: CidSet::default(),
            hashed: Cell::new(0),
        }
    }
}

impl PartialEq for Mst {
    fn eq(&self, other: &Mst) -> bool {
        // Memos, drain bookkeeping and the arena's layout are derived state;
        // two trees are equal iff their contents are.
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

/// What the mutations since the previous [`Mst::take_node_delta`] did to the
/// tree's node set: exactly the set difference between the node sets after
/// and before, however the mutations got there (a value replaced and then
/// put back nets to nothing). CIDs only: the
/// blocks stay in the tree, which encodes them again when an archive needs
/// them.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NodeDelta {
    /// CIDs of the nodes of the tree now that were not nodes of it then,
    /// children before parents.
    pub(crate) added: Vec<Cid>,
    /// CIDs of nodes of the tree then that are not nodes of it now, in no
    /// particular order.
    pub(crate) removed: CidSet,
}

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

    /// Drop a node's memoised CID ahead of a mutation; a CID the last drain
    /// counted as live is noted as having left the tree.
    fn touch(&mut self, id: NodeId) {
        if let Memo::Settled(cid) = self.node(id).memo.replace(Memo::Dirty) {
            self.removed.insert(cid);
        }
    }

    /// Return a vacant node's slot to the free list.
    fn release(&mut self, id: NodeId) {
        let free = self.free;
        *self.node_mut(id) = Node::new(0, free, Vec::new());
        self.free = id;
    }

    /// Insert or replace a key, returning the previous value if any.
    pub fn insert(&mut self, key: &str, cid: Cid) -> Result<Option<Cid>> {
        validate_key(key)?;
        Ok(self.set(key, cid))
    }

    /// [`Mst::insert`] of a key the caller has already validated.
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
    pub(crate) fn get(&self, key: &str) -> Option<Cid> {
        let mut node = self.node(self.root);
        loop {
            let place = node.place(key.as_bytes());
            if place.found {
                return Some(entry_at(&node.record, place.at, node.layer).value());
            }
            match node.gap(place.gap) {
                NIL => return None,
                child => node = self.node(child),
            }
        }
    }

    /// Hand `visit` every `(key, value)` pair in key order.
    pub(crate) fn for_each_entry(&self, mut visit: impl FnMut(&str, Cid)) {
        self.walk(self.root, &mut KeyBuf::new(), &mut visit);
    }

    /// [`Mst::for_each_entry`] over one subtree. One buffer serves the whole
    /// walk: a subtree's keys all sort between the entries around it, so
    /// its last key shares the next entry's `p` bytes.
    fn walk(&self, id: NodeId, key: &mut KeyBuf, visit: &mut impl FnMut(&str, Cid)) {
        let node = self.node(id);
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
        self.seal(self.root, None)
    }

    /// The root CID plus what the mutations since the previous call did to
    /// the node set (the first call reports the whole tree as added). This
    /// is the commit path: one walk over the touched nodes hashes them and
    /// yields the CIDs to log.
    pub(crate) fn take_node_delta(&mut self) -> (Cid, NodeDelta) {
        let mut delta = NodeDelta {
            added: Vec::new(),
            removed: std::mem::take(&mut self.removed),
        };
        let root = self.seal(self.root, Some(&mut delta));
        (root, delta)
    }

    /// Hash every dirty node of the subtree at `id`, children before
    /// parents, and return the subtree's CID. With a delta the walk is a
    /// drain: it also revisits nodes hashed since the last drain, settles
    /// them, and reports each one whose CID was not live at that drain as
    /// added (a node that hashes back to a removed CID cancels the
    /// departure instead).
    fn seal(&self, id: NodeId, mut delta: Option<&mut NodeDelta>) -> Cid {
        let node = self.node(id);
        let known = match node.memo.get() {
            Memo::Settled(cid) => return cid,
            Memo::Fresh(cid) if delta.is_none() => return cid,
            Memo::Fresh(cid) => Some(cid),
            Memo::Dirty => None,
        };
        for child in node.children() {
            self.seal(child, delta.as_deref_mut());
        }
        let cid = known.unwrap_or_else(|| {
            let mut hashing = Hashing {
                hasher: Sha256::new(),
                len: 0,
                block: [0; HASHING_BLOCK],
            };
            self.encode(node, &mut hashing);
            self.hashed.set(self.hashed.get() + 1);
            hashing.cid()
        });
        match delta {
            Some(delta) => {
                if !delta.removed.remove(&cid) {
                    delta.added.push(cid);
                }
                node.memo.set(Memo::Settled(cid));
            }
            None => node.memo.set(Memo::Fresh(cid)),
        }
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
    /// seals the tree, then hands `visit` each node's CID and block bytes,
    /// children before parents, descending only into nodes `descend`
    /// accepts (`|_| true`: the whole tree). Re-encodes every visited node
    /// into one buffer that lives for the walk; hashes only the dirty ones.
    pub(crate) fn for_each_block(
        &self,
        mut descend: impl FnMut(&Cid) -> bool,
        mut visit: impl FnMut(&Cid, &[u8]),
    ) {
        self.root_cid();
        let mut buf = Vec::new();
        self.blocks_under(self.root, &mut buf, &mut descend, &mut visit);
    }

    /// [`Mst::for_each_block`] over one subtree.
    fn blocks_under(
        &self,
        id: NodeId,
        buf: &mut Vec<u8>,
        descend: &mut impl FnMut(&Cid) -> bool,
        visit: &mut impl FnMut(&Cid, &[u8]),
    ) {
        let node = self.node(id);
        let cid = node.cid();
        if !descend(&cid) {
            return;
        }
        for child in node.children() {
            self.blocks_under(child, buf, descend, visit);
        }
        buf.clear();
        self.encode(node, buf);
        visit(&cid, buf);
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
// incremental tree, its node encoder and the per-commit node log to. They
// rebuild every node from the tree's key list and share only the raw CBOR
// writers with the live tree.
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
            self.for_each_block(
                |_| true,
                |cid, bytes| {
                    blocks.push(MstNode {
                        cid: *cid,
                        bytes: bytes.to_vec(),
                    })
                },
            );
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

        /// The MST diff walk at the node level: the node blocks of `self` that
        /// are not nodes of `old` — what a sync consumer that already holds
        /// `old` is missing. Encodes both trees whole; the repository walks
        /// only the subtrees its per-commit node log says are new, and the
        /// tests in `repo.rs` pin the two equal.
        pub(crate) fn node_delta(&self, old: &Mst) -> Vec<MstNode> {
            let old_cids: CidSet = old.blocks().iter().map(|n| n.cid).collect();
            self.blocks()
                .into_iter()
                .filter(|n| !old_cids.contains(&n.cid))
                .collect()
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
    /// hashes its path (at most 16 nodes, not the ~700 of the tree), a
    /// repeated `root_cid()` hashes nothing, and a tree used standalone —
    /// `insert` per key then `root_cid()`, never draining its node delta —
    /// keeps no per-mutation state behind.
    #[test]
    fn a_commit_hashes_its_path_and_an_undrained_tree_keeps_no_backlog() {
        let mut mst = Mst::new();
        for n in 0..2000 {
            mst.insert(&key_for(n), cid_for(n)).unwrap();
        }
        let (_, whole) = mst.take_node_delta();
        assert!(whole.added.len() > 400, "{} nodes", whole.added.len());
        for n in 2000..2100 {
            let before = mst.hashed.get();
            mst.insert(&key_for(n), cid_for(n)).unwrap();
            let (root, delta) = mst.take_node_delta();
            let hashed = mst.hashed.get() - before;
            assert!(hashed <= 16, "key {n}: hashed {hashed} nodes");
            assert!(delta.added.len() as u64 <= hashed);
            assert_eq!(mst.root_cid(), root);
            assert_eq!(mst.hashed.get() - before, hashed, "repeat read hashed");
        }

        let mut standalone = Mst::new();
        for n in 0..2000 {
            let before = standalone.hashed.get();
            standalone.insert(&key_for(n), cid_for(n)).unwrap();
            standalone.root_cid();
            assert!(standalone.hashed.get() - before <= 16);
        }
        for n in 0..2000 {
            standalone.insert(&key_for(n), cid_for(n + 1)).unwrap();
            standalone.insert(&key_for(n + 2000), cid_for(n)).unwrap();
            standalone.root_cid();
        }
        assert!(
            standalone.removed.is_empty(),
            "an undrained tree must not log departures: {}",
            standalone.removed.len()
        );
        assert_eq!(standalone.root_cid(), standalone.build_with(true).0);
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
    fn node_delta_of_identical_trees_is_empty() {
        let mut mst = Mst::new();
        for i in 0..100 {
            mst.insert(&key_for(i), cid_for(i)).unwrap();
        }
        assert!(mst.node_delta(&mst.clone()).is_empty());
        // The empty tree diffed against itself is also empty.
        assert!(Mst::new().node_delta(&Mst::new()).is_empty());
    }

    #[test]
    fn node_delta_for_single_record_add() {
        let mut old = Mst::new();
        for i in 0..200 {
            old.insert(&key_for(i), cid_for(i)).unwrap();
        }
        let mut new = old.clone();
        new.insert(&key_for(1_000), cid_for(1_000)).unwrap();
        let delta = new.node_delta(&old);
        // The add rewrites the path from the leaf to the root — a handful of
        // nodes, far fewer than the whole tree.
        assert!(!delta.is_empty());
        assert!(delta.len() < new.blocks().len());
        // Every delta node is a node of the new tree, and together with the
        // old nodes they cover the new tree completely.
        let new_cids: BTreeMap<Cid, ()> = new.blocks().iter().map(|n| (n.cid, ())).collect();
        assert!(delta.iter().all(|n| new_cids.contains_key(&n.cid)));
        let old_cids: std::collections::BTreeSet<Cid> =
            old.blocks().iter().map(|n| n.cid).collect();
        let mut covered = old_cids.clone();
        covered.extend(delta.iter().map(|n| n.cid));
        assert!(new.blocks().iter().all(|n| covered.contains(&n.cid)));
        // A walk pruned at the nodes `old` has (an unchanged node's whole
        // subtree is unchanged) yields the same blocks in the same order.
        let mut pruned = Vec::new();
        new.for_each_block(
            |cid| !old_cids.contains(cid),
            |cid, bytes| pruned.push((*cid, bytes.to_vec())),
        );
        let expected: Vec<(Cid, Vec<u8>)> = delta.into_iter().map(|n| (n.cid, n.bytes)).collect();
        assert_eq!(pruned, expected);
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
    use std::collections::{BTreeMap, BTreeSet};

    /// An incremental tree driven next to a plain ordered map, checked
    /// against the rebuild-from-scratch reference builder.
    #[derive(Default)]
    struct Checked {
        mst: Mst,
        model: BTreeMap<String, Cid>,
        /// The reference node set at the last drain (empty at creation).
        live: BTreeSet<Cid>,
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

        /// The end of a batch: root CID, block list (in order, bytes
        /// included) and reported node delta (added CIDs in order, removed
        /// CIDs as a set) must all be what the reference rebuild says.
        /// `peek_root` reads the root before draining, so the drain meets
        /// nodes an earlier `root_cid()` already hashed.
        fn check(&mut self, peek_root: bool) {
            assert_eq!(self.mst.len, self.model.len());
            assert!(self.mst.entries().into_iter().eq(self.model.clone()));
            let (root, blocks) = self.mst.build_with(true);
            if peek_root {
                assert_eq!(self.mst.root_cid(), root);
            }
            let (drained_root, delta) = self.mst.take_node_delta();
            assert_eq!(drained_root, root);
            assert_eq!(self.mst.blocks(), blocks);
            let now: BTreeSet<Cid> = blocks.iter().map(|n| n.cid).collect();
            let added: Vec<Cid> = blocks
                .iter()
                .map(|n| n.cid)
                .filter(|cid| !self.live.contains(cid))
                .collect();
            assert_eq!(delta.added, added);
            let removed: BTreeSet<Cid> = self.live.difference(&now).copied().collect();
            assert_eq!(delta.removed, removed.into_iter().collect());
            self.live = now;
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
                // back: the net delta is empty.
                if batch % 5 == 4 && !tree.model.is_empty() {
                    let before = tree.model.clone();
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
                    let live = tree.live.clone();
                    tree.check(batch % 2 == 0);
                    assert_eq!(tree.live, live, "a batch put back nets to nothing");
                    continue;
                }
                for _ in 0..1 + rng.below(6) {
                    let key = arb_key(&mut rng);
                    match tree.model.get(&key).copied() {
                        Some(same) if rng.below(2) == 0 => tree.insert(&key, same), // no-op replace
                        _ => tree.insert(&key, value(rng.next_u64())),
                    }
                }
                tree.check(batch % 2 == 0);
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
        tree.check(false); // the empty tree
        for (n, key) in low.iter().enumerate() {
            tree.insert(key, value(n as u64));
        }
        tree.check(false);
        // A key two or more layers above the root: the old root splits
        // around it and hangs under pass-through nodes.
        tree.insert(&high[0], value(100));
        tree.check(true);
        // Keys landing in, and next to, the pass-through chain.
        tree.insert(&mid[0], value(101));
        tree.check(false);
        tree.insert(&high[1], value(102));
        tree.insert(&mid[1], value(103));
        tree.check(true);
        // A no-op replace of a deep key reports nothing.
        tree.insert(&low[3], value(3));
        let hashed = tree.mst.hashed.get();
        tree.check(false);
        assert_eq!(tree.mst.hashed.get(), hashed);
        // A lone high key is its own root.
        let mut lone = Checked::default();
        lone.insert(&high[0], value(200));
        lone.check(false);
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
