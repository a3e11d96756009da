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
//! around the new key, a delete merges the two neighbouring gap subtrees and
//! trims an entry-less root, and a replace only swaps a value. A write is
//! one descent: [`Mst::insert`] computes the key's layer once and walks down
//! to the node of that layer, where it either finds the key and swaps its
//! value or splits the gap for it, so the caller learns from the returned
//! previous value whether it created or replaced. Every node on the touched
//! path drops its memoised CID, so [`Mst::root_cid`] encodes and hashes that
//! path alone: a commit costs its batch, not its repository. The node tree
//! is the only copy of the mapping; lookups and ordered iteration walk it.
//! `Mst::take_node_delta` reports what a batch of mutations did to the node
//! *set* (the CIDs that joined the tree, children before parents, and those
//! that left it), which the repository layer logs per commit. The tree is also the only copy of its node *blocks*: nothing
//! stores them, and `Mst::for_each_block` encodes them while an archive is
//! written, pruned to the subtrees a consumer lacks. Node blocks are encoded
//! directly to bytes with [`crate::cbor`]'s raw writers — byte-identical to
//! the generic `Value` encoder, without allocating a value tree per node.
//!
//! *Keys.* A tree keeps all its keys back to back in one buffer, and an
//! entry names its key by offset and length into it, so an entry is 48
//! bytes and a key costs no allocation of its own. A new key is appended; a
//! replaced value leaves the buffer as it is; a removed key leaves a hole,
//! unless it was the last key appended, which is cut off. Once the holes
//! outweigh the live key bytes and pass 4 KiB, one walk over the tree
//! repacks the live keys into a fresh buffer in key order.
//!
//! Node entries are **prefix-compressed on the wire**, as in the reference
//! implementation: within a node, each entry carries `p` (the number of key
//! bytes shared with the previous entry's key) and `k` (the remaining
//! suffix). Sibling record keys share long `<collection>/<rkey>` prefixes,
//! so this shrinks every node block — and with them full CAR exports and the
//! structural section of `getRepo(since)` deltas. The tests pin the
//! incremental tree, its encoder and the byte win over the legacy full-key
//! encoding against a rebuild-from-scratch reference builder and a node
//! decoder that live beside them under `#[cfg(test)]`.

use crate::cid::{Cid, CidSet};
use crate::crypto::sha256;
use crate::error::{AtError, Result};
use std::cell::{Cell, RefCell};

/// The fanout parameter: a key's layer is the number of leading zero *pairs of
/// bits* in its SHA-256 hash (fanout 4, as in the reference implementation).
const BITS_PER_LAYER: u32 = 2;

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
    if collection.is_empty() || rkey.is_empty() || key.len() > 256 {
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

/// A gap between two entries of a node (or at either end): the subtree one
/// layer down holding the keys that sort there, if there are any.
type Gap = Option<Box<Node>>;

#[derive(Debug, Clone)]
struct Entry {
    /// With `key_len`, where this entry's key sits in the tree's key buffer
    /// ([`Mst::keys`]). Two fields, because a `(u32, u16)` pair pads to 8
    /// bytes and the entry with it to 56.
    key_at: u32,
    key_len: u16,
    value: Cid,
    /// The gap between this entry and the next.
    right: Gap,
}

impl Entry {
    fn new((key_at, key_len): (u32, u16), value: Cid, right: Gap) -> Entry {
        Entry {
            key_at,
            key_len,
            value,
            right,
        }
    }

    /// This entry's key, read from the tree's key buffer.
    fn key<'k>(&self, keys: &'k str) -> &'k str {
        &keys[self.key_at as usize..][..usize::from(self.key_len)]
    }
}

/// Removed key bytes a tree's key buffer tolerates before it may be
/// repacked, however few live bytes it holds.
const KEY_HOLE_FLOOR: usize = 4 * 1024;

/// Append `key` to a key buffer, returning its span there.
fn push_key(keys: &mut String, key: &str) -> (u32, u16) {
    let at = u32::try_from(keys.len()).expect("MST key buffer exceeds 4 GiB");
    let len = u16::try_from(key.len()).expect("MST key longer than 64 KiB");
    keys.push_str(key);
    (at, len)
}

/// One tree node. Below the root a node is never vacant (it has an entry or
/// a left child) and sits exactly one layer under its parent.
#[derive(Debug, Clone)]
struct Node {
    layer: u32,
    memo: Cell<Memo>,
    /// The gap before the first entry.
    left: Gap,
    /// Never more than [`slack_bound`] slots for its length: a full vector
    /// grows by half its length ([`Node::upsert`]), and one left with
    /// more after a split, merge or removal is shrunk to fit ([`fit`]).
    /// `Vec`'s own doubling would leave a tree built in key order — a
    /// repository's, whose record keys are timestamps — at twice the slots
    /// it uses, while shrinking after every insert would reallocate every
    /// node on every write.
    entries: Vec<Entry>,
}

/// The most entry slots a node of `len` entries may hold.
fn slack_bound(len: usize) -> usize {
    len + len / 2 + 1
}

/// Give back a node's spare entry slots once they pass [`slack_bound`].
fn fit(entries: &mut Vec<Entry>) {
    if entries.capacity() > slack_bound(entries.len()) {
        entries.shrink_to_fit();
    }
}

impl Node {
    fn new(layer: u32, left: Gap, entries: Vec<Entry>) -> Node {
        Node {
            layer,
            memo: Cell::new(Memo::Dirty),
            left,
            entries,
        }
    }

    fn is_vacant(&self) -> bool {
        self.entries.is_empty() && self.left.is_none()
    }

    /// `Ok(i)` when entry `i` holds `key`, else `Err(i)` for the gap it
    /// sorts into.
    fn search(&self, keys: &str, key: &str) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by(|e| e.key(keys).cmp(key))
    }

    /// The index of the first entry whose key is not below `key`.
    fn position(&self, keys: &str, key: &str) -> usize {
        self.entries.partition_point(|e| e.key(keys) < key)
    }

    /// Gap `i`: before entry `i`, or trailing when `i == entries.len()`.
    fn gap(&self, i: usize) -> Option<&Node> {
        match i {
            0 => self.left.as_deref(),
            _ => self.entries[i - 1].right.as_deref(),
        }
    }

    fn gap_mut(&mut self, i: usize) -> &mut Gap {
        match i {
            0 => &mut self.left,
            _ => &mut self.entries[i - 1].right,
        }
    }

    /// Child nodes in key order.
    fn children(&self) -> impl Iterator<Item = &Node> {
        self.left
            .as_deref()
            .into_iter()
            .chain(self.entries.iter().filter_map(|e| e.right.as_deref()))
    }

    /// Drop the memoised CID ahead of a mutation; a CID the last drain
    /// counted as live is noted as having left the tree.
    fn touch(&self, removed: &mut CidSet) {
        if let Memo::Settled(cid) = self.memo.replace(Memo::Dirty) {
            removed.insert(cid);
        }
    }

    /// The memoised CID; every reader seals the tree first.
    fn cid(&self) -> Cid {
        match self.memo.get() {
            Memo::Fresh(cid) | Memo::Settled(cid) => cid,
            Memo::Dirty => panic!("MST node read before it was hashed"),
        }
    }

    /// This node's block, written over `out`; its children must already be
    /// hashed.
    fn encode_into(&self, keys: &str, out: &mut Vec<u8>) {
        let entries = self.entries.iter().map(|e| PendingEntry {
            key: e.key(keys),
            value: e.value,
            subtree: e.right.as_deref().map(Node::cid),
        });
        out.clear();
        encode_node(
            self.left.as_deref().map(Node::cid),
            entries,
            self.layer,
            true,
            out,
        );
    }

    /// Hash every dirty node of this subtree, children before parents, and
    /// return the subtree's CID. With a delta the walk is a drain: it also
    /// revisits nodes hashed since the last drain, settles them, and reports
    /// each one whose CID was not live at that drain as added (a node that
    /// hashes back to a removed CID cancels the departure instead).
    fn seal(&self, walk: &mut Sealing<'_>) -> Cid {
        let known = match self.memo.get() {
            Memo::Settled(cid) => return cid,
            Memo::Fresh(cid) if walk.delta.is_none() => return cid,
            Memo::Fresh(cid) => Some(cid),
            Memo::Dirty => None,
        };
        for child in self.children() {
            child.seal(walk);
        }
        let cid = known.unwrap_or_else(|| {
            self.encode_into(walk.keys, &mut walk.scratch);
            walk.hashed.set(walk.hashed.get() + 1);
            Cid::for_cbor(&walk.scratch)
        });
        match &mut walk.delta {
            Some(delta) => {
                if !delta.removed.remove(&cid) {
                    delta.added.push(cid);
                }
                self.memo.set(Memo::Settled(cid));
            }
            None => self.memo.set(Memo::Fresh(cid)),
        }
        cid
    }

    /// Hand `visit` the block of every node of this (sealed) subtree that
    /// `descend` accepts, children before parents, encoded into `scratch`;
    /// a node `descend` refuses is skipped with everything under it.
    fn for_each_block(
        &self,
        keys: &str,
        scratch: &mut Vec<u8>,
        descend: &mut impl FnMut(&Cid) -> bool,
        visit: &mut impl FnMut(&Cid, &[u8]),
    ) {
        let cid = self.cid();
        if !descend(&cid) {
            return;
        }
        for child in self.children() {
            child.for_each_block(keys, scratch, descend, visit);
        }
        self.encode_into(keys, scratch);
        visit(&cid, scratch);
    }

    /// Insert or replace a key of `layer <= self.layer` in this subtree,
    /// returning the previous value (`None`: the key was absent and is now
    /// appended to `keys`). One descent: the key can only sit in the node of
    /// its own layer, so the nodes above it just pick the gap to go down,
    /// and only a real change dirties the path back up.
    fn upsert(
        &mut self,
        keys: &mut String,
        key: &str,
        layer: u32,
        value: Cid,
        removed: &mut CidSet,
    ) -> Option<Cid> {
        let i = self.position(keys, key);
        if layer < self.layer {
            let old = match self.gap_mut(i) {
                Some(child) => child.upsert(keys, key, layer, value, removed),
                None => {
                    let entry = Entry::new(push_key(keys, key), value, None);
                    let leaf = Box::new(Node::new(layer, None, vec![entry]));
                    *self.gap_mut(i) = lift(Some(leaf), self.layer - 1);
                    None
                }
            };
            if old != Some(value) {
                self.touch(removed);
            }
            return old;
        }
        if let Some(entry) = self.entries.get_mut(i).filter(|e| e.key(keys) == key) {
            let old = std::mem::replace(&mut entry.value, value);
            if old != value {
                self.touch(removed);
            }
            return Some(old);
        }
        // The gap the key lands in splits around it.
        self.touch(removed);
        let (before, after) = split(self.gap_mut(i).take(), keys, key, removed);
        *self.gap_mut(i) = before;
        if self.entries.len() == self.entries.capacity() {
            self.entries.reserve_exact(self.entries.len() / 2 + 1);
        }
        self.entries
            .insert(i, Entry::new(push_key(keys, key), value, after));
        None
    }

    /// Remove a key from this subtree, returning its value and its span in
    /// `keys`. The caller unlinks this node if that leaves it vacant.
    fn remove(&mut self, keys: &str, key: &str, removed: &mut CidSet) -> Option<(Cid, (u32, u16))> {
        let old = match self.search(keys, key) {
            Ok(i) => {
                // The gaps on either side of the entry become one.
                let entry = self.entries.remove(i);
                fit(&mut self.entries);
                let before = self.gap_mut(i);
                *before = merge(before.take(), entry.right, removed);
                (entry.value, (entry.key_at, entry.key_len))
            }
            Err(i) => {
                let gap = self.gap_mut(i);
                let child = gap.as_mut()?;
                let old = child.remove(keys, key, removed)?;
                if child.is_vacant() {
                    *gap = None;
                }
                old
            }
        };
        self.touch(removed);
        Some(old)
    }

    /// Copy every key of this subtree, in key order, from `old` to the end
    /// of `packed`, and point the entries at their new spans.
    fn repack(&mut self, old: &str, packed: &mut String) {
        if let Some(left) = &mut self.left {
            left.repack(old, packed);
        }
        for entry in &mut self.entries {
            let span = push_key(packed, entry.key(old));
            entry.key_at = span.0;
            if let Some(right) = &mut entry.right {
                right.repack(old, packed);
            }
        }
    }
}

/// What one [`Node::seal`] walk carries down the tree.
struct Sealing<'a> {
    /// The tree's key buffer.
    keys: &'a str,
    hashed: &'a Cell<u64>,
    /// `Some`: the walk is a drain (see [`Node::seal`]).
    delta: Option<&'a mut NodeDelta>,
    /// Every dirty node is encoded here, one after the other, and hashed in
    /// place.
    scratch: Vec<u8>,
}

/// Split a gap subtree around an absent key that belongs above it: the keys
/// before it and the keys after it, each still a valid gap at that layer.
fn split(gap: Gap, keys: &str, key: &str, removed: &mut CidSet) -> (Gap, Gap) {
    let Some(mut node) = gap else {
        return (None, None);
    };
    node.touch(removed);
    let i = node.position(keys, key);
    let (before, after) = split(node.gap_mut(i).take(), keys, key, removed);
    let upper = Node::new(node.layer, after, node.entries.split_off(i));
    fit(&mut node.entries);
    *node.gap_mut(i) = before;
    let keep = |node: Box<Node>| (!node.is_vacant()).then_some(node);
    (keep(node), keep(Box::new(upper)))
}

/// Join two adjacent gap subtrees of the same layer (the entry between them
/// is gone) into one.
fn merge(before: Gap, after: Gap, removed: &mut CidSet) -> Gap {
    let (mut node, mut upper) = match (before, after) {
        (Some(before), Some(after)) => (before, after),
        (before, after) => return before.or(after),
    };
    node.touch(removed);
    upper.touch(removed);
    let last = node.entries.len();
    let seam = node.gap_mut(last);
    *seam = merge(seam.take(), upper.left.take(), removed);
    node.entries.reserve_exact(upper.entries.len());
    node.entries.append(&mut upper.entries);
    Some(node)
}

/// Wrap a gap subtree in entry-less pass-through nodes up to `layer`.
fn lift(gap: Gap, layer: u32) -> Gap {
    let mut node = gap?;
    while node.layer < layer {
        node = Box::new(Node::new(node.layer + 1, Some(node), Vec::new()));
    }
    Some(node)
}

/// A content-addressed key→CID index.
///
/// The node tree under `root` is the authoritative state; see the module
/// docs for its shape and how mutations maintain it.
#[derive(Debug, Clone)]
pub struct Mst {
    root: Node,
    len: usize,
    /// Every entry's key, back to back (see the module docs): the live keys
    /// plus `key_holes` bytes of removed ones.
    keys: String,
    key_holes: usize,
    /// CIDs that were live at the last [`Mst::take_node_delta`] and whose
    /// nodes have been mutated or unlinked since. Bounded by the size of the
    /// tree at that drain; a tree that is never drained never adds to it.
    removed: CidSet,
    /// Nodes hashed so far, the unit of the tests' work bounds.
    hashed: Cell<u64>,
    /// The encode buffer of [`Sealing`] and [`Mst::for_each_block`], kept
    /// between walks.
    scratch: RefCell<Vec<u8>>,
}

impl Default for Mst {
    fn default() -> Mst {
        Mst {
            root: Node::new(0, None, Vec::new()),
            len: 0,
            keys: String::new(),
            key_holes: 0,
            removed: CidSet::default(),
            hashed: Cell::new(0),
            scratch: RefCell::default(),
        }
    }
}

impl PartialEq for Mst {
    fn eq(&self, other: &Mst) -> bool {
        // Memos and drain bookkeeping are derived state; two trees are
        // equal iff their contents are.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Mst {}

/// What the mutations since the previous [`Mst::take_node_delta`] did to the
/// tree's node set: exactly the set difference between the node sets after
/// and before, however the mutations got there (a batch that was undone, or
/// a delete and re-add of the same value, nets to nothing). CIDs only: the
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

/// In-order iterator over a tree's `(key, cid)` pairs.
struct Iter<'a> {
    /// The tree's key buffer.
    keys: &'a str,
    /// Path from the root to the current position: each node with the index
    /// of its next entry to yield (the gap before that entry is done or on
    /// the stack above it).
    stack: Vec<(&'a Node, usize)>,
}

impl<'a> Iter<'a> {
    /// Start at the first key `>= from`.
    fn from_key(mst: &'a Mst, from: &str) -> Iter<'a> {
        let mut iter = Iter {
            keys: &mst.keys,
            stack: Vec::new(),
        };
        iter.descend(Some(&mst.root), from);
        iter
    }

    fn descend(&mut self, mut gap: Option<&'a Node>, from: &str) {
        while let Some(node) = gap {
            let i = node.position(self.keys, from);
            self.stack.push((node, i));
            gap = node.gap(i);
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Cid);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.last_mut()?;
            let node: &'a Node = top.0;
            let Some(entry) = node.entries.get(top.1) else {
                self.stack.pop();
                continue;
            };
            top.1 += 1;
            self.descend(entry.right.as_deref(), "");
            return Some((entry.key(self.keys), &entry.value));
        }
    }
}

impl Mst {
    /// Create an empty tree.
    pub(crate) fn new() -> Mst {
        Mst::default()
    }

    /// Insert or replace a key, returning the previous value if any.
    pub fn insert(&mut self, key: &str, cid: Cid) -> Result<Option<Cid>> {
        validate_key(key)?;
        Ok(self.set(key, cid))
    }

    fn set(&mut self, key: &str, cid: Cid) -> Option<Cid> {
        let layer = key_layer(key);
        let removed = &mut self.removed;
        if self.len == 0 {
            self.root.touch(removed);
            self.root.layer = layer;
        }
        let old = if layer > self.root.layer {
            // The key becomes the only entry of a new, higher root; the old
            // root splits around it and each half is lifted to sit just
            // under the new one.
            let old_root = std::mem::replace(&mut self.root, Node::new(layer, None, Vec::new()));
            let (before, after) = split(Some(Box::new(old_root)), &self.keys, key, removed);
            self.root.left = lift(before, layer - 1);
            let span = push_key(&mut self.keys, key);
            self.root.entries = vec![Entry::new(span, cid, lift(after, layer - 1))];
            None
        } else {
            self.root.upsert(&mut self.keys, key, layer, cid, removed)
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove a key, returning its value if it was present.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Cid> {
        let (old, span) = self.root.remove(&self.keys, key, &mut self.removed)?;
        self.len -= 1;
        self.release_key(span);
        // The root sits at the highest layer any key has: an entry-less
        // root gives way to its only child, and the empty tree is layer 0.
        while self.root.entries.is_empty() {
            self.root.touch(&mut self.removed);
            match self.root.left.take() {
                Some(below) => self.root = *below,
                None => {
                    self.root.layer = 0;
                    break;
                }
            }
        }
        Some(old)
    }

    /// Give back a removed key's bytes: cut off at the end of the buffer,
    /// a hole anywhere else. Once the holes outweigh the live bytes and pass
    /// [`KEY_HOLE_FLOOR`], the live keys are repacked into a fresh buffer.
    fn release_key(&mut self, (at, len): (u32, u16)) {
        let (at, len) = (at as usize, usize::from(len));
        if at + len == self.keys.len() {
            self.keys.truncate(at);
        } else {
            self.key_holes += len;
        }
        let live = self.keys.len() - self.key_holes;
        if self.key_holes > live && self.key_holes >= KEY_HOLE_FLOOR {
            let mut packed = String::with_capacity(live);
            self.root.repack(&self.keys, &mut packed);
            self.keys = packed;
            self.key_holes = 0;
        }
    }

    /// Look up a key.
    pub(crate) fn get(&self, key: &str) -> Option<&Cid> {
        let mut node = &self.root;
        loop {
            match node.search(&self.keys, key) {
                Ok(i) => return Some(&node.entries[i].value),
                Err(i) => node = node.gap(i)?,
            }
        }
    }

    /// Iterate all `(key, cid)` pairs in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Cid)> {
        Iter::from_key(self, "")
    }

    /// The root CID. Hashes only the nodes mutated since the last call, so
    /// a repeat with no mutation in between hashes nothing.
    pub fn root_cid(&self) -> Cid {
        self.seal(None)
    }

    fn seal(&self, delta: Option<&mut NodeDelta>) -> Cid {
        let mut walk = Sealing {
            keys: &self.keys,
            hashed: &self.hashed,
            delta,
            scratch: self.scratch.take(),
        };
        let root = self.root.seal(&mut walk);
        self.scratch.replace(walk.scratch);
        root
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
        let root = self.seal(Some(&mut delta));
        (root, delta)
    }

    /// The one walk over the tree's node blocks, for both archive exports:
    /// seals the tree, then hands `visit` each node's CID and block bytes,
    /// children before parents, descending only into nodes `descend`
    /// accepts (`|_| true`: the whole tree). Re-encodes every visited node
    /// into one reused buffer; hashes only the dirty ones.
    pub(crate) fn for_each_block(
        &self,
        mut descend: impl FnMut(&Cid) -> bool,
        mut visit: impl FnMut(&Cid, &[u8]),
    ) {
        self.root_cid();
        let mut scratch = self.scratch.take();
        self.root
            .for_each_block(&self.keys, &mut scratch, &mut descend, &mut visit);
        self.scratch.replace(scratch);
    }
}

/// A node entry awaiting encoding.
struct PendingEntry<'a> {
    key: &'a str,
    value: Cid,
    subtree: Option<Cid>,
}

/// Append one MST node block to `out`, without building an intermediate
/// `Value` tree — byte-identical to encoding the equivalent `Value`
/// (map keys emitted in DAG-CBOR canonical order: length first, then
/// bytewise), pinned by the `direct_encoding_matches_value_encoding` test.
/// With `compress`, each entry's key is cut to the suffix past the prefix it
/// shares with the previous entry of *this* node (compression never crosses
/// node boundaries).
fn encode_node<'a>(
    left_child: Option<Cid>,
    entries: impl ExactSizeIterator<Item = PendingEntry<'a>>,
    layer: u32,
    compress: bool,
    out: &mut Vec<u8>,
) {
    use crate::cbor::raw;
    raw::map_head(3, out);
    // "e" < "l" < "layer" in canonical order.
    raw::text("e", out);
    raw::array_head(entries.len() as u64, out);
    let mut prev_key = "";
    for entry in entries {
        // Entry keys are all one byte, so canonical order is bytewise:
        // "k" < "p" < "t" < "v" (no "p" when uncompressed).
        let fields = 2 + usize::from(compress) + usize::from(entry.subtree.is_some());
        raw::map_head(fields as u64, out);
        let prefix = if compress {
            common_prefix_len(prev_key, entry.key)
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

/// Number of leading bytes two keys share. Keys are ASCII (enforced by
/// [`validate_key`]), so a byte index is always a char boundary.
fn common_prefix_len(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

impl FromIterator<(String, Cid)> for Mst {
    fn from_iter<T: IntoIterator<Item = (String, Cid)>>(iter: T) -> Self {
        let mut mst = Mst::new();
        for (key, cid) in iter {
            mst.set(&key, cid);
        }
        mst
    }
}

// ---------------------------------------------------------------------------
// Reference implementations the tests below (and `repo.rs`'s) hold the
// incremental tree, its direct node encoder and the per-commit node log to.
// They share only `encode_node` with the live tree.
// ---------------------------------------------------------------------------

#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::cbor::Value;

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

        /// The key buffer, holes included.
        pub(crate) fn keys_buffer(&self) -> &str {
            &self.keys
        }

        /// Iterate the keys of a single collection (keys beginning with
        /// `<collection>/`).
        pub(crate) fn iter_collection<'a>(
            &'a self,
            collection: &str,
        ) -> impl Iterator<Item = (&'a str, &'a Cid)> + 'a {
            let end = format!("{collection}0"); // '0' sorts just after '/'
            Iter::from_key(self, &format!("{collection}/"))
                .take_while(move |(key, _)| *key < end.as_str())
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
            let items: Vec<(&str, Cid, u32)> = self
                .iter()
                .map(|(key, cid)| (key, *cid, key_layer(key)))
                .collect();
            let top_layer = items.iter().map(|(_, _, l)| *l).max().unwrap_or(0);
            let root = Self::build_node(&items, top_layer, &mut blocks, compress);
            (root, blocks)
        }

        /// Recursively build the node covering `items` at `layer`.
        fn build_node(
            items: &[(&str, Cid, u32)],
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

            for (idx, &(key, cid, item_layer)) in items.iter().enumerate() {
                if item_layer >= layer {
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
                        value: cid,
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
            encode_node(
                left_child,
                node_entries.into_iter(),
                layer,
                compress,
                &mut bytes,
            );
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
                                .map(|p| common_prefix_len(p, &entry.key))
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
        mst.remove(&key_for(2)).unwrap();
        assert_eq!(mst.root_cid(), root1, "remove invalidates the memo");
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
            standalone.remove(&key_for(n + 1000));
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
    fn insert_get_remove() {
        let mut mst = Mst::new();
        assert_eq!(mst.len, 0);
        assert_eq!(mst.insert(&key_for(1), cid_for(1)).unwrap(), None);
        assert_eq!(mst.keys, key_for(1));
        // A replaced value leaves the key buffer as it is.
        assert_eq!(
            mst.insert(&key_for(1), cid_for(2)).unwrap(),
            Some(cid_for(1))
        );
        assert_eq!(mst.keys, key_for(1));
        assert_eq!(mst.get(&key_for(1)), Some(&cid_for(2)));
        assert_eq!(mst.len, 1);
        assert_eq!(mst.remove(&key_for(1)), Some(cid_for(2)));
        assert_eq!(mst.len, 0);
        assert_eq!((mst.keys.len(), mst.key_holes), (0, 0));
        // A key's span is two fields beside a 33-byte CID and a child
        // pointer: 48 bytes, where a `String` key made an entry 72.
        assert_eq!(std::mem::size_of::<Entry>(), 48);
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
        // Insert and remove extra keys in b; final contents are identical.
        b.insert(&key_for(10_000), cid_for(1)).unwrap();
        b.remove(&key_for(10_000));
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
        let posts: Vec<&str> = mst
            .iter_collection("app.bsky.feed.post")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(
            posts,
            vec!["app.bsky.feed.post/aaa", "app.bsky.feed.post/bbb"]
        );
        let likes: Vec<&str> = mst
            .iter_collection("app.bsky.feed.like")
            .map(|(k, _)| k)
            .collect();
        assert_eq!(likes, vec!["app.bsky.feed.like/aaa"]);
        assert_eq!(mst.iter_collection("app.bsky.feed").count(), 0);
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
    fn node_delta_after_delete_and_readd_under_same_key() {
        let mut old = Mst::new();
        for i in 0..50 {
            old.insert(&key_for(i), cid_for(i)).unwrap();
        }
        // Delete + re-add with the *same* value: the tree is content-
        // addressed, so the final state is identical and the delta is empty.
        let mut same = old.clone();
        same.remove(&key_for(7));
        same.insert(&key_for(7), cid_for(7)).unwrap();
        assert_eq!(same.root_cid(), old.root_cid());
        assert!(same.node_delta(&old).is_empty());
        // Delete + re-add with a *different* value rewrites the leaf path.
        let mut changed = old.clone();
        changed.remove(&key_for(7));
        changed.insert(&key_for(7), cid_for(700)).unwrap();
        assert_ne!(changed.root_cid(), old.root_cid());
        assert!(!changed.node_delta(&old).is_empty());
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
        let expected: BTreeMap<String, Cid> =
            mst.iter().map(|(k, v)| (k.to_string(), *v)).collect();
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
        assert_eq!(common_prefix_len("abc/def", "abc/xyz"), 4);
        assert_eq!(common_prefix_len("", "abc"), 0);
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
        /// Removals that repacked the key buffer.
        repacks: usize,
    }

    /// Entry slots held and entries used over every node of the tree,
    /// asserting on the way that no node holds more slots than
    /// [`slack_bound`] allows for its length, and that the key buffer holds
    /// each live key once: its length less the holes is the live keys'
    /// total length, no two entries share bytes, and the holes stay within
    /// the repacking rule's bound.
    fn entry_slots(mst: &Mst) -> (usize, usize) {
        let (mut slots, mut used) = (0, 0);
        let mut spans = Vec::new();
        let mut stack = vec![&mst.root];
        while let Some(node) = stack.pop() {
            let (cap, len) = (node.entries.capacity(), node.entries.len());
            assert!(
                cap <= slack_bound(len),
                "a node of {len} entries holds {cap} slots"
            );
            slots += cap;
            used += len;
            let entries = node.entries.iter();
            spans.extend(entries.map(|e| (e.key_at as usize, usize::from(e.key_len))));
            stack.extend(node.children());
        }
        spans.sort_unstable();
        assert!(spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0));
        let live: usize = spans.iter().map(|(_, len)| len).sum();
        assert_eq!(mst.keys.len() - mst.key_holes, live, "live key bytes");
        assert!(
            mst.key_holes <= live.max(KEY_HOLE_FLOOR - 1),
            "{} bytes of holes beside {live} live key bytes",
            mst.key_holes
        );
        (slots, used)
    }

    impl Checked {
        fn insert(&mut self, key: &str, cid: Cid) {
            let buffer = self.mst.keys.len();
            let old = self.mst.insert(key, cid).unwrap();
            assert_eq!(old, self.model.insert(key.to_string(), cid), "{key}");
            if old.is_some() {
                assert_eq!(
                    self.mst.keys.len(),
                    buffer,
                    "a replace moved the key buffer"
                );
            }
            entry_slots(&self.mst);
        }

        fn remove(&mut self, key: &str) {
            let holes = self.mst.key_holes;
            assert_eq!(self.mst.remove(key), self.model.remove(key), "{key}");
            if self.mst.key_holes < holes {
                self.repacks += 1;
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
            assert!(self
                .mst
                .iter()
                .eq(self.model.iter().map(|(k, v)| (k.as_str(), v))));
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

    #[test]
    fn incremental_tree_matches_the_reference_rebuild() {
        let mut rng = TestRng::new(0x35a);
        let mut repacks = 0;
        for round in 0..6 {
            let mut tree = Checked::default();
            // A key space small enough that updates, deletes and re-adds of
            // live keys are common, over two collections.
            let space = 40 + 150 * round;
            let arb_key = |rng: &mut TestRng| {
                let collection =
                    ["app.bsky.feed.like", "app.bsky.feed.post"][rng.below(2) as usize];
                format!("{collection}/r{}", rng.below(space))
            };
            for batch in 0..60 {
                // Every fifth batch is applied and then undone, the way a
                // failed repository batch rolls back: the net delta is empty.
                let undo = batch % 5 == 4;
                let before = tree.model.clone();
                for _ in 0..1 + rng.below(6) {
                    let key = arb_key(&mut rng);
                    match (rng.below(4), tree.model.get(&key).copied()) {
                        (0, Some(_)) => tree.remove(&key),
                        (1, Some(same)) => tree.insert(&key, same), // no-op replace
                        _ => tree.insert(&key, value(rng.next_u64())),
                    }
                }
                if undo {
                    let touched: Vec<String> = tree
                        .model
                        .keys()
                        .chain(before.keys())
                        .filter(|k| tree.model.get(*k) != before.get(*k))
                        .cloned()
                        .collect();
                    for key in touched {
                        match before.get(&key) {
                            Some(cid) => tree.insert(&key, *cid),
                            None => tree.remove(&key),
                        }
                    }
                    let live = tree.live.clone();
                    tree.check(batch % 2 == 0);
                    assert_eq!(tree.live, live, "an undone batch nets to nothing");
                } else {
                    tree.check(batch % 2 == 0);
                }
            }
            // Empty the tree key by key, then refill it.
            for key in tree.model.keys().cloned().collect::<Vec<_>>() {
                tree.remove(&key);
                tree.check(false);
            }
            assert_eq!(tree.mst.len, 0);
            assert_eq!(tree.live.len(), 1, "the empty tree is one empty node");
            tree.insert(&arb_key(&mut rng), value(1));
            tree.check(true);
            repacks += tree.repacks;
        }
        assert!(repacks > 0, "key buffer repacks: {repacks}");
    }

    /// The shape changes random batches rarely hit, one at a time.
    #[test]
    fn incremental_tree_handles_root_lifts_and_trims() {
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
        // Delete the top-layer keys one by one: the halves merge back and
        // the root drops to the highest layer left.
        tree.remove(&high[1]);
        tree.check(false);
        tree.remove(&high[0]);
        tree.check(true);
        tree.remove(&mid[0]);
        tree.remove(&mid[1]);
        tree.check(false);
        assert_eq!(tree.mst.root.layer, 0);
        // A lone high key is its own root; removing it empties the tree.
        for key in &low {
            tree.remove(key);
        }
        tree.insert(&high[0], value(200));
        tree.check(false);
        assert!(tree.mst.root.layer >= 2);
        tree.remove(&high[0]);
        tree.check(true);
        assert_eq!(tree.mst.root.layer, 0);
    }

    /// A repository's tree: record keys are TIDs, so each collection's keys
    /// arrive in ascending order, and the collections interleave. Built in
    /// that order, the tree holds a fraction more entry slots than entries,
    /// not the twice as many `Vec` doubling would leave.
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
        let (slots, used) = entry_slots(&mst);
        assert_eq!(used, 30_000);
        assert!(
            slots * 10 <= used * 13,
            "{slots} entry slots for {used} entries"
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
            let a = arb_entries(&mut rng);
            let b = arb_entries(&mut rng);
            let make = |m: &BTreeMap<String, u32>| -> Mst {
                m.iter()
                    .map(|(k, v)| (k.clone(), Cid::for_cbor(&v.to_be_bytes())))
                    .collect()
            };
            let old = make(&a);
            let new = make(&b);
            // Applying the difference to `old` must produce `new`.
            let mut patched = old.clone();
            for (key, cid) in new.iter() {
                patched.insert(key, *cid).unwrap();
            }
            for key in a.keys().filter(|key| !b.contains_key(*key)) {
                patched.remove(key);
            }
            assert_eq!(patched.root_cid(), new.root_cid());
        }
    }
}
