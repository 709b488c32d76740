//! Page-based B+tree.
//!
//! Nodes live in buffer-cache pages (one serialized node per page), so
//! the tree pages behave like any other page-store page: they are
//! cached, evicted, and flushed by the buffer cache. Leaves map
//! order-preserving byte keys to `RowId`s and are chained through the
//! page header's next-page link for range scans.
//!
//! Nodes stay in their encoded form: descents, lookups and scans walk
//! the blob with an allocation-free view, and a leaf insert or delete
//! splices one entry's bytes into or out of the blob under the leaf's
//! write latch. Only a split decodes a node, together with the parent
//! that takes the new separator.
//!
//! Concurrency: a tree-level reader-writer latch (simple and correct;
//! the engine's hash index provides the contention-free fast path for
//! point lookups, which is exactly the role the paper assigns it in
//! §II). Deletes do not rebalance — underfull nodes are tolerated and
//! the root collapses when it empties, a common engineering trade-off
//! for OLTP trees whose tables rarely shrink.
//!
//! Duplicates: a separator is the first key of the child to its right,
//! so in a non-unique tree a run of equal keys can span leaves, and a
//! child holds the keys from its own separator up to and including the
//! next one. Lookups by key in such a tree start at the leftmost leaf
//! that may hold the key and follow the leaf chain.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::RwLock;

use btrim_common::codec::{Decoder, Encoder};
use btrim_common::{BtrimError, PageId, PartitionId, Result, RowId, SlotId};
use btrim_pagestore::page::{PageType, SlottedPage};
use btrim_pagestore::{BufferCache, PageGuard};

/// Split a node once its encoding exceeds this many bytes.
const SPLIT_THRESHOLD: usize = 5800;
/// Maximum key length accepted.
pub const MAX_KEY_LEN: usize = 1024;
/// Encoded node header: `[is_leaf u8][first_child u64][n u32]`.
const NODE_HEADER: usize = 13;
/// Encoded bytes of an entry besides its key: `[len u32]` and `[val u64]`.
const ENTRY_OVERHEAD: usize = 12;

#[derive(Debug, Clone)]
struct Node {
    is_leaf: bool,
    /// Leaf: `(key, row_id)`. Inner: `(separator_key, child_page)`;
    /// keys in an inner node are the minimum key reachable through the
    /// paired child.
    entries: Vec<(Vec<u8>, u64)>,
    /// Inner only: child for keys below the first separator.
    first_child: u64,
}

impl Node {
    fn leaf() -> Node {
        Node {
            is_leaf: true,
            entries: Vec::new(),
            first_child: 0,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64 + self.entries.len() * 24);
        e.put_u8(self.is_leaf as u8);
        e.put_u64(self.first_child);
        e.put_u32(self.entries.len() as u32);
        for (k, v) in &self.entries {
            e.put_bytes(k);
            e.put_u64(*v);
        }
        e.into_vec()
    }

    fn decode(data: &[u8]) -> Result<Node> {
        let mut d = Decoder::new(data);
        let is_leaf = d.get_u8()? != 0;
        let first_child = d.get_u64()?;
        let n = d.get_u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let k = d.get_bytes()?;
            let v = d.get_u64()?;
            entries.push((k, v));
        }
        Ok(Node {
            is_leaf,
            entries,
            first_child,
        })
    }

    fn encoded_size(&self) -> usize {
        NODE_HEADER
            + self
                .entries
                .iter()
                .map(|(k, _)| ENTRY_OVERHEAD + k.len())
                .sum::<usize>()
    }
}

/// An inner node's choice of child for one key.
struct Route {
    child: PageId,
    /// The child's position among the node's children (0 is
    /// `first_child`); a split of the child adds its separator at entry
    /// `idx`, right after it.
    idx: usize,
    /// The separator that chose `child` equals the key, so a run of the
    /// key may reach into the children to its left.
    tie: bool,
}

/// Where an insert lands in a leaf.
enum Placement {
    /// Splice the entry in at this byte offset of the blob.
    At(usize),
    /// The exact `(key, rid)` pair is already in the leaf.
    Present,
    /// The key is already in the leaf of a unique tree.
    Duplicate,
}

/// The outcome of looking for an entry in one leaf.
enum Locate {
    /// The entry's bytes in the blob.
    Found(Range<usize>),
    /// Not here, and the leaf holds a greater key: no later leaf can
    /// hold it either.
    Past,
    /// Not here; the next leaf may hold it.
    Beyond,
}

/// Allocation-free view over an encoded node blob. Layout:
/// `[is_leaf u8][first_child u64][n u32]` then `n × ([len u32][key][val
/// u64])`, all little-endian.
struct BlobView<'a> {
    blob: &'a [u8],
    is_leaf: bool,
    first_child: u64,
    n: usize,
}

impl<'a> BlobView<'a> {
    fn new(blob: &'a [u8]) -> BlobView<'a> {
        debug_assert!(blob.len() >= NODE_HEADER);
        BlobView {
            blob,
            is_leaf: blob[0] != 0,
            first_child: u64::from_le_bytes(blob[1..9].try_into().unwrap()),
            n: u32::from_le_bytes(blob[9..13].try_into().unwrap()) as usize,
        }
    }

    /// Iterate `(offset, key, value)` without allocating; `offset` is
    /// where the entry's bytes start in the blob.
    fn spans(&self) -> impl Iterator<Item = (usize, &'a [u8], u64)> + '_ {
        let mut off = NODE_HEADER;
        let blob = self.blob;
        (0..self.n).map(move |_| {
            let start = off;
            let len = u32::from_le_bytes(blob[off..off + 4].try_into().unwrap()) as usize;
            let key = &blob[off + 4..off + 4 + len];
            let val = u64::from_le_bytes(blob[off + 4 + len..off + 12 + len].try_into().unwrap());
            off += ENTRY_OVERHEAD + len;
            (start, key, val)
        })
    }

    /// Iterate `(key, value)` pairs without allocating.
    fn entries(&self) -> impl Iterator<Item = (&'a [u8], u64)> + '_ {
        self.spans().map(|(_, k, v)| (k, v))
    }

    /// Routing for inner nodes: the child under the last separator
    /// `<= key`, or with `leftmost` the last separator `< key` (the
    /// first child that may hold `key`).
    fn route(&self, key: &[u8], leftmost: bool) -> Route {
        let mut route = Route {
            child: PageId(self.first_child as u32),
            idx: 0,
            tie: false,
        };
        for (k, v) in self.entries() {
            let ord = k.cmp(key);
            if ord == Ordering::Greater || (leftmost && ord == Ordering::Equal) {
                break;
            }
            route = Route {
                child: PageId(v as u32),
                idx: route.idx + 1,
                tie: ord == Ordering::Equal,
            };
        }
        route
    }

    /// Point lookup in a leaf.
    fn find(&self, key: &[u8]) -> Option<u64> {
        for (k, v) in self.entries() {
            if k == key {
                return Some(v);
            }
            if k > key {
                return None;
            }
        }
        None
    }

    /// Where `(key, rid)` goes in this leaf, whose entries are sorted
    /// by `(key, rid)`. One walk that stops at the insert position also
    /// finds a duplicate: equal keys sit next to that position.
    fn placement(&self, key: &[u8], rid: u64, unique: bool) -> Placement {
        for (off, k, v) in self.spans() {
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Greater => return Placement::At(off),
                Ordering::Equal if unique => return Placement::Duplicate,
                Ordering::Equal => match v.cmp(&rid) {
                    Ordering::Less => {}
                    Ordering::Equal => return Placement::Present,
                    Ordering::Greater => return Placement::At(off),
                },
            }
        }
        Placement::At(self.blob.len())
    }

    /// Find the first entry for `key` (with `rid`, the exact pair).
    fn locate(&self, key: &[u8], rid: Option<u64>) -> Locate {
        for (off, k, v) in self.spans() {
            match k.cmp(key) {
                Ordering::Less => {}
                Ordering::Equal if rid.is_none_or(|r| r == v) => {
                    return Locate::Found(off..off + ENTRY_OVERHEAD + k.len());
                }
                Ordering::Equal => {}
                Ordering::Greater => return Locate::Past,
            }
        }
        Locate::Beyond
    }

    /// The blob with the entry `(key, val)` spliced in at byte `at`.
    fn with_entry(&self, at: usize, key: &[u8], val: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blob.len() + ENTRY_OVERHEAD + key.len());
        out.extend_from_slice(&self.blob[..at]);
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&val.to_le_bytes());
        out.extend_from_slice(&self.blob[at..]);
        out[9..NODE_HEADER].copy_from_slice(&(self.n as u32 + 1).to_le_bytes());
        out
    }

    /// The blob with the entry at `span` cut out.
    fn without(&self, span: Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.blob.len() - span.len());
        out.extend_from_slice(&self.blob[..span.start]);
        out.extend_from_slice(&self.blob[span.end..]);
        out[9..NODE_HEADER].copy_from_slice(&(self.n as u32 - 1).to_le_bytes());
        out
    }
}

/// The node blob of page `pid`, which a node page keeps in slot 0.
fn node_blob(blob: Option<&[u8]>, pid: PageId) -> Result<&[u8]> {
    blob.ok_or_else(|| BtrimError::Corrupt(format!("btree node {pid} missing blob")))
}

/// Overwrite the node blob of page `pid`.
fn store_blob(p: &mut SlottedPage<'_>, pid: PageId, blob: &[u8]) -> Result<()> {
    if p.update(SlotId(0), blob) {
        Ok(())
    } else {
        Err(BtrimError::Corrupt(format!(
            "btree node {pid} overflow: {} bytes",
            blob.len()
        )))
    }
}

/// A page-based B+tree index.
pub struct BTreeIndex {
    cache: Arc<BufferCache>,
    partition: PartitionId,
    unique: bool,
    /// Root pointer; doubles as the tree latch.
    root: RwLock<PageId>,
}

impl BTreeIndex {
    /// Create an empty tree whose pages are tagged with `partition`.
    pub fn new(cache: Arc<BufferCache>, partition: PartitionId, unique: bool) -> Result<Self> {
        let guard = cache.new_page(PageType::BTreeLeaf, partition)?;
        let root_pid = guard.page_id();
        let blob = Node::leaf().encode();
        guard.with_page_write(|p| {
            p.insert(&blob).expect("empty node fits");
        });
        drop(guard);
        Ok(BTreeIndex {
            cache,
            partition,
            unique,
            root: RwLock::new(root_pid),
        })
    }

    /// Re-attach to an existing tree (recovery).
    pub fn open(
        cache: Arc<BufferCache>,
        partition: PartitionId,
        unique: bool,
        root: PageId,
    ) -> Self {
        BTreeIndex {
            cache,
            partition,
            unique,
            root: RwLock::new(root),
        }
    }

    /// Current root page (persisted by the engine catalog).
    pub fn root_page(&self) -> PageId {
        *self.root.read()
    }

    /// Whether duplicate keys are rejected.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Decode a node: only splits and their parents need one.
    fn read_node(&self, pid: PageId) -> Result<Node> {
        self.with_node_blob(pid, Node::decode)?
    }

    /// Run `f` over the raw node blob without decoding it (zero-copy
    /// read path: point lookups and descents stay allocation-free).
    fn with_node_blob<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let guard = self.cache.fetch(pid)?;
        guard.with_page_read(|p| Ok(f(node_blob(p.get(SlotId(0)), pid)?)))
    }

    fn write_node(&self, pid: PageId, node: &Node) -> Result<()> {
        let blob = node.encode();
        let guard = self.cache.fetch(pid)?;
        guard.with_page_write(|p| store_blob(p, pid, &blob))
    }

    fn new_node_page(&self, node: &Node) -> Result<PageId> {
        let page_type = if node.is_leaf {
            PageType::BTreeLeaf
        } else {
            PageType::BTreeInner
        };
        let guard = self.cache.new_page(page_type, self.partition)?;
        let pid = guard.page_id();
        let blob = node.encode();
        guard.with_page_write(|p| {
            p.insert(&blob).expect("split half fits in fresh page");
        });
        Ok(pid)
    }

    fn leaf_next(&self, pid: PageId) -> Result<PageId> {
        let guard = self.cache.fetch(pid)?;
        Ok(guard.with_page_read(|p| p.next_page()))
    }

    fn set_leaf_next(&self, pid: PageId, next: PageId) -> Result<()> {
        let guard = self.cache.fetch(pid)?;
        guard.with_page_write(|p| p.set_next_page(next));
        Ok(())
    }

    /// Descend from `root` to the leaf for `key` (see
    /// [`BlobView::route`] for `leftmost`), calling `step` with each
    /// inner node passed and its routing. Allocation-free.
    fn descend(
        &self,
        root: PageId,
        key: &[u8],
        leftmost: bool,
        mut step: impl FnMut(PageId, &Route),
    ) -> Result<PageId> {
        let mut pid = root;
        while let Some(route) = self.with_node_blob(pid, |blob| {
            let v = BlobView::new(blob);
            (!v.is_leaf).then(|| v.route(key, leftmost))
        })? {
            step(pid, &route);
            pid = route.child;
        }
        Ok(pid)
    }

    /// Insert `key → rid`. Errors with [`BtrimError::DuplicateKey`] on a
    /// unique tree when the key already exists; on a non-unique tree an
    /// exact `(key, rid)` pair already present makes this a no-op.
    ///
    /// The descent is allocation-free (blob routing), and the entry is
    /// spliced into the leaf's encoded blob under one write latch. Only
    /// a split decodes nodes: the leaf that outgrew
    /// `SPLIT_THRESHOLD` and each ancestor that takes a separator.
    pub fn insert(&self, key: &[u8], rid: RowId) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(BtrimError::Invalid(format!(
                "key of {} bytes exceeds MAX_KEY_LEN",
                key.len()
            )));
        }
        let mut root_guard = self.root.write();
        let root_pid = *root_guard;
        // Record the root→leaf path, with each child's position, for
        // split propagation.
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut tie = false;
        let pid = self.descend(root_pid, key, false, |pid, route| {
            path.push((pid, route.idx));
            tie |= route.tie;
        })?;
        // A run of `key` may reach into leaves left of this one, and the
        // exact pair may sit there.
        if tie && !self.unique && self.find_entry(root_pid, key, Some(rid))?.is_some() {
            return Ok(());
        }
        let guard = self.cache.fetch(pid)?;
        let grown = guard.with_page_write(|p| {
            let view = BlobView::new(node_blob(p.get(SlotId(0)), pid)?);
            let at = match view.placement(key, rid.0, self.unique) {
                Placement::At(at) => at,
                Placement::Present => return Ok(None),
                Placement::Duplicate => {
                    return Err(BtrimError::DuplicateKey(format!("{key:?}")));
                }
            };
            let blob = view.with_entry(at, key, rid.0);
            if blob.len() > SPLIT_THRESHOLD {
                return Ok(Some(blob));
            }
            store_blob(p, pid, &blob).map(|()| None)
        })?;
        drop(guard);
        let Some(grown) = grown else {
            return Ok(());
        };
        let mut split = self.finish_write(pid, Node::decode(&grown)?)?;
        // Propagate splits up the recorded path.
        while let Some((sep, new_child)) = split {
            match path.pop() {
                Some((parent, idx)) => {
                    // The new child goes right after the one that split.
                    let mut pnode = self.read_node(parent)?;
                    pnode.entries.insert(idx, (sep, new_child.0 as u64));
                    split = self.finish_write(parent, pnode)?;
                }
                None => {
                    // Root split: build a new root above.
                    let new_root = Node {
                        is_leaf: false,
                        first_child: root_pid.0 as u64,
                        entries: vec![(sep, new_child.0 as u64)],
                    };
                    *root_guard = self.new_node_page(&new_root)?;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Write `node` back to `pid`, splitting first when oversized.
    fn finish_write(&self, pid: PageId, mut node: Node) -> Result<Option<(Vec<u8>, PageId)>> {
        if node.encoded_size() <= SPLIT_THRESHOLD {
            self.write_node(pid, &node)?;
            return Ok(None);
        }
        let mid = node.entries.len() / 2;
        let (sep, right) = if node.is_leaf {
            let right_entries = node.entries.split_off(mid);
            let sep = right_entries[0].0.clone();
            (
                sep,
                Node {
                    is_leaf: true,
                    entries: right_entries,
                    first_child: 0,
                },
            )
        } else {
            let mut right_entries = node.entries.split_off(mid);
            let (sep, right_first) = right_entries.remove(0);
            (
                sep,
                Node {
                    is_leaf: false,
                    entries: right_entries,
                    first_child: right_first,
                },
            )
        };
        let right_pid = self.new_node_page(&right)?;
        if node.is_leaf {
            // Chain: left -> right -> old next.
            let old_next = self.leaf_next(pid)?;
            self.set_leaf_next(right_pid, old_next)?;
        }
        self.write_node(pid, &node)?;
        if node.is_leaf {
            self.set_leaf_next(pid, right_pid)?;
        }
        Ok(Some((sep, right_pid)))
    }

    /// Find `key`'s first entry (with `rid`, the exact pair) in the
    /// leaves that may hold `key`, leftmost first: the pinned leaf and
    /// the entry's bytes in its blob.
    fn find_entry(
        &self,
        root: PageId,
        key: &[u8],
        rid: Option<RowId>,
    ) -> Result<Option<(PageGuard<'_>, Range<usize>)>> {
        let mut pid = self.descend(root, key, !self.unique, |_, _| {})?;
        loop {
            let guard = self.cache.fetch(pid)?;
            let (found, next) = guard.with_page_read(|p| {
                let view = BlobView::new(node_blob(p.get(SlotId(0)), pid)?);
                Ok::<_, BtrimError>((view.locate(key, rid.map(|r| r.0)), p.next_page()))
            })?;
            match found {
                Locate::Found(span) => return Ok(Some((guard, span))),
                Locate::Past => return Ok(None),
                Locate::Beyond if next.is_null() => return Ok(None),
                Locate::Beyond => pid = next,
            }
        }
    }

    /// Point lookup (unique trees). Returns the first entry for `key`.
    /// Allocation-free: descends and searches over the raw node blobs.
    pub fn get(&self, key: &[u8]) -> Result<Option<RowId>> {
        let root = self.root.read();
        let leaf_pid = self.descend(*root, key, false, |_, _| {})?;
        let found = self.with_node_blob(leaf_pid, |blob| BlobView::new(blob).find(key))?;
        Ok(found.map(RowId))
    }

    /// All `RowId`s for `key` (non-unique trees; may cross leaves).
    pub fn get_all(&self, key: &[u8]) -> Result<Vec<RowId>> {
        let mut out = Vec::new();
        self.scan_range(key, Some(&[key, &[0u8][..]].concat()), |_, rid| {
            out.push(rid);
            true
        })?;
        Ok(out)
    }

    /// Remove an entry. On unique trees `rid` may be `None` (remove by
    /// key); on non-unique trees the exact `(key, rid)` pair is removed.
    /// Returns whether anything was removed. The entry's bytes are cut
    /// out of the leaf's encoded blob; no node is decoded.
    pub fn delete(&self, key: &[u8], rid: Option<RowId>) -> Result<bool> {
        let root = self.root.write();
        let Some((leaf, span)) = self.find_entry(*root, key, rid)? else {
            return Ok(false);
        };
        // The tree latch is held exclusively, so the entry found under
        // the leaf's read latch is still in place under its write latch.
        let pid = leaf.page_id();
        leaf.with_page_write(|p| {
            let view = BlobView::new(node_blob(p.get(SlotId(0)), pid)?);
            let blob = view.without(span);
            store_blob(p, pid, &blob)
        })?;
        Ok(true)
    }

    /// Scan keys in `[lo, hi)` (`hi = None` scans to the end), calling
    /// `f(key, rid)`; `f` returning `false` stops the scan. Copies out
    /// only the qualifying entries of each visited leaf.
    pub fn scan_range(
        &self,
        lo: &[u8],
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], RowId) -> bool,
    ) -> Result<()> {
        let root = self.root.read();
        let mut pid = self.descend(*root, lo, !self.unique, |_, _| {})?;
        loop {
            // Copy out the in-range slice of this leaf plus the next
            // pointer under one latch hold.
            let (batch, next, done): (Vec<(Vec<u8>, u64)>, PageId, bool) = {
                let guard = self.cache.fetch(pid)?;
                guard.with_page_read(|p| {
                    let blob = p.get(SlotId(0)).unwrap_or(&[]);
                    let mut out = Vec::new();
                    let mut done = false;
                    if blob.len() >= NODE_HEADER {
                        let v = BlobView::new(blob);
                        for (k, val) in v.entries() {
                            if k < lo {
                                continue;
                            }
                            if let Some(hi) = hi {
                                if k >= hi {
                                    done = true;
                                    break;
                                }
                            }
                            out.push((k.to_vec(), val));
                        }
                    }
                    (out, p.next_page(), done)
                })
            };
            for (k, v) in &batch {
                if !f(k, RowId(*v)) {
                    return Ok(());
                }
            }
            if done || next.is_null() {
                return Ok(());
            }
            pid = next;
        }
    }

    /// Total entries (full scan; tests and stats).
    pub fn len(&self) -> Result<usize> {
        let mut n = 0;
        self.scan_range(&[], None, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (root to leaf), for stats and split testing.
    pub fn height(&self) -> Result<usize> {
        let root = self.root.read();
        let mut pid = *root;
        let mut h = 1;
        while let Some(child) = self.with_node_blob(pid, |blob| {
            let v = BlobView::new(blob);
            (!v.is_leaf).then_some(v.first_child)
        })? {
            pid = PageId(child as u32);
            h += 1;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btrim_pagestore::MemDisk;

    fn tree(unique: bool) -> BTreeIndex {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 256));
        BTreeIndex::new(cache, PartitionId(99), unique).unwrap()
    }

    fn key(n: u64) -> Vec<u8> {
        n.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_small() {
        let t = tree(true);
        t.insert(&key(5), RowId(50)).unwrap();
        t.insert(&key(1), RowId(10)).unwrap();
        t.insert(&key(9), RowId(90)).unwrap();
        assert_eq!(t.get(&key(1)).unwrap(), Some(RowId(10)));
        assert_eq!(t.get(&key(5)).unwrap(), Some(RowId(50)));
        assert_eq!(t.get(&key(9)).unwrap(), Some(RowId(90)));
        assert_eq!(t.get(&key(2)).unwrap(), None);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let t = tree(true);
        t.insert(&key(1), RowId(10)).unwrap();
        assert!(matches!(
            t.insert(&key(1), RowId(11)),
            Err(BtrimError::DuplicateKey(_))
        ));
    }

    #[test]
    fn non_unique_collects_all() {
        let t = tree(false);
        for i in 0..10 {
            t.insert(&key(7), RowId(i)).unwrap();
        }
        t.insert(&key(8), RowId(100)).unwrap();
        let mut rids = t.get_all(&key(7)).unwrap();
        rids.sort();
        assert_eq!(rids, (0..10).map(RowId).collect::<Vec<_>>());
        assert_eq!(t.get_all(&key(6)).unwrap(), vec![]);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree(true);
        let n = 5000u64;
        // Insert in adversarial (reversed) order.
        for i in (0..n).rev() {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "splits must have happened");
        assert_eq!(t.len().unwrap(), n as usize);
        // All lookups succeed.
        for i in (0..n).step_by(97) {
            assert_eq!(t.get(&key(i)).unwrap(), Some(RowId(i)));
        }
        // Full scan is sorted.
        let mut prev: Option<Vec<u8>> = None;
        t.scan_range(&[], None, |k, _| {
            if let Some(p) = &prev {
                assert!(p.as_slice() <= k);
            }
            prev = Some(k.to_vec());
            true
        })
        .unwrap();
    }

    #[test]
    fn range_scan_honours_bounds() {
        let t = tree(true);
        for i in 0..100 {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_range(&key(10), Some(&key(20)), |_, rid| {
            seen.push(rid.0);
            true
        })
        .unwrap();
        assert_eq!(seen, (10..20).collect::<Vec<_>>());
        // Early stop.
        let mut count = 0;
        t.scan_range(&key(0), None, |_, _| {
            count += 1;
            count < 5
        })
        .unwrap();
        assert_eq!(count, 5);
    }

    #[test]
    fn delete_by_key_and_pair() {
        let t = tree(false);
        t.insert(&key(1), RowId(10)).unwrap();
        t.insert(&key(1), RowId(11)).unwrap();
        // Remove a specific pair.
        assert!(t.delete(&key(1), Some(RowId(10))).unwrap());
        assert_eq!(t.get_all(&key(1)).unwrap(), vec![RowId(11)]);
        // Remove missing pair.
        assert!(!t.delete(&key(1), Some(RowId(10))).unwrap());
        // Remove by key.
        assert!(t.delete(&key(1), None).unwrap());
        assert!(t.get_all(&key(1)).unwrap().is_empty());
    }

    #[test]
    fn delete_after_splits() {
        let t = tree(true);
        let n = 3000u64;
        for i in 0..n {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        for i in (0..n).step_by(2) {
            assert!(t.delete(&key(i), None).unwrap(), "delete {i}");
        }
        assert_eq!(t.len().unwrap(), (n / 2) as usize);
        for i in 0..n {
            let expect = if i % 2 == 0 { None } else { Some(RowId(i)) };
            assert_eq!(t.get(&key(i)).unwrap(), expect, "key {i}");
        }
    }

    /// The root leaf's encoded blob.
    fn root_blob(t: &BTreeIndex) -> Vec<u8> {
        t.with_node_blob(t.root_page(), |b| b.to_vec()).unwrap()
    }

    /// The encoding of a leaf holding `entries`.
    fn leaf_blob(entries: impl IntoIterator<Item = (Vec<u8>, u64)>) -> Vec<u8> {
        Node {
            is_leaf: true,
            entries: entries.into_iter().collect(),
            first_child: 0,
        }
        .encode()
    }

    #[test]
    fn leaf_splits_only_past_split_threshold() {
        // 75 entries with 64-byte keys, then one whose key brings the
        // blob to 13 + 75 × 76 + (12 + 75) = SPLIT_THRESHOLD bytes, or
        // one byte more.
        for (last_len, height) in [(75, 1), (76, 2)] {
            let t = tree(true);
            for i in 0..75u8 {
                t.insert(&[i; 64], RowId(i as u64)).unwrap();
            }
            t.insert(&vec![200; last_len], RowId(200)).unwrap();
            assert_eq!(t.height().unwrap(), height, "last key of {last_len} bytes");
            assert_eq!(t.len().unwrap(), 76);
            if height == 1 {
                assert_eq!(root_blob(&t).len(), SPLIT_THRESHOLD);
            }
        }
    }

    #[test]
    fn unique_rejects_duplicate_at_insert_position_and_at_leaf_end() {
        let t = tree(true);
        for i in 1..=3 {
            t.insert(&key(i), RowId(i * 10)).unwrap();
        }
        let before = root_blob(&t);
        // (2, 5) sorts just before the stored (2, 20): the equal key sits
        // at the insert position.
        assert!(matches!(
            t.insert(&key(2), RowId(5)),
            Err(BtrimError::DuplicateKey(_))
        ));
        // (3, 99) sorts after the stored (3, 30), the leaf's last entry.
        assert!(matches!(
            t.insert(&key(3), RowId(99)),
            Err(BtrimError::DuplicateKey(_))
        ));
        assert_eq!(root_blob(&t), before);
    }

    #[test]
    fn reinserting_a_pair_is_a_noop() {
        let t = tree(false);
        let pairs = [(1, 11), (1, 10), (2, 10)];
        for (k, r) in pairs {
            t.insert(&key(k), RowId(r)).unwrap();
        }
        let before = root_blob(&t);
        for (k, r) in pairs {
            t.insert(&key(k), RowId(r)).unwrap();
        }
        assert_eq!(root_blob(&t), before);
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn deleting_first_middle_and_last_entries_keeps_the_rest() {
        let t = tree(true);
        for i in [3, 9, 0, 6, 1, 8, 2, 5, 7, 4] {
            t.insert(&key(i), RowId(i + 100)).unwrap();
        }
        let mut expect: Vec<u64> = (0..10).collect();
        // Splicing keeps the blob byte-identical to a re-encoded node.
        let encoded = |expect: &[u64]| leaf_blob(expect.iter().map(|&i| (key(i), i + 100)));
        assert_eq!(root_blob(&t), encoded(&expect));
        for victim in [0, 5, 9] {
            assert!(t.delete(&key(victim), None).unwrap());
            expect.retain(|&i| i != victim);
            assert_eq!(root_blob(&t), encoded(&expect), "after deleting {victim}");
        }
        for i in 0..10 {
            let want = expect.contains(&i).then_some(RowId(i + 100));
            assert_eq!(t.get(&key(i)).unwrap(), want);
        }
    }

    #[test]
    fn runs_of_equal_keys_span_leaves() {
        let t = tree(false);
        let k = key(500);
        // 300 entries of 20 bytes split once, leaving the run in two
        // leaves under the separator `k`.
        for r in 0..300 {
            t.insert(&k, RowId(r)).unwrap();
        }
        assert_eq!(t.height().unwrap(), 2);
        // Re-inserting a pair is a no-op whichever leaf holds it.
        for r in 0..300 {
            t.insert(&k, RowId(r)).unwrap();
        }
        assert_eq!(t.len().unwrap(), 300);
        // Smaller keys fill the run's first leaf until it splits inside
        // the run; the new leaf must sit before the run's second leaf,
        // so greater keys still land after the whole run.
        for i in (0..200).chain(600..700) {
            t.insert(&key(i), RowId(i)).unwrap();
        }
        let mut keys = Vec::new();
        t.scan_range(&[], None, |k, _| {
            keys.push(k.to_vec());
            true
        })
        .unwrap();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "scan out of order");
        let mut rids = t.get_all(&k).unwrap();
        rids.sort();
        assert_eq!(rids, (0..300).map(RowId).collect::<Vec<_>>());
        for r in 0..300 {
            assert!(t.delete(&k, Some(RowId(r))).unwrap(), "delete rid {r}");
        }
        assert!(!t.delete(&k, Some(RowId(0))).unwrap());
        assert_eq!(t.len().unwrap(), 300);
    }

    #[test]
    fn variable_length_string_keys() {
        let t = tree(true);
        let names = ["BARBAR", "OUGHT", "ABLE", "PRES", "ESE", "ANTI", "CALLY"];
        for (i, n) in names.iter().enumerate() {
            let k = crate::keys::KeyBuilder::new().push_str(n).build();
            t.insert(&k, RowId(i as u64)).unwrap();
        }
        for (i, n) in names.iter().enumerate() {
            let k = crate::keys::KeyBuilder::new().push_str(n).build();
            assert_eq!(t.get(&k).unwrap(), Some(RowId(i as u64)));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btrim_pagestore::MemDisk;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tree(unique: bool) -> BTreeIndex {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 512));
        BTreeIndex::new(cache, PartitionId(0), unique).unwrap()
    }

    /// Key `id` of a test's key pool: 1–64 bytes, the length varying
    /// with `id`, so leaves split at varied sizes and some keys are
    /// prefixes of others.
    fn pool_key(id: u16) -> Vec<u8> {
        let len = 1 + (id as usize * 37) % 64;
        id.to_be_bytes().iter().copied().cycle().take(len).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The unique tree behaves like BTreeMap<Vec<u8>, u64> under any
        /// interleaving of inserts (3 in 4 ops) and deletes.
        #[test]
        fn btree_matches_model(
            ops in proptest::collection::vec((0u8..4, 0u16..1000, any::<u64>()), 1..600)
        ) {
            let t = tree(true);
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (op, id, v) in ops {
                let kb = pool_key(id);
                if op < 3 {
                    match t.insert(&kb, RowId(v)) {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&kb));
                            model.insert(kb, v);
                        }
                        Err(BtrimError::DuplicateKey(_)) => {
                            prop_assert!(model.contains_key(&kb));
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                } else {
                    let removed = t.delete(&kb, None).unwrap();
                    prop_assert_eq!(removed, model.remove(&kb).is_some());
                }
            }
            // Every key of the pool reads as the model says.
            prop_assert_eq!(t.len().unwrap(), model.len());
            for id in 0..1000 {
                let kb = pool_key(id);
                prop_assert_eq!(t.get(&kb).unwrap(), model.get(&kb).map(|v| RowId(*v)));
            }
            // Scan order matches model order.
            let mut scanned = Vec::new();
            t.scan_range(&[], None, |k, rid| { scanned.push((k.to_vec(), rid.0)); true }).unwrap();
            let expect: Vec<(Vec<u8>, u64)> =
                model.into_iter().collect();
            prop_assert_eq!(scanned, expect);
        }

        /// The non-unique tree behaves like BTreeSet<(Vec<u8>, u64)>: a
        /// small key pool with few row ids gives runs of equal keys that
        /// span leaves, re-inserted pairs and deletes of pairs.
        #[test]
        fn non_unique_btree_matches_model(
            ops in proptest::collection::vec((0u8..4, 0u16..48, 0u64..16), 1..600)
        ) {
            let t = tree(false);
            let mut model: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
            for (op, id, v) in ops {
                let kb = pool_key(id);
                if op < 3 {
                    t.insert(&kb, RowId(v)).unwrap();
                    model.insert((kb, v));
                } else {
                    let removed = t.delete(&kb, Some(RowId(v))).unwrap();
                    prop_assert_eq!(removed, model.remove(&(kb, v)));
                }
            }
            prop_assert_eq!(t.len().unwrap(), model.len());
            for id in 0..48 {
                let kb = pool_key(id);
                let mut got = t.get_all(&kb).unwrap();
                got.sort();
                let expect: Vec<RowId> =
                    model.iter().filter(|(k, _)| *k == kb).map(|(_, v)| RowId(*v)).collect();
                prop_assert_eq!(got, expect);
            }
            // The scan is in key order; rids of one key may interleave
            // across the leaves a run spans.
            let mut scanned = Vec::new();
            t.scan_range(&[], None, |k, rid| { scanned.push((k.to_vec(), rid.0)); true }).unwrap();
            prop_assert!(scanned.windows(2).all(|w| w[0].0 <= w[1].0));
            scanned.sort();
            let expect: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
            prop_assert_eq!(scanned, expect);
        }
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use btrim_pagestore::MemDisk;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Readers racing a writer that drives splits: every key inserted
    /// before a read began must be found, and scans must stay sorted.
    #[test]
    fn readers_survive_concurrent_splits() {
        let cache = Arc::new(BufferCache::new(Arc::new(MemDisk::new()), 1024));
        let tree = Arc::new(BTreeIndex::new(cache, PartitionId(0), true).unwrap());
        let inserted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            {
                let tree = Arc::clone(&tree);
                let inserted = Arc::clone(&inserted);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) && i < 20_000 {
                        tree.insert(&i.to_be_bytes(), RowId(i)).unwrap();
                        inserted.store(i + 1, Ordering::Release);
                        i += 1;
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            for _ in 0..3 {
                let tree = Arc::clone(&tree);
                let inserted = Arc::clone(&inserted);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let n = inserted.load(Ordering::Acquire);
                        if n == 0 {
                            continue;
                        }
                        // Point lookups over the settled prefix.
                        for k in (0..n).step_by((n as usize / 7).max(1)) {
                            assert_eq!(
                                tree.get(&k.to_be_bytes()).unwrap(),
                                Some(RowId(k)),
                                "key {k} of settled prefix {n}"
                            );
                        }
                        // Scans stay sorted even mid-split.
                        let mut prev: Option<Vec<u8>> = None;
                        tree.scan_range(&[], None, |k, _| {
                            if let Some(p) = &prev {
                                assert!(p.as_slice() <= k, "scan out of order");
                            }
                            prev = Some(k.to_vec());
                            true
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(tree.len().unwrap(), 20_000);
        assert!(tree.height().unwrap() >= 2, "splits happened");
    }
}
