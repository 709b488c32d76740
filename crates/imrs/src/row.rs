//! The in-memory row.
//!
//! An [`ImrsRow`] is a `Copy` handle onto one resident row, borrowed
//! from the [`ImrsStore`]: the row id plus the ILM bookkeeping the
//! paper attaches to each row — the *origin* queue it belongs to
//! (inserted / migrated / cached, §VI.B), a loosely-updated last-access
//! timestamp (§V.A: "per-row access timestamps ... updated
//! occasionally"), and a re-use counter.
//!
//! There is no per-row heap object. The chain lives in the
//! [`VersionArena`](crate::arena::VersionArena); its head link, the
//! partition, origin, queue claim, residency flag and hotness counters
//! all live in the row's RID-Map entry, so resolving a row is a direct
//! index and the snapshot read path uses atomics only. Structural chain
//! changes (push, rollback, truncation, teardown) are serialized per row
//! by one of the store's striped chain latches; readers walk
//! concurrently without it. No path holds two chain latches: two rows
//! may share a stripe.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use btrim_common::{PartitionId, RowId, Timestamp, TxnId};

use crate::alloc::FragHandle;
use crate::arena::{VersionRef, VersionView};
use crate::store::ImrsStore;
use crate::version::VersionOp;

/// Which operation first brought a row into the IMRS. Each origin has
/// its own relaxed-LRU queue per partition (§VI.B), because hotness
/// characteristics differ per origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RowOrigin {
    /// Inserted directly into the IMRS (no page-store footprint yet).
    Inserted,
    /// Updated from the page store into the IMRS (migration).
    Migrated,
    /// Selected from the page store and cached in the IMRS.
    Cached,
}

/// A handle onto a row resident in the IMRS (see module docs).
#[derive(Clone, Copy)]
pub struct ImrsRow<'a> {
    /// Stable logical row id.
    pub row_id: RowId,
    /// Owning partition.
    pub partition: PartitionId,
    /// How the row entered the IMRS.
    pub origin: RowOrigin,
    store: &'a ImrsStore,
}

impl<'a> ImrsRow<'a> {
    pub(crate) fn new(
        store: &'a ImrsStore,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
    ) -> Self {
        ImrsRow {
            row_id,
            partition,
            origin,
            store,
        }
    }

    /// Claim queue membership. Returns `true` when the caller should
    /// enqueue the row (it was not in a queue before).
    pub fn try_mark_enqueued(&self) -> bool {
        self.store.ridmap().try_mark_enqueued(self.row_id)
    }

    /// Release queue membership (row popped and not re-queued).
    pub fn clear_enqueued(&self) {
        self.store.ridmap().clear_enqueued(self.row_id);
    }

    /// Record an access for hotness tracking (cheap; relaxed stores).
    pub fn touch(&self, now: Timestamp) {
        self.store.ridmap().touch(self.row_id, now);
    }

    /// Last recorded access timestamp.
    pub fn last_access(&self) -> Timestamp {
        self.store.ridmap().last_access(self.row_id)
    }

    /// Total re-use operations recorded on this row.
    pub fn reuse_count(&self) -> u64 {
        self.store.ridmap().reuse_count(self.row_id)
    }

    fn head(&self) -> u64 {
        self.store.ridmap().head(self.row_id)
    }

    /// Push a new version at the head of the chain. `commit_ts` is
    /// `Some` only for pre-stamped versions (recovery replay).
    pub(crate) fn push_version(
        &self,
        txn: TxnId,
        op: VersionOp,
        handle: Option<FragHandle>,
        commit_ts: Option<Timestamp>,
    ) -> VersionRef {
        let arena = self.store.arena();
        let _g = self.store.latch(self.row_id).lock();
        let link = arena.push(
            self.store.ridmap().head_cell(self.row_id),
            txn,
            op,
            handle,
            commit_ts,
        );
        VersionRef::new(Arc::clone(arena), link)
    }

    /// Newest version visible to `(snapshot, reader)`; `None` if the row
    /// did not exist yet at that snapshot. Lock-free.
    pub fn visible_version(&self, snapshot: Timestamp, reader: TxnId) -> Option<VersionView> {
        self.store
            .arena()
            .visible_from(self.head(), snapshot, reader)
    }

    /// Newest committed version regardless of snapshot (pack and GC use
    /// this: they operate on the latest committed image). Lock-free.
    pub fn latest_committed(&self) -> Option<VersionView> {
        self.store
            .arena()
            .latest_committed_from(self.head())
            .map(|(_, v)| v)
    }

    /// Newest version (possibly uncommitted). Used by write conflict
    /// detection.
    pub fn newest(&self) -> Option<VersionView> {
        match self.head() {
            0 => None,
            link => Some(self.store.arena().view(link)),
        }
    }

    /// Remove versions created by an aborted transaction. Fragments are
    /// freed immediately (an uncommitted version of another transaction
    /// is never visible, so no reader loads its handle); the *nodes*
    /// are quarantined, because a reader may have captured a head link
    /// just before the unlink. `now` is a closure so the quarantine
    /// timestamp is read **after** the unlinks: any reader registering a
    /// newer snapshot from then on finds the rewired chain, so the
    /// horizon passing the timestamp proves no walker holds these nodes.
    /// Returns bytes released.
    pub(crate) fn rollback_txn(&self, txn: TxnId, now: impl Fn() -> Timestamp) -> usize {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.latch(self.row_id).lock();
        let head_cell = self.store.ridmap().head_cell(self.row_id);
        let mut freed = 0;
        let mut unlinked = Vec::new();
        let mut parent = 0u64; // 0 = the head cell itself
        let mut link = head_cell.load(Ordering::Acquire);
        while link != 0 {
            let v = arena.view(link);
            let next = arena.prev(link);
            if v.txn == txn && v.commit_ts.is_none() {
                if parent == 0 {
                    head_cell.store(next, Ordering::Release);
                } else {
                    arena.set_prev(parent, next);
                }
                if let Some(h) = v.handle {
                    freed += h.alloc_len();
                    alloc.free(h);
                }
                unlinked.push(link);
            } else {
                parent = link;
            }
            link = next;
        }
        if !unlinked.is_empty() {
            let ts = now();
            for link in unlinked {
                arena.retire_node(link, ts);
            }
        }
        freed
    }

    /// Garbage-collect: drop versions that can never be seen again —
    /// everything older than the newest version committed at or before
    /// `oldest_active`. Both nodes and fragments are freed immediately:
    /// every active snapshot is ≥ `oldest_active`, so every walk stops
    /// at or above the keep point and never stands on a truncated node.
    /// Returns bytes released.
    ///
    /// This is the work the paper's IMRS-GC threads perform to "reclaim
    /// memory from older versions without affecting transaction
    /// performance" (§II).
    pub(crate) fn truncate_versions(&self, oldest_active: Timestamp) -> usize {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.latch(self.row_id).lock();
        let mut keep = self.head();
        while keep != 0 {
            if arena.commit_ts(keep).is_some_and(|ts| ts <= oldest_active) {
                break;
            }
            keep = arena.prev(keep);
        }
        if keep == 0 {
            return 0; // nothing old enough to cut below
        }
        let mut tail = arena.prev(keep);
        if tail == 0 {
            return 0;
        }
        arena.set_prev(keep, 0);
        let mut freed = 0;
        while tail != 0 {
            let v = arena.view(tail);
            let next = arena.prev(tail);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.free(h);
            }
            arena.free_node(tail);
            tail = next;
        }
        freed
    }

    /// Whether the latest committed version is a delete tombstone.
    pub fn is_deleted(&self) -> bool {
        self.latest_committed()
            .is_some_and(|v| v.op == VersionOp::Delete)
    }

    /// Number of versions currently chained (tests / stats). Takes the
    /// chain latch: a structural walk must not race truncation.
    pub fn version_count(&self) -> usize {
        self.walk(|_| ()).len()
    }

    /// Chain summary, newest first: `(commit_ts, op)` per version
    /// (debugging / diagnostics).
    pub fn chain_summary(&self) -> Vec<(Option<Timestamp>, VersionOp)> {
        self.walk(|v| (v.commit_ts, v.op))
    }

    /// Total IMRS bytes pinned by this row's chain.
    pub fn memory(&self) -> usize {
        self.walk(|v| v.memory()).into_iter().sum()
    }

    /// Map every chained version, newest first, under the chain latch.
    fn walk<T>(&self, mut f: impl FnMut(&VersionView) -> T) -> Vec<T> {
        let arena = self.store.arena();
        let _g = self.store.latch(self.row_id).lock();
        let mut out = Vec::new();
        let mut link = self.head();
        while link != 0 {
            out.push(f(&arena.view(link)));
            link = arena.prev(link);
        }
        out
    }

    /// Drop the whole chain. Called when the row leaves the IMRS (pack,
    /// or GC of a deleted row). A reader may be mid-walk, so nodes
    /// *and* fragments are quarantined until the snapshot horizon
    /// passes — this closes the torn-read race where pack recycled an
    /// image a straggling reader had already resolved. `now` is a
    /// closure evaluated **after** the head swap: every snapshot that
    /// could have captured the old head is ≤ the resulting timestamp,
    /// so the horizon passing it proves no walker remains. Returns
    /// bytes released (from the store's accounting immediately;
    /// physical reuse is deferred).
    pub(crate) fn free_all(&self, now: impl Fn() -> Timestamp) -> usize {
        let (arena, alloc) = (self.store.arena(), self.store.allocator());
        let _g = self.store.latch(self.row_id).lock();
        let head_cell = self.store.ridmap().head_cell(self.row_id);
        let mut link = head_cell.swap(0, Ordering::AcqRel);
        let ts = now();
        let mut freed = 0;
        while link != 0 {
            let v = arena.view(link);
            let next = arena.prev(link);
            if let Some(h) = v.handle {
                freed += h.alloc_len();
                alloc.retire(h, ts);
            }
            arena.retire_node(link, ts);
            link = next;
        }
        freed
    }
}

impl std::fmt::Debug for ImrsRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImrsRow")
            .field("row_id", &self.row_id)
            .field("partition", &self.partition)
            .field("origin", &self.origin)
            .field("versions", &self.version_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ridmap::RidMap;

    fn store() -> ImrsStore {
        ImrsStore::new(1024 * 1024, 64 * 1024, Arc::new(RidMap::new()))
    }

    fn row(s: &ImrsStore, origin: RowOrigin) -> ImrsRow<'_> {
        let id = s.ridmap().allocate_row_id();
        s.insert_row_committed(id, PartitionId(0), origin, TxnId(1), b"v0", Timestamp(1))
            .unwrap()
            .0
    }

    fn push_committed(s: &ImrsStore, row: &ImrsRow<'_>, txn: u64, ts: u64, data: &[u8]) {
        s.add_version(row, TxnId(txn), VersionOp::Update, Some(data))
            .unwrap()
            .stamp(Timestamp(ts));
    }

    fn load(s: &ImrsStore, v: &VersionView) -> Vec<u8> {
        s.allocator().load(v.handle.unwrap())
    }

    #[test]
    fn snapshot_reads_see_correct_version() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"v1");
        push_committed(&s, &row, 2, 20, b"v2");
        push_committed(&s, &row, 3, 30, b"v3");

        let read = |snap: u64| {
            row.visible_version(Timestamp(snap), TxnId(99))
                .map(|v| load(&s, &v))
        };
        assert_eq!(read(0), None);
        assert_eq!(read(5).unwrap(), b"v0");
        assert_eq!(read(10).unwrap(), b"v1");
        assert_eq!(read(25).unwrap(), b"v2");
        assert_eq!(read(30).unwrap(), b"v3");
        assert_eq!(read(999).unwrap(), b"v3");
    }

    #[test]
    fn own_uncommitted_writes_visible_only_to_writer() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"committed");
        s.add_version(&row, TxnId(7), VersionOp::Update, Some(b"pending"))
            .unwrap();

        let mine = row.visible_version(Timestamp(10), TxnId(7)).unwrap();
        assert_eq!(load(&s, &mine), b"pending");
        let theirs = row.visible_version(Timestamp(10), TxnId(8)).unwrap();
        assert_eq!(load(&s, &theirs), b"committed");
    }

    #[test]
    fn stamping_a_version_ref_publishes_it() {
        let s = store();
        let (row, vref) = s
            .insert_row(
                RowId(5),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(7),
                b"new",
                Timestamp(1),
            )
            .unwrap();
        assert!(row.visible_version(Timestamp(100), TxnId(8)).is_none());
        vref.stamp(Timestamp(50));
        let seen = row.visible_version(Timestamp(100), TxnId(8)).unwrap();
        assert_eq!(seen.commit_ts, Some(Timestamp(50)));
        assert_eq!(load(&s, &seen), b"new");
    }

    #[test]
    fn truncate_reclaims_old_versions_only() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"v1");
        push_committed(&s, &row, 2, 20, b"v2");
        push_committed(&s, &row, 3, 30, b"v3");
        assert_eq!(row.version_count(), 4);

        // Oldest active snapshot at 25: v2 (ts 20) is still needed,
        // v1 and v0 are unreachable.
        let freed = row.truncate_versions(Timestamp(25));
        assert!(freed > 0);
        assert_eq!(row.version_count(), 2);
        // Snapshot at 25 still reads v2.
        let v = row.visible_version(Timestamp(25), TxnId(99)).unwrap();
        assert_eq!(load(&s, &v), b"v2");

        // Oldest active at 100: only v3 remains.
        row.truncate_versions(Timestamp(100));
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn rollback_removes_only_that_txns_uncommitted_versions() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"v1");
        s.add_version(&row, TxnId(5), VersionOp::Update, Some(b"doomed"))
            .unwrap();
        let used_before = s.used_bytes();
        let freed = row.rollback_txn(TxnId(5), || Timestamp(11));
        assert!(freed > 0);
        assert_eq!(s.used_bytes(), used_before - freed as u64);
        assert_eq!(row.version_count(), 2);
        let v = row.visible_version(Timestamp(10), TxnId(5)).unwrap();
        assert_eq!(load(&s, &v), b"v1");
    }

    #[test]
    fn rollback_quarantines_nodes_for_straggling_readers() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"v1");
        s.add_version(&row, TxnId(5), VersionOp::Delete, None)
            .unwrap();
        assert_eq!(s.arena().quarantined_nodes(), 0);
        row.rollback_txn(TxnId(5), || Timestamp(11));
        assert_eq!(s.arena().quarantined_nodes(), 1);
        // The node only recycles once the horizon passes the rollback.
        assert_eq!(s.arena().reclaim(Timestamp(11)), 0);
        assert_eq!(s.arena().reclaim(Timestamp(12)), 1);
    }

    #[test]
    fn tombstone_marks_row_deleted() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 1, 10, b"v1");
        assert!(!row.is_deleted());
        s.add_version(&row, TxnId(2), VersionOp::Delete, None)
            .unwrap()
            .stamp(Timestamp(20));
        assert!(row.is_deleted());
        // Snapshot before the delete still sees the row.
        let v = row.visible_version(Timestamp(15), TxnId(99)).unwrap();
        assert_eq!(v.op, VersionOp::Update);
    }

    #[test]
    fn touch_updates_hotness() {
        let s = store();
        let row = row(&s, RowOrigin::Cached);
        assert_eq!(row.origin, RowOrigin::Cached);
        assert_eq!(row.reuse_count(), 0);
        row.touch(Timestamp(42));
        row.touch(Timestamp(43));
        assert_eq!(row.last_access(), Timestamp(43));
        assert_eq!(row.reuse_count(), 2);
    }

    #[test]
    fn free_all_quarantines_everything() {
        let s = store();
        let row = row(&s, RowOrigin::Inserted);
        push_committed(&s, &row, 2, 20, b"version two");
        assert!(row.memory() > 0);
        row.free_all(|| Timestamp(21));
        assert_eq!(row.memory(), 0);
        // Accounting drops immediately; physical reuse waits for the
        // horizon to pass the teardown timestamp.
        assert_eq!(s.used_bytes(), 0);
        assert!(s.allocator().quarantined_bytes() > 0);
        assert_eq!(s.arena().quarantined_nodes(), 2);
        s.reclaim(Timestamp(22));
        assert_eq!(s.allocator().quarantined_bytes(), 0);
        assert_eq!(s.arena().quarantined_nodes(), 0);
    }
}
