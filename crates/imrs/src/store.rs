//! The IMRS row store with per-partition memory accounting.
//!
//! [`ImrsStore`] owns the fragment allocator, the version arena and the
//! striped chain latches; it keeps no row directory. A row is resident
//! when its RID-Map entry's residency bit is set, and [`get`](ImrsStore::get)
//! is a direct index into that entry returning a borrowed [`ImrsRow`]
//! handle — no lock, no hash, no reference count. Every mutation goes
//! through the store so the per-partition counters — "Partition-specific
//! IMRS-memory used, number of rows stored in-memory for a partition"
//! (§V.A) — never drift from the allocator. Those counters are the raw
//! input to the Cache Utilization Index and the pack-cycle byte
//! apportioning (§VI.C).
//!
//! Readers (the engine's point reads and snapshot reads) resolve rows
//! through the same lock-free path: a residency check, then the chain
//! head and the arena, all atomics. A reader can therefore be mid-walk
//! while a row is torn down, so teardown paths take a `now` timestamp
//! and freed chain nodes and fragments quarantine until the snapshot
//! horizon passes (see [`reclaim`](ImrsStore::reclaim)).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use btrim_common::{PartitionId, Result, RowId, Timestamp, TxnId};

use crate::alloc::FragmentAllocator;
use crate::arena::{VersionArena, VersionRef};
use crate::ridmap::RidMap;
use crate::row::{ImrsRow, RowOrigin};
use crate::version::VersionOp;

/// Chain latch stripes (a power of two; dense row ids spread evenly).
const LATCH_STRIPES: usize = 1024;

/// Per-partition IMRS usage counters.
#[derive(Debug, Default)]
pub struct PartitionUsage {
    bytes: AtomicI64,
    rows: AtomicI64,
}

impl PartitionUsage {
    /// IMRS bytes attributed to the partition.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed).max(0) as u64
    }

    /// IMRS-resident row count for the partition.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed).max(0) as u64
    }
}

/// The in-memory row store.
pub struct ImrsStore {
    alloc: Arc<FragmentAllocator>,
    arena: Arc<VersionArena>,
    ridmap: Arc<RidMap>,
    /// Striped per-row chain latches: serialize structural changes to
    /// one row's chain. Ranked, so the debug witness rejects holding two.
    latches: Box<[Mutex<()>]>,
    /// Resident rows across all partitions.
    resident: AtomicI64,
    usage: RwLock<HashMap<PartitionId, Arc<PartitionUsage>>>,
}

impl ImrsStore {
    /// Create a store with a memory budget. The RID-Map is shared with
    /// the engine: residency, partition and chain heads live in its
    /// entries.
    pub fn new(budget_bytes: u64, chunk_size: u32, ridmap: Arc<RidMap>) -> Self {
        ImrsStore {
            alloc: Arc::new(FragmentAllocator::new(budget_bytes, chunk_size)),
            arena: Arc::new(VersionArena::new()),
            ridmap,
            latches: (0..LATCH_STRIPES)
                .map(|_| Mutex::with_rank(parking_lot::lock_rank::IMRS_CHAIN, ()))
                .collect(),
            resident: AtomicI64::new(0),
            usage: RwLock::new(HashMap::new()),
        }
    }

    /// The fragment allocator.
    pub fn allocator(&self) -> &Arc<FragmentAllocator> {
        &self.alloc
    }

    /// The version arena (the snapshot read path walks it directly).
    pub fn arena(&self) -> &Arc<VersionArena> {
        &self.arena
    }

    /// The RID-Map holding every row's IMRS state.
    pub(crate) fn ridmap(&self) -> &Arc<RidMap> {
        &self.ridmap
    }

    /// The chain latch stripe guarding `row`.
    pub(crate) fn latch(&self, row: RowId) -> &Mutex<()> {
        &self.latches[row.0 as usize & (LATCH_STRIPES - 1)]
    }

    /// IMRS bytes in use (all partitions).
    pub fn used_bytes(&self) -> u64 {
        self.alloc.used_bytes()
    }

    /// Cache utilization in [0, 1] relative to the configured budget
    /// (includes quarantined bytes awaiting the snapshot horizon).
    pub fn utilization(&self) -> f64 {
        self.alloc.utilization()
    }

    /// Configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.alloc.budget()
    }

    /// Retarget the memory budget (the arbiter's knob). Shrinking is
    /// lazy: admission tightens via the higher utilization reading and
    /// GC / pack / freeze drain the overage; nothing is evicted here.
    pub fn set_budget(&self, budget_bytes: u64) {
        self.alloc.set_budget(budget_bytes);
    }

    /// Recycle quarantined chain nodes and fragments whose retirement
    /// timestamp the snapshot `horizon` has strictly passed. Returns
    /// (nodes, bytes) recycled.
    pub fn reclaim(&self, horizon: Timestamp) -> (usize, u64) {
        let nodes = self.arena.reclaim(horizon);
        let bytes = self.alloc.reclaim(horizon);
        (nodes, bytes)
    }

    /// Usage counters for a partition (created on first use).
    pub fn usage(&self, partition: PartitionId) -> Arc<PartitionUsage> {
        if let Some(u) = self.usage.read().get(&partition) {
            return Arc::clone(u);
        }
        let mut map = self.usage.write();
        Arc::clone(map.entry(partition).or_default())
    }

    /// Add `bytes` and `rows` to a partition's counters.
    fn account(&self, partition: PartitionId, bytes: i64, rows: i64) {
        let add = |u: &PartitionUsage| {
            u.bytes.fetch_add(bytes, Ordering::Relaxed);
            u.rows.fetch_add(rows, Ordering::Relaxed);
        };
        if let Some(u) = self.usage.read().get(&partition) {
            add(u);
            return;
        }
        add(&self.usage(partition));
    }

    /// Snapshot of every partition's usage.
    pub fn all_usage(&self) -> Vec<(PartitionId, u64, u64)> {
        self.usage
            .read()
            .iter()
            .map(|(&p, u)| (p, u.bytes(), u.rows()))
            .collect()
    }

    /// Bring a row into the IMRS with its first (uncommitted) version.
    /// Returns the row plus the version reference to stamp at commit.
    pub fn insert_row(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        self.insert_with(row_id, partition, origin, txn, data, now, None)
    }

    /// Same as [`insert_row`](Self::insert_row) but with a pre-stamped
    /// version (recovery replay).
    pub fn insert_row_committed(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        ts: Timestamp,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        self.insert_with(row_id, partition, origin, txn, data, ts, Some(ts))
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_with(
        &self,
        row_id: RowId,
        partition: PartitionId,
        origin: RowOrigin,
        txn: TxnId,
        data: &[u8],
        now: Timestamp,
        commit_ts: Option<Timestamp>,
    ) -> Result<(ImrsRow<'_>, VersionRef)> {
        let handle = self.alloc.alloc(data)?;
        let bytes = handle.alloc_len() as i64;
        // Fields first, then the first version, then residency: a
        // lookup that sees the row resident sees its chain.
        self.ridmap.admit(row_id, partition, origin, now);
        let row = ImrsRow::new(self, row_id, partition, origin);
        let vref = row.push_version(txn, VersionOp::Insert, Some(handle), commit_ts);
        let fresh = self.ridmap.set_resident(row_id);
        debug_assert!(fresh, "{row_id:?} inserted while resident");
        self.account(partition, bytes, fresh as i64);
        self.resident.fetch_add(fresh as i64, Ordering::Relaxed);
        Ok((row, vref))
    }

    /// Add an (uncommitted) version to a resident row.
    pub fn add_version(
        &self,
        row: &ImrsRow<'_>,
        txn: TxnId,
        op: VersionOp,
        data: Option<&[u8]>,
    ) -> Result<VersionRef> {
        let handle = match data {
            Some(d) => Some(self.alloc.alloc(d)?),
            None => None,
        };
        let bytes = handle.map_or(0, |h| h.alloc_len()) as i64;
        let vref = row.push_version(txn, op, handle, None);
        self.account(row.partition, bytes, 0);
        Ok(vref)
    }

    /// Fetch a resident row: one acquire load of its RID-Map entry.
    pub fn get(&self, row_id: RowId) -> Option<ImrsRow<'_>> {
        let (partition, origin) = self.ridmap.resident(row_id)?;
        Some(ImrsRow::new(self, row_id, partition, origin))
    }

    /// Whether the row is resident.
    pub fn contains(&self, row_id: RowId) -> bool {
        self.ridmap.resident(row_id).is_some()
    }

    /// Remove a row (pack completion, or GC of a fully-dead row). Its
    /// chain is quarantined — accounting drops immediately, physical
    /// reuse waits for the snapshot horizon — because a lock-free
    /// reader may still be walking it. `now` is a closure (usually the
    /// commit clock) read *after* the chain head is detached. Clearing
    /// the residency bit is one atomic RMW, so among concurrent callers
    /// exactly one removes the row; returns whether this call did.
    pub fn remove_row(&self, row_id: RowId, now: impl Fn() -> Timestamp) -> bool {
        let Some((partition, origin)) = self.ridmap.clear_resident(row_id) else {
            return false;
        };
        let freed = ImrsRow::new(self, row_id, partition, origin).free_all(now) as i64;
        self.account(partition, -freed, -1);
        self.resident.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Roll back a transaction's versions on a row, with accounting.
    /// `now` (read after the unlinks) timestamps the node quarantine.
    /// The row need not be resident any more (an aborted insert is
    /// removed by its undo first; its chain is then already empty).
    pub fn rollback_row(&self, row_id: RowId, txn: TxnId, now: impl Fn() -> Timestamp) {
        let Some((partition, origin)) = self.ridmap.admitted(row_id) else {
            return; // never admitted: no chain
        };
        let freed = ImrsRow::new(self, row_id, partition, origin).rollback_txn(txn, now) as i64;
        if freed > 0 {
            self.account(partition, -freed, 0);
        }
    }

    /// GC one row's chain below the oldest-active snapshot, with
    /// accounting. Returns bytes freed.
    pub fn truncate_row(&self, row: &ImrsRow<'_>, oldest_active: Timestamp) -> usize {
        let freed = row.truncate_versions(oldest_active);
        if freed > 0 {
            self.account(row.partition, -(freed as i64), 0);
        }
        freed
    }

    /// Number of resident rows across all partitions.
    pub fn row_count(&self) -> usize {
        self.resident.load(Ordering::Relaxed).max(0) as usize
    }

    /// Visit every resident row in row-id order (stats, analytic scans,
    /// recovery, tests). Walks the RID-Map, so it costs one load per
    /// row id ever mapped.
    pub fn for_each_row(&self, mut f: impl FnMut(ImrsRow<'_>)) {
        self.ridmap.for_each_resident(|row_id, partition, origin| {
            f(ImrsRow::new(self, row_id, partition, origin))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ImrsStore {
        ImrsStore::new(1024 * 1024, 64 * 1024, Arc::new(RidMap::new()))
    }

    #[test]
    fn insert_and_get() {
        let s = store();
        let (row, _) = s
            .insert_row(
                RowId(1),
                PartitionId(2),
                RowOrigin::Inserted,
                TxnId(1),
                b"hello",
                Timestamp(1),
            )
            .unwrap();
        assert_eq!(row.row_id, RowId(1));
        assert!(s.contains(RowId(1)));
        let got = s.get(RowId(1)).unwrap();
        assert_eq!(got.partition, PartitionId(2));
        assert_eq!(s.row_count(), 1);
    }

    #[test]
    fn usage_accounting_tracks_inserts_and_removes() {
        let s = store();
        for i in 0..10u64 {
            s.insert_row(
                RowId(i),
                PartitionId(1),
                RowOrigin::Inserted,
                TxnId(1),
                &[0u8; 100],
                Timestamp(1),
            )
            .unwrap();
        }
        let u = s.usage(PartitionId(1));
        assert_eq!(u.rows(), 10);
        assert_eq!(u.bytes(), s.used_bytes());
        assert!(u.bytes() >= 1000);

        for i in 0..5u64 {
            assert!(s.remove_row(RowId(i), || Timestamp(2)));
        }
        assert_eq!(u.rows(), 5);
        assert_eq!(u.bytes(), s.used_bytes());
    }

    #[test]
    fn add_version_grows_partition_bytes() {
        let s = store();
        let (row, _) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                b"v1",
                Timestamp(1),
            )
            .unwrap();
        let before = s.usage(PartitionId(0)).bytes();
        s.add_version(&row, TxnId(2), VersionOp::Update, Some(b"version two"))
            .unwrap();
        assert!(s.usage(PartitionId(0)).bytes() > before);
        assert_eq!(row.version_count(), 2);
    }

    #[test]
    fn truncate_row_returns_bytes_to_partition() {
        let s = store();
        let (row, v1) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                &[1u8; 64],
                Timestamp(1),
            )
            .unwrap();
        v1.stamp(Timestamp(5));
        let v2 = s
            .add_version(&row, TxnId(2), VersionOp::Update, Some(&[2u8; 64]))
            .unwrap();
        v2.stamp(Timestamp(10));
        let before = s.usage(PartitionId(0)).bytes();
        let freed = s.truncate_row(&row, Timestamp(50));
        assert!(freed > 0);
        assert_eq!(s.usage(PartitionId(0)).bytes(), before - freed as u64);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn rollback_restores_accounting() {
        let s = store();
        let (row, v1) = s
            .insert_row(
                RowId(1),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                b"base",
                Timestamp(1),
            )
            .unwrap();
        v1.stamp(Timestamp(2));
        let before = s.usage(PartitionId(0)).bytes();
        s.add_version(&row, TxnId(9), VersionOp::Update, Some(&[0u8; 200]))
            .unwrap();
        s.rollback_row(row.row_id, TxnId(9), || Timestamp(3));
        assert_eq!(s.usage(PartitionId(0)).bytes(), before);
        assert_eq!(row.version_count(), 1);
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let s = ImrsStore::new(16 * 1024, 16 * 1024, Arc::new(RidMap::new()));
        let mut i = 0u64;
        loop {
            match s.insert_row(
                RowId(i),
                PartitionId(0),
                RowOrigin::Inserted,
                TxnId(1),
                &vec![0u8; 1024],
                Timestamp(1),
            ) {
                Ok(_) => i += 1,
                Err(btrim_common::BtrimError::ImrsFull { .. }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(i, 16);
    }

    #[test]
    fn removed_row_bytes_recycle_after_horizon() {
        let s = store();
        s.insert_row(
            RowId(1),
            PartitionId(0),
            RowOrigin::Inserted,
            TxnId(1),
            &[7u8; 128],
            Timestamp(1),
        )
        .unwrap();
        assert!(s.remove_row(RowId(1), || Timestamp(5)));
        assert!(!s.remove_row(RowId(1), || Timestamp(5)), "one remover");
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.used_bytes(), 0);
        assert!(s.allocator().quarantined_bytes() > 0);
        let (nodes, bytes) = s.reclaim(Timestamp(6));
        assert_eq!(nodes, 1);
        assert!(bytes > 0);
        assert_eq!(s.allocator().quarantined_bytes(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-rank violation")]
    fn holding_two_chain_latches_trips_the_witness() {
        // Two rows may share a stripe, so a second latch could
        // self-deadlock; the rank witness rejects any nesting.
        let s = store();
        let _a = s.latch(RowId(1)).lock();
        let _b = s.latch(RowId(2)).lock();
    }

    #[test]
    fn for_each_row_visits_all() {
        let s = store();
        for i in 0..50u64 {
            s.insert_row(
                RowId(i),
                PartitionId((i % 3) as u32),
                RowOrigin::Inserted,
                TxnId(1),
                b"x",
                Timestamp(1),
            )
            .unwrap();
        }
        s.remove_row(RowId(7), || Timestamp(2));
        let mut seen = Vec::new();
        s.for_each_row(|r| seen.push((r.row_id, r.partition)));
        assert_eq!(seen.len(), 49);
        assert!(seen
            .iter()
            .all(|&(r, p)| r != RowId(7) && p.0 as u64 == r.0 % 3));
        assert_eq!(s.row_count(), 49);
        let total: u64 = s.all_usage().iter().map(|(_, _, rows)| rows).sum();
        assert_eq!(total, 49);
    }
}
