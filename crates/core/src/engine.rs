//! The BTrim engine: ISUD execution over the hybrid store.
//!
//! Every row is addressed by a stable `RowId`; indexes map keys to
//! `RowId`s and the RID-Map resolves the physical home. The ILM rules
//! of §IV are applied inline:
//!
//! * new inserts go to the IMRS (no page-store footprint);
//! * a page-store row accessed through the unique (primary) index is
//!   considered hot — updates *migrate* it, selects *cache* it;
//! * per-partition enablement flags from the auto-tuner (§V) and the
//!   pack subsystem's reject-new backpressure (§VI.A) gate all of the
//!   above.
//!
//! Maintenance (GC, TSF learning, tuning windows, pack cycles) runs
//! either inline every `maintenance_interval_txns` commits — fully
//! deterministic, the default — or on background threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use btrim_common::{
    BtrimError, LogicalClock, PageId, PartitionId, Result, RowId, SlotId, Timestamp, TxnId,
};
use btrim_imrs::{ImrsStore, RidMap, RowLocation, RowOrigin, VersionOp};
use btrim_obs::{CheckpointTrace, IlmTraceEvent, Obs, OpClass};
use btrim_pagestore::{BufferCache, DiskBackend, MemDisk};
use btrim_txn::{LockManager, LockMode, TxnHandle, TxnManager};
use btrim_wal::{ImrsLogRecord, LogSink, LogWriter, MemLog, PageLogRecord, RowOriginTag};

use crate::catalog::{Catalog, KeyExtractor, TableDesc, TableOpts};
use crate::config::{EngineConfig, EngineMode};
use crate::gc::GcRegistry;
use crate::metrics::MetricsRegistry;
use crate::pack::PackState;
use crate::queues::IlmQueues;
use crate::sidestore::{SideImage, SideStore};
use crate::stats::EngineSnapshot;
use crate::tsf::TsfLearner;
use crate::tuner::Tuner;
use crate::txn_ctx::{Transaction, UndoOp};

/// Engine health, driven by storage-error observations.
///
/// * `Healthy` — normal operation.
/// * `Degraded` — storage errors are accumulating; background work
///   backs off, but reads and writes still run.
/// * `ReadOnly` — the engine stopped accepting writes (persistent log
///   failure, or too many consecutive storage errors). Reads keep
///   working from memory and the cache; write entry points return
///   [`BtrimError::ReadOnly`]. Sticky until restart/recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthState {
    /// Normal operation.
    Healthy,
    /// Storage errors are accumulating; still fully operational.
    Degraded {
        /// What pushed the engine out of `Healthy`.
        reason: String,
    },
    /// Writes rejected; reads still served. Sticky.
    ReadOnly {
        /// What forced the write stop.
        reason: String,
    },
}

impl HealthState {
    /// Whether write transactions are still accepted.
    pub fn writable(&self) -> bool {
        !matches!(self, HealthState::ReadOnly { .. })
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded { reason } => write!(f, "degraded ({reason})"),
            HealthState::ReadOnly { reason } => write!(f, "read-only ({reason})"),
        }
    }
}

/// What recovery salvaged and what it had to drop. All counters are
/// zero after a clean start or an undamaged recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Page-store log records replayed (decodable prefix).
    pub syslog_salvaged: u64,
    /// Page-store log records dropped at the first corrupt frame.
    pub syslog_dropped: u64,
    /// IMRS log records replayed (decodable prefix).
    pub imrslog_salvaged: u64,
    /// IMRS log records dropped at the first corrupt frame.
    pub imrslog_dropped: u64,
    /// Heap pages whose checksum failed during the rebuild scan; the
    /// page was reset (its rows are reported lost, not silently served).
    pub pages_reset: u64,
    /// IMRS log records skipped because their transaction lost.
    pub imrs_records_skipped: u64,
    /// Redo workers that replayed the page log (1 = serial).
    pub replay_workers: u64,
    /// Page-log change records actually redone (forward pass).
    pub syslog_redo_replayed: u64,
    /// Page-log change records skipped by the checkpoint redo floor —
    /// after a fuzzy checkpoint only the post-low-water suffix replays.
    pub syslog_redo_skipped: u64,
    /// IMRS log records re-applied to the in-memory row store.
    pub imrs_records_replayed: u64,
    /// Wall-clock microseconds in the salvage + analysis pass.
    pub analysis_micros: u64,
    /// Wall-clock microseconds in the forward page redo (all workers).
    pub page_redo_micros: u64,
    /// Wall-clock microseconds in the heap-scan rebuild.
    pub heap_rebuild_micros: u64,
    /// Wall-clock microseconds replaying the IMRS log.
    pub imrs_replay_micros: u64,
}

impl RecoveryReport {
    /// Whether recovery had to drop or repair anything.
    pub fn clean(&self) -> bool {
        self.syslog_dropped == 0 && self.imrslog_dropped == 0 && self.pages_reset == 0
    }
}

/// Everything shared between the engine facade, background threads, and
/// the pack/tuner/GC subsystems.
pub(crate) struct Shared {
    pub cfg: EngineConfig,
    pub cache: Arc<BufferCache>,
    pub store: ImrsStore,
    /// Shared with the store: row locations, IMRS residency and
    /// version-chain heads live in the same dense entry, so lock-free
    /// readers resolve and walk with a direct index.
    pub ridmap: Arc<RidMap>,
    /// Before-image side store for page-resident rows (snapshot reads).
    pub side: SideStore,
    pub catalog: Catalog,
    pub metrics: MetricsRegistry,
    pub txns: TxnManager,
    pub locks: LockManager,
    pub clock: Arc<LogicalClock>,
    pub syslog: LogWriter<PageLogRecord>,
    pub imrslog: LogWriter<ImrsLogRecord>,
    /// Group committers coalescing durable-commit syncs per log.
    pub group_sys: btrim_wal::GroupCommitter,
    pub group_imrs: btrim_wal::GroupCommitter,
    pub queues: IlmQueues,
    pub tsf: TsfLearner,
    pub gc: GcRegistry,
    pub tuner: Tuner,
    /// Unified-budget memory arbiter (active only with
    /// `total_memory_budget > 0`; see `crate::arbiter`).
    pub arbiter: crate::arbiter::MemoryArbiter,
    pub pack: PackState,
    /// Immutable columnar extents holding frozen rows (HTAP tier).
    pub extents: btrim_pagestore::ExtentStore,
    /// Freeze/thaw counters for stats and the oracle tests.
    pub freeze: crate::freeze::FreezeStats,
    /// Latency histograms + ILM decision trace. The WAL and buffer
    /// cache hold bare `Arc<LatencyHistogram>` clones of individual
    /// classes; everything in this crate records through here.
    pub obs: Arc<Obs>,
    maintenance_gate: Mutex<()>,
    last_maintenance: AtomicU64,
    /// Set when background maintenance threads are running; disables
    /// the inline (commit-path) maintenance hook so client transactions
    /// never pay for pack/GC work, as in the paper's deployment.
    background: AtomicBool,
    pub stop: AtomicBool,
    /// Current health verdict (see [`HealthState`]).
    health: RwLock<HealthState>,
    /// Consecutive storage errors since the last success; drives the
    /// Healthy → Degraded → ReadOnly escalation.
    consec_storage_errors: AtomicU64,
    /// Lifetime storage errors observed outside the buffer cache.
    pub storage_errors: AtomicU64,
    /// What the last recovery salvaged/dropped (zeroes on clean start).
    pub recovery: Mutex<RecoveryReport>,
    /// First syslogs LSN of every transaction currently alive on the
    /// page log (Begin appended, Commit/Abort not yet). The fuzzy
    /// checkpoint reads the minimum as its low-water truncation mark.
    /// Entries are pre-registered with a conservative bound *before*
    /// the Begin append goes out, so a concurrent floor read can never
    /// miss a transaction whose Begin is still in flight — and they are
    /// removed only *after* the Commit/Abort append returns, by which
    /// point every page the transaction dirtied has been mutated and is
    /// visible to the checkpoint's dirty-page enumeration.
    pub txn_syslog_floor: Mutex<HashMap<TxnId, btrim_common::Lsn>>,
    /// Serializes checkpointers (shutdown vs explicit vs background);
    /// never held while the maintenance gate is, and vice versa.
    ckpt_gate: Mutex<()>,
    /// Lifetime checkpoint count (trace ordinals).
    pub ckpt_ordinal: AtomicU64,
    /// Highest LSN ever handed to `truncate_prefix` — the delta per
    /// checkpoint is the number of records that truncation recycled.
    pub last_truncate_upto: AtomicU64,
}

impl Shared {
    /// Current health verdict.
    pub fn health(&self) -> HealthState {
        self.health.read().clone()
    }

    /// Fail fast when the engine no longer accepts writes.
    pub fn check_writable(&self) -> Result<()> {
        match &*self.health.read() {
            HealthState::ReadOnly { reason } => Err(BtrimError::ReadOnly(reason.clone())),
            _ => Ok(()),
        }
    }

    /// Force the engine read-only immediately (e.g. a failed log append
    /// may have left a torn record; appending more behind it would make
    /// the tail unrecoverable).
    pub fn set_read_only(&self, reason: String) {
        let mut h = self.health.write();
        if !matches!(*h, HealthState::ReadOnly { .. }) {
            *h = HealthState::ReadOnly { reason };
        }
    }

    /// Record a storage error from a log or maintenance path and
    /// escalate health when errors keep coming. Only I/O-class errors
    /// count; logical errors (duplicate key, lock timeouts, …) do not.
    pub fn note_storage_error(&self, ctx: &str, e: &BtrimError) {
        if !matches!(e, BtrimError::Io(_) | BtrimError::ChecksumMismatch(_)) {
            return;
        }
        self.storage_errors.fetch_add(1, Ordering::Relaxed);
        let n = self.consec_storage_errors.fetch_add(1, Ordering::Relaxed) + 1;
        let mut h = self.health.write();
        match &*h {
            HealthState::ReadOnly { .. } => {}
            _ if n >= self.cfg.health_readonly_after => {
                *h = HealthState::ReadOnly {
                    reason: format!("{ctx}: {e} ({n} consecutive storage errors)"),
                };
            }
            _ if n >= self.cfg.health_degrade_after => {
                *h = HealthState::Degraded {
                    reason: format!("{ctx}: {e}"),
                };
            }
            _ => {}
        }
    }

    /// Record a storage success: clears the consecutive-error counter
    /// and recovers Degraded → Healthy. ReadOnly is sticky.
    pub fn note_storage_ok(&self) {
        if self.consec_storage_errors.swap(0, Ordering::Relaxed) > 0 {
            let mut h = self.health.write();
            if matches!(*h, HealthState::Degraded { .. }) {
                *h = HealthState::Healthy;
            }
        }
    }

    /// Append to the page-store log. A failed append may have left a
    /// torn frame on the device; recovery truncates the log at the
    /// first bad frame, so appending *more* records behind the tear
    /// would silently drop them. The only safe reaction is to stop
    /// writing: the engine goes read-only — and this wrapper itself
    /// enforces it, because in-flight work (a pack cycle mid-batch, a
    /// commit mid-drain, a checkpoint) reaches here without passing
    /// the operation-level `check_writable` gate.
    pub fn append_sys(&self, rec: &PageLogRecord) -> Result<btrim_common::Lsn> {
        self.check_writable()?;
        // Maintain the checkpoint floor table around the append. A
        // `Begin` is pre-registered with `record_count() + 1` — a lower
        // bound on the LSN the append is about to receive — so a fuzzy
        // checkpoint reading the table between this insert and the
        // append still picks a floor at or below the transaction's
        // first record and cannot truncate its undo images away.
        let begin_txn = if let PageLogRecord::Begin { txn } = rec {
            let bound = btrim_common::Lsn(self.syslog.sink().record_count() + 1);
            self.txn_syslog_floor.lock().entry(*txn).or_insert(bound);
            Some(*txn)
        } else {
            None
        };
        match self.syslog.append(rec) {
            Ok(l) => {
                // The transaction leaves the floor table only after its
                // outcome record is in the log — by then every page it
                // dirtied has been mutated (DML and undo both write the
                // page before the outcome append), so the checkpoint's
                // dirty-page enumeration is guaranteed to see them.
                if let PageLogRecord::Commit { txn, .. } | PageLogRecord::Abort { txn } = rec {
                    self.txn_syslog_floor.lock().remove(txn);
                }
                Ok(l)
            }
            Err(e) => {
                if let Some(txn) = begin_txn {
                    // The Begin never (reliably) made the log; the
                    // engine goes read-only below, so no further
                    // checkpoint can truncate anything anyway.
                    self.txn_syslog_floor.lock().remove(&txn);
                }
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
                self.set_read_only(format!("syslogs append failed: {e}"));
                Err(e)
            }
        }
    }

    /// Append to the IMRS log; same failure policy as [`append_sys`](Self::append_sys).
    pub fn append_imrs(&self, rec: &ImrsLogRecord) -> Result<btrim_common::Lsn> {
        self.check_writable()?;
        match self.imrslog.append(rec) {
            Ok(l) => Ok(l),
            Err(e) => {
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
                self.set_read_only(format!("sysimrslogs append failed: {e}"));
                Err(e)
            }
        }
    }

    /// Append one pre-encoded record to the IMRS log (staged per-record
    /// commit path); same failure policy as [`append_sys`](Self::append_sys).
    pub fn append_imrs_raw(&self, payload: &[u8]) -> Result<btrim_common::Lsn> {
        self.check_writable()?;
        match self.imrslog.append_raw(payload) {
            Ok(l) => Ok(l),
            Err(e) => {
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
                self.set_read_only(format!("sysimrslogs append failed: {e}"));
                Err(e)
            }
        }
    }

    /// Append a committing transaction's staged records to the IMRS log
    /// as **one atomic batch** (one lock acquisition on the sink; a
    /// crash persists all of the records or none). Same failure policy
    /// as [`append_sys`](Self::append_sys) — note that unlike a failed
    /// single append, a failed batch cannot leave a *partial*
    /// transaction behind a torn tail, but the tail itself may still be
    /// torn, so the engine still goes read-only.
    pub fn append_imrs_batch(&self, payloads: &[&[u8]]) -> Result<btrim_wal::LsnRange> {
        self.check_writable()?;
        match self.imrslog.append_batch(payloads) {
            Ok(r) => Ok(r),
            Err(e) => {
                self.storage_errors.fetch_add(1, Ordering::Relaxed);
                self.set_read_only(format!("sysimrslogs batch append failed: {e}"));
                Err(e)
            }
        }
    }
}

/// The engine.
pub struct Engine {
    pub(crate) sh: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Prefix every page-store row with its stable RowId so recovery can
/// rebuild the RID-Map and indexes from a heap scan.
pub(crate) fn wrap_row(row_id: RowId, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + data.len());
    out.extend_from_slice(&row_id.0.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// A read-only snapshot transaction.
///
/// Holds a begin-timestamp and a slot in the transaction registry, so
/// the GC/pack horizon cannot advance past the snapshot while it is
/// live. It takes no locks, writes no log records, and is retired with
/// [`Engine::end_snapshot`] without touching the commit/abort counters.
///
/// With `snapshot_reads` enabled (the default), reads through this
/// handle are **lock-free on the IMRS path**: RID-Map resolution,
/// version-chain walk, and fragment load are all atomics; page-resident
/// rows additionally pin the page and consult the before-image side
/// store. With it disabled, reads fall back to the lock-based baseline
/// (shared row locks that queue behind writers).
pub struct SnapshotTxn {
    pub(crate) handle: TxnHandle,
}

impl SnapshotTxn {
    /// Registry identity of this snapshot reader.
    pub fn id(&self) -> TxnId {
        self.handle.id
    }

    /// The begin-timestamp all reads through this handle observe.
    pub fn snapshot(&self) -> Timestamp {
        self.handle.snapshot
    }
}

/// Split a page-store payload into (RowId, user bytes).
pub(crate) fn unwrap_row(payload: &[u8]) -> Result<(RowId, &[u8])> {
    let Some((id_bytes, data)) = payload.split_first_chunk::<8>() else {
        return Err(BtrimError::Corrupt("page row shorter than header".into()));
    };
    Ok((RowId(u64::from_le_bytes(*id_bytes)), data))
}

impl Engine {
    /// Create an engine on in-memory devices (deterministic default).
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_devices(
            cfg,
            Arc::new(MemDisk::new()),
            Arc::new(MemLog::new()),
            Arc::new(MemLog::new()),
        )
    }

    /// Create an engine over explicit devices (file-backed runs,
    /// recovery tests).
    pub fn with_devices(
        cfg: EngineConfig,
        disk: Arc<dyn DiskBackend>,
        syslog: Arc<dyn LogSink>,
        imrslog: Arc<dyn LogSink>,
    ) -> Self {
        cfg.validate();
        let clock = Arc::new(LogicalClock::new());
        let tsf = TsfLearner::new(
            cfg.steady_utilization,
            cfg.tsf_learn_delta,
            cfg.tsf_relearn_txns,
            cfg.tuning_window_txns,
        );
        let obs = Arc::new(Obs::new(cfg.obs_latency, cfg.obs_trace_capacity));
        // Lower crates get per-class histogram clones, never the hub:
        // `None` when latency is off, so their hot paths skip the clock
        // reads the same way the engine's do.
        let hook = |class: OpClass| cfg.obs_latency.then(|| Arc::clone(obs.hist(class)));
        let group_sys = btrim_wal::GroupCommitter::new(Arc::clone(&syslog))
            .with_histogram(hook(OpClass::WalFsync));
        let group_imrs = btrim_wal::GroupCommitter::new(Arc::clone(&imrslog))
            .with_histogram(hook(OpClass::WalFsync));
        let ridmap = Arc::new(RidMap::new());
        // One globally accounted split: legacy configs resolve to their
        // fixed pools, a unified budget to the arbiter's initial split.
        let (imrs_budget, buffer_frames) = cfg.memory_split();
        let sh = Shared {
            cache: Arc::new(
                BufferCache::with_shards(disk, buffer_frames, cfg.buffer_shards)
                    .with_io_retry(
                        cfg.io_retry_attempts,
                        std::time::Duration::from_micros(cfg.io_retry_backoff_us),
                    )
                    .with_write_verification(cfg.verify_page_writes)
                    .with_miss_histogram(hook(OpClass::BufferMiss)),
            ),
            store: ImrsStore::new(imrs_budget, cfg.imrs_chunk_size, Arc::clone(&ridmap)),
            ridmap,
            side: SideStore::new(),
            catalog: Catalog::new(),
            metrics: MetricsRegistry::new(),
            txns: TxnManager::new(Arc::clone(&clock)),
            locks: LockManager::default(),
            clock,
            syslog: LogWriter::new(syslog)
                .with_histograms(hook(OpClass::WalAppend), hook(OpClass::WalFsync)),
            imrslog: LogWriter::new(imrslog)
                .with_histograms(hook(OpClass::WalAppend), hook(OpClass::WalFsync)),
            group_sys,
            group_imrs,
            queues: IlmQueues::new(),
            tsf,
            gc: GcRegistry::new(),
            tuner: Tuner::with_obs(Arc::clone(&obs)),
            arbiter: crate::arbiter::MemoryArbiter::with_obs(Arc::clone(&obs)),
            pack: PackState::new(),
            extents: btrim_pagestore::ExtentStore::new(),
            freeze: crate::freeze::FreezeStats::new(),
            obs,
            maintenance_gate: Mutex::with_rank(parking_lot::lock_rank::ENGINE_STATE, ()),
            last_maintenance: AtomicU64::new(0),
            background: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            health: RwLock::new(HealthState::Healthy),
            consec_storage_errors: AtomicU64::new(0),
            storage_errors: AtomicU64::new(0),
            recovery: Mutex::new(RecoveryReport::default()),
            txn_syslog_floor: Mutex::with_rank(
                parking_lot::lock_rank::TXN_LOG_FLOOR,
                HashMap::new(),
            ),
            ckpt_gate: Mutex::with_rank(parking_lot::lock_rank::ENGINE_STATE, ()),
            ckpt_ordinal: AtomicU64::new(0),
            last_truncate_upto: AtomicU64::new(0),
            cfg,
        };
        Engine {
            sh: Arc::new(sh),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.sh.cfg
    }

    /// Create a table.
    pub fn create_table(&self, opts: TableOpts) -> Result<Arc<TableDesc>> {
        self.sh.catalog.create_table(&self.sh.cache, opts)
    }

    /// Add a (non-unique) secondary index to a table.
    pub fn create_secondary_index(
        &self,
        table: &TableDesc,
        name: &str,
        extractor: KeyExtractor,
    ) -> Result<()> {
        self.sh
            .catalog
            .create_secondary_index(&self.sh.cache, table, name, false, extractor)
    }

    /// Add a unique secondary index: inserts and updates whose extracted
    /// key collides with an existing row fail with
    /// [`BtrimError::DuplicateKey`].
    pub fn create_unique_secondary_index(
        &self,
        table: &TableDesc,
        name: &str,
        extractor: KeyExtractor,
    ) -> Result<()> {
        self.sh
            .catalog
            .create_secondary_index(&self.sh.cache, table, name, true, extractor)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<Arc<TableDesc>> {
        self.sh.catalog.table_by_name(name)
    }

    /// Begin a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(self.sh.txns.begin())
    }

    // ------------------------------------------------------------------
    // Placement decisions (§IV)
    // ------------------------------------------------------------------

    fn imrs_for_insert(&self, table: &TableDesc, partition: PartitionId) -> bool {
        match self.sh.cfg.mode {
            EngineMode::PageOnly => false,
            EngineMode::IlmOff => true,
            EngineMode::IlmOn => {
                table.imrs_enabled
                    && !self.sh.pack.reject_new()
                    && self.sh.tuner.state(partition).allows_insert()
            }
        }
    }

    fn imrs_for_migrate(&self, table: &TableDesc, partition: PartitionId) -> bool {
        match self.sh.cfg.mode {
            EngineMode::PageOnly => false,
            EngineMode::IlmOff => true,
            EngineMode::IlmOn => {
                table.imrs_enabled
                    && !self.sh.pack.reject_new()
                    && self.sh.tuner.state(partition).allows_migrate()
            }
        }
    }

    fn imrs_for_cache(&self, table: &TableDesc, partition: PartitionId) -> bool {
        match self.sh.cfg.mode {
            EngineMode::PageOnly => false,
            EngineMode::IlmOff => true,
            EngineMode::IlmOn => {
                table.imrs_enabled
                    && !self.sh.pack.reject_new()
                    && self.sh.tuner.state(partition).allows_cache()
            }
        }
    }

    // ------------------------------------------------------------------
    // ISUD
    // ------------------------------------------------------------------

    /// Insert a row. The primary key is extracted from the payload.
    pub fn insert(&self, txn: &mut Transaction, table: &TableDesc, row: &[u8]) -> Result<RowId> {
        self.sh.check_writable()?;
        let op_start = self.sh.obs.start();
        let key = (table.primary_key)(row);
        let partition = table.partition_of(&key);
        let row_id = self.sh.ridmap.allocate_row_id();

        table.primary.insert(&key, row_id)?;
        txn.undo.push(UndoOp::PrimaryAdd {
            table: table.id,
            key: key.clone(),
        });
        self.sh
            .locks
            .lock(txn.handle.id, row_id, LockMode::Exclusive)?;
        txn.remember_lock(row_id);
        // Every writing transaction announces itself in syslogs, even
        // when it only touches the IMRS: recovery gates redo-only IMRS
        // records on the syslogs commit verdict of their transaction,
        // which needs the Begin/Commit pair on disk.
        self.ensure_begin(txn)?;

        let m = self.sh.metrics.get(partition);
        let mut to_imrs = self.imrs_for_insert(table, partition);
        if to_imrs {
            match self.sh.store.insert_row(
                row_id,
                partition,
                RowOrigin::Inserted,
                txn.handle.id,
                row,
                self.sh.clock.now(),
            ) {
                Ok((_, vref)) => {
                    self.sh.ridmap.set(row_id, RowLocation::Imrs);
                    table.hash.insert(&key, row_id);
                    txn.undo.push(UndoOp::HashAdd {
                        table: table.id,
                        key: key.clone(),
                    });
                    txn.undo.push(UndoOp::ImrsNewRow { row: row_id });
                    txn.undo.push(UndoOp::RidSet {
                        row: row_id,
                        prev: None,
                    });
                    txn.to_stamp.push(vref);
                    txn.imrs_redo.push_insert(
                        txn.handle.id,
                        partition,
                        row_id,
                        RowOriginTag::Inserted,
                        row.to_vec(),
                    );
                    txn.gc_rows.push(row_id);
                    m.imrs_insert.inc();
                    m.rows_in.inc();
                }
                Err(BtrimError::ImrsFull { .. }) if self.sh.cfg.mode == EngineMode::IlmOn => {
                    // Graceful degradation (§VI.A): route to the page
                    // store instead of failing the transaction.
                    to_imrs = false;
                }
                Err(e) => return Err(e),
            }
        }
        if !to_imrs {
            let payload = wrap_row(row_id, row);
            self.sh.cache.take_thread_contention();
            let (page, slot) = table.heap(partition).insert(&self.sh.cache, &payload)?;
            let contended = self.sh.cache.take_thread_contention() > 0;
            m.page_ops.inc();
            if contended {
                m.page_contention.inc();
            }
            // Absent marker for snapshot readers: until this insert
            // commits (and for any snapshot older than its commit), the
            // row does not exist, even though its bytes sit on the page.
            // Stashed before the RID-Map publishes the location.
            self.sh
                .side
                .stash(page, slot, row_id, txn.handle.id, None, false);
            txn.side_keys.push((page, slot));
            // The heap insert above is additive (commit-gated at
            // recovery), but its undo must be on record before the
            // append below can fail, and the RID-Map must not publish
            // the location until the Insert record is in the log —
            // otherwise a failed append leaves a dangling RID that
            // abort cannot reclaim.
            txn.undo.push(UndoOp::PageInsert {
                partition,
                page,
                slot,
            });
            self.sh.append_sys(&PageLogRecord::Insert {
                txn: txn.handle.id,
                partition,
                row: row_id,
                page,
                slot,
                data: payload,
            })?;
            txn.undo.push(UndoOp::RidSet {
                row: row_id,
                prev: None,
            });
            self.sh.ridmap.set(row_id, RowLocation::Page(page, slot));
        }
        // Secondary index maintenance.
        for (idx, sec) in table.secondaries.read().iter().enumerate() {
            let skey = (sec.extractor)(row);
            sec.tree.insert(&skey, row_id)?;
            txn.undo.push(UndoOp::SecondaryAdd {
                table: table.id,
                idx,
                key: skey,
                row: row_id,
            });
        }
        // Classified by where the row actually landed, not where ILM
        // first aimed it (ImrsFull fallback flips `to_imrs`).
        self.sh.obs.record_since(
            if to_imrs {
                OpClass::InsertImrs
            } else {
                OpClass::InsertPage
            },
            op_start,
        );
        Ok(row_id)
    }

    /// Point select by primary key. Applies the hash-index fast path
    /// and, for page-resident rows, the §IV caching rule.
    pub fn get(&self, txn: &Transaction, table: &TableDesc, key: &[u8]) -> Result<Option<Vec<u8>>> {
        // Fast path: the non-logged hash index spans IMRS rows only and
        // resolves the RowId without touching the B+tree.
        if self.sh.cfg.mode != EngineMode::PageOnly {
            if let Some(row_id) = table.hash.get(key) {
                return self.read_row(txn, table, row_id, true);
            }
        }
        let Some(row_id) = table.primary.get(key)? else {
            return Ok(None);
        };
        self.read_row(txn, table, row_id, true)
    }

    /// Read a row by RowId, resolving its location through the RID-Map.
    /// `point_access` marks unique-index-driven access (the §IV hotness
    /// signal that triggers caching).
    pub fn read_row(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        row_id: RowId,
        point_access: bool,
    ) -> Result<Option<Vec<u8>>> {
        let op_start = self.sh.obs.start();
        // One clock read for the whole resolution: the loose access
        // timestamp does not need per-attempt freshness, and the retry
        // loop must not pay per-probe atomics it can avoid.
        let now = self.sh.clock.now();
        // Lock-free readers race online data movement (§VII.B): between
        // the RID-Map read and the store access the row can be packed,
        // migrated, or its freed slot reused by another row. Every such
        // outcome is detected (dead slot, row-id mismatch, row gone from
        // the store) and the resolution restarts from the RID-Map; each
        // retry reflects a *completed* movement, so a handful of
        // attempts always suffices.
        for _attempt in 0..4 {
            match self.sh.ridmap.get(row_id) {
                None | Some(RowLocation::Tombstone(..)) => return Ok(None),
                Some(RowLocation::Imrs) => {
                    let Some(row) = self.sh.store.get(row_id) else {
                        continue; // packed out concurrently
                    };
                    let visible = self.read_imrs_visible(txn, &row, now)?;
                    if visible.is_none() && self.sh.ridmap.head(row_id) == 0 {
                        // We saw the row resident just as pack drained
                        // its chain: the row lives on the page store
                        // now. Resolve again through the RID-Map.
                        continue;
                    }
                    self.sh.obs.record_since(OpClass::SelectImrs, op_start);
                    return Ok(visible);
                }
                Some(RowLocation::Page(page, slot)) => {
                    let partition = self.partition_of_page(table, page)?;
                    let m = self.sh.metrics.get(partition);
                    self.sh.cache.take_thread_contention();
                    let payload = table.heap(partition).get(&self.sh.cache, page, slot)?;
                    let contended = self.sh.cache.take_thread_contention() > 0;
                    m.page_ops.inc();
                    if contended {
                        m.page_contention.inc();
                    }
                    let Some(payload) = payload else {
                        continue; // row moved: dead slot
                    };
                    let (rid, data) = unwrap_row(&payload)?;
                    if rid != row_id {
                        continue; // slot freed and reused by another row
                    }
                    let data = data.to_vec();
                    if point_access && self.imrs_for_cache(table, partition) {
                        // Opportunistic caching; failure is harmless.
                        let _ = self.move_to_imrs(
                            txn.handle.id,
                            table,
                            partition,
                            row_id,
                            RowOrigin::Cached,
                            true,
                        );
                    }
                    self.sh.obs.record_since(OpClass::SelectPage, op_start);
                    return Ok(Some(data));
                }
                Some(RowLocation::Frozen(ext, idx)) => {
                    // Frozen rows are immutable and, by the freeze-time
                    // horizon gate, their image is the latest committed
                    // one. A dead extent slot means the row thawed
                    // concurrently — re-resolve through the RID-Map.
                    let Some(data) = self.frozen_row_bytes(table, ext, idx, row_id) else {
                        continue;
                    };
                    self.sh.obs.record_since(OpClass::SelectPage, op_start);
                    return Ok(Some(data));
                }
            }
        }
        // The row kept moving under us (possible when pack and
        // migration ping-pong a contended row). Fall back to the
        // paper's rule — "Scanners which need consistent data handle
        // this by looking up the row after acquiring a lock. Since data
        // movement needs locks on the rows, scanners can safely access
        // the row" (§VII.B). A shared lock under an internal owner
        // freezes the location; movers hold exclusive locks.
        let reader = self.sh.pack.internal_txn_id();
        self.sh.locks.lock_timeout(
            reader,
            row_id,
            LockMode::Shared,
            std::time::Duration::from_millis(500),
        )?;
        let result = (|| match self.sh.ridmap.get(row_id) {
            None | Some(RowLocation::Tombstone(..)) => Ok(None),
            Some(RowLocation::Imrs) => match self.sh.store.get(row_id) {
                Some(row) => self.read_imrs_visible(txn, &row, now),
                None => Ok(None),
            },
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                self.sh.metrics.get(partition).page_ops.inc();
                match table.heap(partition).get(&self.sh.cache, page, slot)? {
                    Some(payload) => {
                        let (rid, data) = unwrap_row(&payload)?;
                        debug_assert_eq!(rid, row_id, "location frozen under lock");
                        Ok(Some(data.to_vec()))
                    }
                    None => Ok(None),
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                // Thaw needs the exclusive lock; under our shared lock
                // the extent slot cannot die.
                Ok(self.frozen_row_bytes(table, ext, idx, row_id))
            }
        })();
        self.sh.locks.unlock(reader, row_id);
        result
    }

    /// Read the snapshot-visible version of a resident IMRS row.
    /// `now` is hoisted to the caller so retry loops read the clock
    /// once; the partition-metrics lookup (a registry `RwLock` + `Arc`
    /// clone) happens only on the success path.
    fn read_imrs_visible(
        &self,
        txn: &Transaction,
        row: &btrim_imrs::ImrsRow<'_>,
        now: Timestamp,
    ) -> Result<Option<Vec<u8>>> {
        match row.visible_version(txn.handle.snapshot, txn.handle.id) {
            Some(v) => {
                if v.op == VersionOp::Delete {
                    return Ok(None);
                }
                let data = v
                    .handle
                    .map(|h| self.sh.store.allocator().load(h))
                    .ok_or_else(|| {
                        BtrimError::Corrupt("non-delete version without image".into())
                    })?;
                row.touch(now);
                self.sh.metrics.get(row.partition).imrs_select.inc();
                Ok(Some(data))
            }
            None => Ok(None),
        }
    }

    fn partition_of_page(&self, table: &TableDesc, page: PageId) -> Result<PartitionId> {
        let guard = self.sh.cache.fetch(page)?;
        let p = guard.with_page_read(|v| v.partition());
        // Defensive: the page must belong to one of the table's
        // partitions.
        if table.heaps.contains_key(&p) {
            Ok(p)
        } else {
            Err(BtrimError::Corrupt(format!(
                "page {page} belongs to partition {p}, not to table {}",
                table.name
            )))
        }
    }

    // ------------------------------------------------------------------
    // Snapshot reads (read-only MVCC transactions)
    // ------------------------------------------------------------------

    /// Begin a read-only snapshot transaction. Cheap: one registry slot
    /// reservation and one clock read; no locks, no log records.
    pub fn begin_snapshot(&self) -> SnapshotTxn {
        SnapshotTxn {
            handle: self.sh.txns.begin(),
        }
    }

    /// Retire a snapshot transaction, releasing its registry slot so
    /// the GC/pack/side-store horizon can advance past its snapshot.
    pub fn end_snapshot(&self, snap: SnapshotTxn) {
        self.sh.txns.release(snap.handle);
    }

    /// Point select by primary key at the snapshot.
    pub fn get_snapshot(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        if self.sh.cfg.mode != EngineMode::PageOnly {
            if let Some(row_id) = table.hash.get(key) {
                return self.read_row_snapshot(snap, table, row_id);
            }
        }
        let Some(row_id) = table.primary.get(key)? else {
            return Ok(None);
        };
        self.read_row_snapshot(snap, table, row_id)
    }

    /// Read a row by RowId as of the snapshot.
    ///
    /// IMRS-resident rows are served entirely from atomics: location
    /// and chain head from the RID-Map entry, visibility from the
    /// version arena, image bytes from the fragment allocator. The
    /// access never takes a shard, row, or engine lock, never bumps
    /// partition metrics (the registry lookup is a lock), and never
    /// triggers caching/migration — readers must not block or be
    /// blocked by writers, and must not cause data movement.
    pub fn read_row_snapshot(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        row_id: RowId,
    ) -> Result<Option<Vec<u8>>> {
        let op_start = self.sh.obs.start();
        let result = if self.sh.cfg.snapshot_reads {
            self.read_row_mvcc(snap, table, row_id)
        } else {
            self.read_row_lock_baseline(snap, table, row_id)
        };
        self.sh.obs.record_since(OpClass::SnapshotRead, op_start);
        result
    }

    fn read_row_mvcc(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        row_id: RowId,
    ) -> Result<Option<Vec<u8>>> {
        let snapshot = snap.handle.snapshot;
        let reader = snap.handle.id;
        for _attempt in 0..4 {
            match self.sh.ridmap.get(row_id) {
                None => return Ok(None),
                Some(RowLocation::Imrs) => {
                    let head = self.sh.ridmap.head(row_id);
                    if head == 0 {
                        // Chain drained: the row was packed/removed
                        // between the location read and the head read.
                        // Re-resolve; the RID-Map says Page by now.
                        continue;
                    }
                    // The walk is safe against concurrent rollback,
                    // truncation, and pack: nodes and fragments are
                    // quarantined, and reclamation requires the horizon
                    // to pass their retirement — impossible while this
                    // registered snapshot is live.
                    return match self.sh.store.arena().visible_from(head, snapshot, reader) {
                        Some(v) if v.op != VersionOp::Delete => {
                            let data = v
                                .handle
                                .map(|h| self.sh.store.allocator().load(h))
                                .ok_or_else(|| {
                                    BtrimError::Corrupt("non-delete version without image".into())
                                })?;
                            Ok(Some(data))
                        }
                        // Deleted at the snapshot, or the row's oldest
                        // version is newer than the snapshot.
                        _ => Ok(None),
                    };
                }
                Some(RowLocation::Page(page, slot)) => {
                    let partition = self.partition_of_page(table, page)?;
                    // Page bytes FIRST, side store second: a writer
                    // stashes before it mutates, so a reader that saw
                    // the new bytes is guaranteed to see the stash. The
                    // opposite order could miss both.
                    let payload = table.heap(partition).get(&self.sh.cache, page, slot)?;
                    match self.sh.side.lookup(page, slot, row_id, snapshot, reader) {
                        SideImage::Absent => return Ok(None),
                        SideImage::Image(img) => return Ok(Some(img)),
                        SideImage::UsePage => {
                            let Some(payload) = payload else {
                                continue; // row moved: dead slot
                            };
                            let (rid, data) = unwrap_row(&payload)?;
                            if rid != row_id {
                                continue; // slot recycled by another row
                            }
                            return Ok(Some(data.to_vec()));
                        }
                    }
                }
                Some(RowLocation::Tombstone(page, slot)) => {
                    // Row deleted from the page store; the slot is dead
                    // but the image may still be visible to us.
                    return match self.sh.side.lookup(page, slot, row_id, snapshot, reader) {
                        SideImage::Image(img) => Ok(Some(img)),
                        // Delete is older than every stash we could
                        // need (or already purged): gone at this
                        // snapshot too.
                        SideImage::Absent | SideImage::UsePage => Ok(None),
                    };
                }
                Some(RowLocation::Frozen(ext, idx)) => {
                    // The freeze-time horizon gate proved no live (or
                    // future) snapshot needs an older or newer image
                    // than the frozen one: serve it unconditionally. A
                    // dead slot means the row thawed back to a page
                    // concurrently — re-resolve and let the side store
                    // arbitrate as usual.
                    let Some(data) = self.frozen_row_bytes(table, ext, idx, row_id) else {
                        continue;
                    };
                    return Ok(Some(data));
                }
            }
        }
        // Pathological ping-pong (pack ↔ migrate on a contended row):
        // fall back to the paper's freeze-under-lock rule, like
        // `read_row` does. Never reached by steady-state readers.
        let reader_lock = self.sh.pack.internal_txn_id();
        self.sh.locks.lock_timeout(
            reader_lock,
            row_id,
            LockMode::Shared,
            std::time::Duration::from_millis(500),
        )?;
        let result = (|| match self.sh.ridmap.get(row_id) {
            None => Ok(None),
            Some(RowLocation::Imrs) => {
                let head = self.sh.ridmap.head(row_id);
                match self.sh.store.arena().visible_from(head, snapshot, reader) {
                    Some(v) if v.op != VersionOp::Delete => {
                        Ok(v.handle.map(|h| self.sh.store.allocator().load(h)))
                    }
                    _ => Ok(None),
                }
            }
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                let payload = table.heap(partition).get(&self.sh.cache, page, slot)?;
                match self.sh.side.lookup(page, slot, row_id, snapshot, reader) {
                    SideImage::Absent => Ok(None),
                    SideImage::Image(img) => Ok(Some(img)),
                    SideImage::UsePage => match payload {
                        Some(p) => Ok(Some(unwrap_row(&p)?.1.to_vec())),
                        None => Ok(None),
                    },
                }
            }
            Some(RowLocation::Tombstone(page, slot)) => {
                match self.sh.side.lookup(page, slot, row_id, snapshot, reader) {
                    SideImage::Image(img) => Ok(Some(img)),
                    _ => Ok(None),
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                Ok(self.frozen_row_bytes(table, ext, idx, row_id))
            }
        })();
        self.sh.locks.unlock(reader_lock, row_id);
        result
    }

    /// The lock-based comparison arm (`snapshot_reads = false`): a
    /// shared row lock per read, released immediately. Readers queue
    /// behind writers' exclusive locks — exactly the blocking the MVCC
    /// path exists to remove — and read the latest committed image.
    fn read_row_lock_baseline(
        &self,
        snap: &SnapshotTxn,
        table: &TableDesc,
        row_id: RowId,
    ) -> Result<Option<Vec<u8>>> {
        let reader = snap.handle.id;
        self.sh.locks.lock_timeout(
            reader,
            row_id,
            LockMode::Shared,
            std::time::Duration::from_secs(10),
        )?;
        let result = (|| match self.sh.ridmap.get(row_id) {
            None | Some(RowLocation::Tombstone(..)) => Ok(None),
            Some(RowLocation::Imrs) => {
                let Some(row) = self.sh.store.get(row_id) else {
                    return Ok(None);
                };
                match row.latest_committed() {
                    Some(v) if v.op != VersionOp::Delete => {
                        Ok(v.handle.map(|h| self.sh.store.allocator().load(h)))
                    }
                    _ => Ok(None),
                }
            }
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                match table.heap(partition).get(&self.sh.cache, page, slot)? {
                    Some(payload) => Ok(Some(unwrap_row(&payload)?.1.to_vec())),
                    None => Ok(None),
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                Ok(self.frozen_row_bytes(table, ext, idx, row_id))
            }
        })();
        self.sh.locks.unlock(reader, row_id);
        result
    }

    /// Update a row by primary key. Returns `false` when the key does
    /// not exist (or is invisible).
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        key: &[u8],
        new_row: &[u8],
    ) -> Result<bool> {
        self.sh.check_writable()?;
        let Some(row_id) = table
            .hash
            .get(key)
            .map_or_else(|| table.primary.get(key), |r| Ok(Some(r)))?
        else {
            return Ok(false);
        };
        self.sh
            .locks
            .lock(txn.handle.id, row_id, LockMode::Exclusive)?;
        txn.remember_lock(row_id);

        match self.sh.ridmap.get(row_id) {
            None | Some(RowLocation::Tombstone(..)) => Ok(false),
            Some(RowLocation::Imrs) => self.update_imrs(txn, table, key, row_id, new_row),
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                if self.imrs_for_migrate(table, partition) {
                    // §IV: update via unique index migrates the row.
                    match self.move_to_imrs(
                        txn.handle.id,
                        table,
                        partition,
                        row_id,
                        RowOrigin::Migrated,
                        false,
                    ) {
                        Ok(true) => return self.update_imrs(txn, table, key, row_id, new_row),
                        Ok(false) => { /* history-pinned: stay on the page path */ }
                        Err(BtrimError::ImrsFull { .. }) => { /* fall through to page path */ }
                        Err(e) => return Err(e),
                    }
                }
                self.update_page(txn, table, key, row_id, partition, page, slot, new_row)
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                // Thaw back to a slotted page (an internally-committed
                // mini-transaction, like migration), then re-dispatch:
                // the RID-Map now says Page and the ordinary paths —
                // including migrate-to-IMRS — apply.
                if self.thaw_frozen(table, row_id, ext, idx)?.is_none() {
                    return Ok(false);
                }
                self.update(txn, table, key, new_row)
            }
        }
    }

    /// Read-modify-write by primary key: locks the row, reads the
    /// *latest committed* image (or this transaction's own pending
    /// image), applies `f`, and writes the result. This is the correct
    /// primitive for counter-style updates (TPC-C `d_next_o_id`, stock
    /// quantities): a snapshot read here would lose updates.
    ///
    /// Returns the new image, or `None` when the key does not exist.
    pub fn update_rmw(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Result<Option<Vec<u8>>> {
        self.sh.check_writable()?;
        let Some(row_id) = table
            .hash
            .get(key)
            .map_or_else(|| table.primary.get(key), |r| Ok(Some(r)))?
        else {
            return Ok(None);
        };
        self.sh
            .locks
            .lock(txn.handle.id, row_id, LockMode::Exclusive)?;
        txn.remember_lock(row_id);
        let Some(current) = self.read_current(txn, table, row_id)? else {
            return Ok(None);
        };
        let new_row = f(&current);
        let updated = match self.sh.ridmap.get(row_id) {
            Some(RowLocation::Imrs) => self.update_imrs(txn, table, key, row_id, &new_row)?,
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                if self.imrs_for_migrate(table, partition) {
                    match self.move_to_imrs(
                        txn.handle.id,
                        table,
                        partition,
                        row_id,
                        RowOrigin::Migrated,
                        false,
                    ) {
                        Ok(true) => self.update_imrs(txn, table, key, row_id, &new_row)?,
                        Ok(false) | Err(BtrimError::ImrsFull { .. }) => self.update_page(
                            txn, table, key, row_id, partition, page, slot, &new_row,
                        )?,
                        Err(e) => return Err(e),
                    }
                } else {
                    self.update_page(txn, table, key, row_id, partition, page, slot, &new_row)?
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                match self.thaw_frozen(table, row_id, ext, idx)? {
                    Some((partition, page, slot)) => {
                        self.update_page(txn, table, key, row_id, partition, page, slot, &new_row)?
                    }
                    None => false,
                }
            }
            None | Some(RowLocation::Tombstone(..)) => false,
        };
        Ok(updated.then_some(new_row))
    }

    /// Read the row image this transaction would overwrite: its own
    /// uncommitted version if it has one, else the latest committed
    /// version. Caller holds the row's exclusive lock.
    fn read_current(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        row_id: RowId,
    ) -> Result<Option<Vec<u8>>> {
        match self.sh.ridmap.get(row_id) {
            Some(RowLocation::Imrs) => {
                let Some(row) = self.sh.store.get(row_id) else {
                    return Ok(None);
                };
                let v = match row.newest() {
                    Some(v) if v.txn == txn.handle.id || v.commit_ts.is_some() => Some(v),
                    _ => row.latest_committed(),
                };
                match v {
                    Some(v) if v.op != VersionOp::Delete => {
                        Ok(v.handle.map(|h| self.sh.store.allocator().load(h)))
                    }
                    _ => Ok(None),
                }
            }
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                match table.heap(partition).get(&self.sh.cache, page, slot)? {
                    Some(payload) => Ok(Some(unwrap_row(&payload)?.1.to_vec())),
                    None => Ok(None),
                }
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                // Frozen = immutable latest-committed; the caller's
                // exclusive lock keeps the slot live.
                Ok(self.frozen_row_bytes(table, ext, idx, row_id))
            }
            None | Some(RowLocation::Tombstone(..)) => Ok(None),
        }
    }

    fn update_imrs(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        _key: &[u8],
        row_id: RowId,
        new_row: &[u8],
    ) -> Result<bool> {
        let Some(row) = self.sh.store.get(row_id) else {
            return Ok(false);
        };
        let op_start = self.sh.obs.start();
        self.ensure_begin(txn)?;
        // Old image for secondary-index maintenance.
        let old = match row.visible_version(txn.handle.snapshot, txn.handle.id) {
            Some(v) if v.op != VersionOp::Delete => v
                .handle
                .map(|h| self.sh.store.allocator().load(h))
                .unwrap_or_default(),
            _ => return Ok(false),
        };
        let v = self
            .sh
            .store
            .add_version(&row, txn.handle.id, VersionOp::Update, Some(new_row))?;
        txn.to_stamp.push(v);
        txn.remember_touched(row_id);
        txn.imrs_redo
            .push_update(txn.handle.id, row.partition, row_id, new_row.to_vec());
        txn.gc_rows.push(row_id);
        row.touch(self.sh.clock.now());
        self.sh.metrics.get(row.partition).imrs_update.inc();
        self.maintain_secondaries(txn, table, row_id, &old, Some(new_row))?;
        self.sh.obs.record_since(OpClass::UpdateImrs, op_start);
        Ok(true)
    }

    #[allow(clippy::too_many_arguments)]
    fn update_page(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        _key: &[u8],
        row_id: RowId,
        partition: PartitionId,
        page: PageId,
        slot: SlotId,
        new_row: &[u8],
    ) -> Result<bool> {
        let heap = table.heap(partition);
        let m = self.sh.metrics.get(partition);
        let op_start = self.sh.obs.start();
        self.sh.cache.take_thread_contention();
        let Some(old_payload) = heap.get(&self.sh.cache, page, slot)? else {
            return Ok(false);
        };
        let (_, old_data) = unwrap_row(&old_payload)?;
        let old_data = old_data.to_vec();
        let new_payload = wrap_row(row_id, new_row);
        // Snapshot readers roll in-place changes back through the side
        // store; the before image must be stashed BEFORE the page bytes
        // change, so a reader that observes the new bytes (it read the
        // page after us, under the frame latch) also observes the stash.
        self.sh.side.stash(
            page,
            slot,
            row_id,
            txn.handle.id,
            Some(old_data.clone()),
            false,
        );
        txn.side_keys.push((page, slot));
        self.ensure_begin(txn)?;
        // WAL-first: the Update record is appended from under the
        // frame's write latch, after the fit probe and before the page
        // bytes change. A failed append leaves the page untouched; a
        // mis-fit returns false without logging and the relocation arm
        // below writes its own records.
        let in_place =
            heap.try_update_in_place_logged(&self.sh.cache, page, slot, &new_payload, || {
                self.sh
                    .append_sys(&PageLogRecord::Update {
                        txn: txn.handle.id,
                        partition,
                        row: row_id,
                        page,
                        slot,
                        old: old_payload.clone(),
                        new: new_payload.clone(),
                    })
                    .map(|_| ())
            })?;
        if in_place {
            let contended = self.sh.cache.take_thread_contention() > 0;
            m.page_ops.inc();
            if contended {
                m.page_contention.inc();
            }
            txn.undo.push(UndoOp::PageUpdate {
                partition,
                page,
                slot,
                old: old_payload,
            });
        } else {
            // Relocation: insert the new image, repoint the RID-Map,
            // only then delete the old copy — a concurrent reader that
            // raced the RID-Map read finds either the old live slot or,
            // after one retry, the new location; never a dead end.
            let (new_page, new_slot) = heap.insert(&self.sh.cache, &new_payload)?;
            // The insert is additive (recovery discards it if the txn
            // never commits) and so may precede the appends — but its
            // undo must be recorded NOW, so an abort forced by a failed
            // append below still reclaims the orphan copy.
            txn.undo.push(UndoOp::PageInsert {
                partition,
                page: new_page,
                slot: new_slot,
            });
            let contended = self.sh.cache.take_thread_contention() > 0;
            m.page_ops.inc();
            if contended {
                m.page_contention.inc();
            }
            // The old image must also be findable at the row's NEW
            // address: once the RID-Map repoints, snapshot readers
            // resolve there and would otherwise see the new bytes.
            self.sh.side.stash(
                new_page,
                new_slot,
                row_id,
                txn.handle.id,
                Some(old_data.clone()),
                false,
            );
            txn.side_keys.push((new_page, new_slot));
            // WAL-first: both records precede the destructive steps
            // (the RID-Map flip and the old slot's delete); a failed
            // append aborts with only the additive insert to undo.
            self.sh.append_sys(&PageLogRecord::Delete {
                txn: txn.handle.id,
                partition,
                row: row_id,
                page,
                slot,
                old: old_payload.clone(),
            })?;
            self.sh.append_sys(&PageLogRecord::Insert {
                txn: txn.handle.id,
                partition,
                row: row_id,
                page: new_page,
                slot: new_slot,
                data: new_payload,
            })?;
            txn.undo.push(UndoOp::PageDelete {
                table: table.id,
                partition,
                row: row_id,
                old: old_payload,
            });
            let prev = self.sh.ridmap.get(row_id);
            txn.undo.push(UndoOp::RidSet { row: row_id, prev });
            // Repoint, only then delete the old copy — a concurrent
            // reader that raced the RID-Map read finds either the old
            // live slot or, after one retry, the new location; never a
            // dead end.
            self.sh
                .ridmap
                .set(row_id, RowLocation::Page(new_page, new_slot));
            heap.delete(&self.sh.cache, page, slot)?;
        }
        self.maintain_secondaries(txn, table, row_id, &old_data, Some(new_row))?;
        self.sh.obs.record_since(OpClass::UpdatePage, op_start);
        Ok(true)
    }

    /// Delete a row by primary key. Returns `false` if absent.
    pub fn delete(&self, txn: &mut Transaction, table: &TableDesc, key: &[u8]) -> Result<bool> {
        self.sh.check_writable()?;
        let Some(row_id) = table
            .hash
            .get(key)
            .map_or_else(|| table.primary.get(key), |r| Ok(Some(r)))?
        else {
            return Ok(false);
        };
        self.sh
            .locks
            .lock(txn.handle.id, row_id, LockMode::Exclusive)?;
        txn.remember_lock(row_id);

        let op_start = self.sh.obs.start();
        match self.sh.ridmap.get(row_id) {
            None | Some(RowLocation::Tombstone(..)) => Ok(false),
            Some(RowLocation::Imrs) => {
                let Some(row) = self.sh.store.get(row_id) else {
                    return Ok(false);
                };
                let old = match row.visible_version(txn.handle.snapshot, txn.handle.id) {
                    Some(v) if v.op != VersionOp::Delete => v
                        .handle
                        .map(|h| self.sh.store.allocator().load(h))
                        .unwrap_or_default(),
                    _ => return Ok(false),
                };
                self.ensure_begin(txn)?;
                let v = self
                    .sh
                    .store
                    .add_version(&row, txn.handle.id, VersionOp::Delete, None)?;
                txn.to_stamp.push(v);
                txn.remember_touched(row_id);
                txn.imrs_redo
                    .push_delete(txn.handle.id, row.partition, row_id);
                txn.gc_rows.push(row_id);
                self.sh.metrics.get(row.partition).imrs_delete.inc();
                // Index removal is immediate (see DESIGN.md trade-offs).
                if table.hash.remove(key).is_some() {
                    txn.undo.push(UndoOp::HashRemove {
                        table: table.id,
                        key: key.to_vec(),
                        row: row_id,
                    });
                }
                if table.primary.delete(key, Some(row_id))? {
                    txn.undo.push(UndoOp::PrimaryRemove {
                        table: table.id,
                        key: key.to_vec(),
                        row: row_id,
                    });
                }
                self.maintain_secondaries(txn, table, row_id, &old, None)?;
                self.sh.obs.record_since(OpClass::DeleteImrs, op_start);
                Ok(true)
            }
            Some(RowLocation::Page(page, slot)) => {
                let partition = self.partition_of_page(table, page)?;
                let heap = table.heap(partition);
                let m = self.sh.metrics.get(partition);
                self.sh.cache.take_thread_contention();
                let Some(old_payload) = heap.get(&self.sh.cache, page, slot)? else {
                    return Ok(false);
                };
                let (_, old_data) = unwrap_row(&old_payload)?;
                let old_data = old_data.to_vec();
                // Keep the deleted image reachable for older snapshots:
                // stash it (before the slot dies) and leave a tombstone
                // in the RID-Map instead of unmapping the row. The
                // tombstone is cleared when the stash ages past the
                // snapshot horizon.
                self.sh.side.stash(
                    page,
                    slot,
                    row_id,
                    txn.handle.id,
                    Some(old_data.clone()),
                    true,
                );
                txn.side_keys.push((page, slot));
                // WAL-first: the Delete record must be durable-ordered
                // before the slot dies or the RID-Map flips, so a crash
                // between the two can always be replayed.
                self.ensure_begin(txn)?;
                self.sh.append_sys(&PageLogRecord::Delete {
                    txn: txn.handle.id,
                    partition,
                    row: row_id,
                    page,
                    slot,
                    old: old_payload.clone(),
                })?;
                self.sh
                    .ridmap
                    .set(row_id, RowLocation::Tombstone(page, slot));
                txn.undo.push(UndoOp::PageDelete {
                    table: table.id,
                    partition,
                    row: row_id,
                    old: old_payload,
                });
                // Tombstone is published first so concurrent readers
                // consult the stash instead of racing the dying slot.
                heap.delete(&self.sh.cache, page, slot)?;
                let contended = self.sh.cache.take_thread_contention() > 0;
                m.page_ops.inc();
                if contended {
                    m.page_contention.inc();
                }
                if table.primary.delete(key, Some(row_id))? {
                    txn.undo.push(UndoOp::PrimaryRemove {
                        table: table.id,
                        key: key.to_vec(),
                        row: row_id,
                    });
                }
                self.maintain_secondaries(txn, table, row_id, &old_data, None)?;
                self.sh.obs.record_since(OpClass::DeletePage, op_start);
                Ok(true)
            }
            Some(RowLocation::Frozen(ext, idx)) => {
                // Thaw to a slotted page first, then run the ordinary
                // page-path delete (tombstone + side-store stash) by
                // re-dispatching; the re-entrant lock grant makes the
                // recursion cheap.
                if self.thaw_frozen(table, row_id, ext, idx)?.is_none() {
                    return Ok(false);
                }
                self.delete(txn, table, key)
            }
        }
    }

    /// Keep secondary indexes aligned when a row changes or disappears.
    fn maintain_secondaries(
        &self,
        txn: &mut Transaction,
        table: &TableDesc,
        row_id: RowId,
        old_row: &[u8],
        new_row: Option<&[u8]>,
    ) -> Result<()> {
        for (idx, sec) in table.secondaries.read().iter().enumerate() {
            let old_key = (sec.extractor)(old_row);
            match new_row {
                Some(new_row) => {
                    let new_key = (sec.extractor)(new_row);
                    if new_key != old_key {
                        if sec.tree.delete(&old_key, Some(row_id))? {
                            txn.undo.push(UndoOp::SecondaryRemove {
                                table: table.id,
                                idx,
                                key: old_key,
                                row: row_id,
                            });
                        }
                        sec.tree.insert(&new_key, row_id)?;
                        txn.undo.push(UndoOp::SecondaryAdd {
                            table: table.id,
                            idx,
                            key: new_key,
                            row: row_id,
                        });
                    }
                }
                None => {
                    if sec.tree.delete(&old_key, Some(row_id))? {
                        txn.undo.push(UndoOp::SecondaryRemove {
                            table: table.id,
                            idx,
                            key: old_key,
                            row: row_id,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Look up rows via a secondary index. Returns visible `(RowId,
    /// row)` pairs.
    pub fn get_by_index(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        index: &str,
        key: &[u8],
    ) -> Result<Vec<(RowId, Vec<u8>)>> {
        let row_ids = {
            let secs = table.secondaries.read();
            let sec = secs
                .iter()
                .find(|s| s.name == index)
                .ok_or_else(|| BtrimError::Invalid(format!("no index {index}")))?;
            sec.tree.get_all(key)?
        };
        let mut out = Vec::with_capacity(row_ids.len());
        for rid in row_ids {
            if let Some(row) = self.read_row(txn, table, rid, false)? {
                out.push((rid, row));
            }
        }
        Ok(out)
    }

    /// Range scan over a secondary index: visible rows with index keys
    /// in `[lo, hi)`. `f` receives `(index_key, row_id, row)` and stops
    /// the scan by returning `false`.
    pub fn scan_secondary_range(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        index: &str,
        lo: &[u8],
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], RowId, &[u8]) -> bool,
    ) -> Result<()> {
        let hits: Vec<(Vec<u8>, RowId)> = {
            let secs = table.secondaries.read();
            let sec = secs
                .iter()
                .find(|s| s.name == index)
                .ok_or_else(|| BtrimError::Invalid(format!("no index {index}")))?;
            let mut out = Vec::new();
            sec.tree.scan_range(lo, hi, |k, rid| {
                out.push((k.to_vec(), rid));
                true
            })?;
            out
        };
        for (k, rid) in hits {
            if let Some(row) = self.read_row(txn, table, rid, false)? {
                if !f(&k, rid, &row) {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Range scan over the primary index: visible rows with keys in
    /// `[lo, hi)`. `f` returning `false` stops the scan.
    pub fn scan_range(
        &self,
        txn: &Transaction,
        table: &TableDesc,
        lo: &[u8],
        hi: Option<&[u8]>,
        mut f: impl FnMut(&[u8], RowId, &[u8]) -> bool,
    ) -> Result<()> {
        let mut hits: Vec<(Vec<u8>, RowId)> = Vec::new();
        table.primary.scan_range(lo, hi, |k, rid| {
            hits.push((k.to_vec(), rid));
            true
        })?;
        for (k, rid) in hits {
            if let Some(row) = self.read_row(txn, table, rid, false)? {
                if !f(&k, rid, &row) {
                    break;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data movement (page store → IMRS): migration and caching
    // ------------------------------------------------------------------

    /// Move a page-resident row into the IMRS as an internally-committed
    /// mini-transaction. The caller either already holds the row's
    /// exclusive lock (`opportunistic = false`, update/migrate path) or
    /// asks for a conditional lock (`opportunistic = true`, select/cache
    /// path — skipped silently on contention). Returns whether the row
    /// actually moved: `Ok(false)` means the row stays page-resident
    /// (contended, already gone, or pinned to the page by snapshot
    /// history — see the horizon gate below) and the caller must keep
    /// using the page path.
    pub(crate) fn move_to_imrs(
        &self,
        _caller: TxnId,
        table: &TableDesc,
        partition: PartitionId,
        row_id: RowId,
        origin: RowOrigin,
        opportunistic: bool,
    ) -> Result<bool> {
        if opportunistic {
            // Use a dedicated internal lock owner: if the calling
            // transaction (or anyone else) holds the row, the
            // conditional lock fails and caching is skipped — we must
            // never piggy-back on (and then release) a caller's lock.
            let mover = self.sh.pack.internal_txn_id();
            if !self.sh.locks.try_lock(mover, row_id, LockMode::Exclusive) {
                return Ok(false); // contended: skip caching
            }
            let result = self.move_to_imrs_locked(table, partition, row_id, origin);
            self.sh.locks.unlock(mover, row_id);
            return result;
        }
        // Non-opportunistic path: the caller already holds the lock.
        self.move_to_imrs_locked(table, partition, row_id, origin)
    }

    fn move_to_imrs_locked(
        &self,
        table: &TableDesc,
        partition: PartitionId,
        row_id: RowId,
        origin: RowOrigin,
    ) -> Result<bool> {
        // Data movement writes both logs; a read-only engine must not
        // start any.
        self.sh.check_writable()?;
        let op_start = self.sh.obs.start();
        // Revalidate under the lock.
        let Some(RowLocation::Page(page, slot)) = self.sh.ridmap.get(row_id) else {
            return Ok(false);
        };
        let heap = table.heap(partition);
        let Some(payload) = heap.get(&self.sh.cache, page, slot)? else {
            return Ok(false);
        };
        let (_, data) = unwrap_row(&payload)?;
        let data = data.to_vec();

        // Stamp with the oldest active snapshot so every live reader
        // sees the (already committed) image in its new home. That
        // stamp is only truthful if the row's last change is at or
        // below the horizon: a change newer than the horizon always
        // left a stamped side-store entry (in-place updates stash
        // before-images, pack stashes absent markers, and purge cannot
        // touch entries above the horizon), and re-stamping such a row
        // at the horizon would make the change visible to snapshots
        // that predate it. Those rows stay page-resident — the side
        // store keeps serving their history — until the horizon passes;
        // the row lock we hold keeps the check stable.
        let ts_mig = self.sh.txns.oldest_active_snapshot();
        if self
            .sh
            .side
            .newest_stamped_ts(page, slot, row_id)
            .is_some_and(|t| t > ts_mig)
        {
            return Ok(false);
        }
        let itxn = self.sh.txns.begin();
        // The IMRS copy is allocated first: `ImrsFull` must bail before
        // anything reaches the logs, because its caller falls through to
        // the page path while the engine stays writable — a loser Delete
        // record left behind here could be undone at recovery AFTER a
        // later winner legitimately deletes the slot, resurrecting the
        // row. The copy is unpublished (the RID-Map still says Page)
        // and the caller holds the row's exclusive lock, so nobody can
        // observe it until the logs are safely out.
        if let Err(e) = self
            .sh
            .store
            .insert_row_committed(row_id, partition, origin, itxn.id, &data, ts_mig)
        {
            self.sh.txns.abort(itxn);
            return Err(e);
        }
        // WAL order: every log record goes out BEFORE any page or
        // RID-Map mutation. If an append fails, the unpublished IMRS
        // copy is freed and nothing else has changed; recovery undoes
        // the logged loser idempotently (`insert_at` no-ops on a live
        // slot), and the append failure turned the engine read-only, so
        // no later winner can free the slot out from under that undo.
        // The reverse order once lost an acknowledged row: the
        // in-memory slot deletion reached the device via eviction while
        // its Delete record died in a torn log tail, leaving no redo
        // anywhere.
        let logged: Result<()> = (|| {
            self.sh.append_sys(&PageLogRecord::Begin { txn: itxn.id })?;
            self.sh.append_sys(&PageLogRecord::Delete {
                txn: itxn.id,
                partition,
                row: row_id,
                page,
                slot,
                old: payload,
            })?;
            self.sh.append_imrs(&ImrsLogRecord::Insert {
                txn: itxn.id,
                ts: ts_mig,
                partition,
                row: row_id,
                origin: origin_tag(origin),
                data: data.clone(),
            })?;
            Ok(())
        })();
        if let Err(e) = logged {
            self.sh.store.remove_row(row_id, || self.sh.clock.now());
            self.sh.txns.abort(itxn);
            return Err(e);
        }
        // Publish the new home FIRST: a concurrent reader that catches
        // the stale Page location finds a dead slot, retries the
        // RID-Map once, and lands here. Deleting the page copy before
        // repointing would leave a window where the row is unreachable.
        self.sh.ridmap.set(row_id, RowLocation::Imrs);
        let key = (table.primary_key)(&data);
        table.hash.insert(&key, row_id);
        // No double buffering (§II): the page copy is removed. A
        // failure here is tolerated rather than propagated — the
        // migration is already durable in both logs, so the stale page
        // copy holds the same committed bytes and redo removes it after
        // a crash; unwinding a logged migration would be worse.
        if let Err(e) = heap.delete(&self.sh.cache, page, slot) {
            self.sh.note_storage_error("migrate-page-delete", &e);
        }
        let commit_ts = self.sh.txns.commit(itxn);
        self.sh.append_sys(&PageLogRecord::Commit {
            txn: itxn.id,
            ts: commit_ts,
        })?;
        self.sh.gc.register(row_id);
        self.sh.metrics.get(partition).rows_in.inc();
        self.sh.obs.record_since(OpClass::Migration, op_start);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Data movement (frozen extent → page store): thaw
    // ------------------------------------------------------------------

    /// Read the current image of a frozen row. `None` when the extent
    /// slot is dead (row thawed concurrently), the extent is unknown,
    /// or the slot holds a different row — all signals to re-resolve
    /// through the RID-Map.
    pub(crate) fn frozen_row_bytes(
        &self,
        table: &TableDesc,
        ext_id: u32,
        idx: u16,
        row_id: RowId,
    ) -> Option<Vec<u8>> {
        let ext = self.sh.extents.get(ext_id)?;
        let i = idx as usize;
        if ext.row_id(i) != Some(row_id) || !ext.is_live(i) {
            return None;
        }
        crate::freeze::extent_row_bytes(table.layout.as_ref(), &ext, i)
    }

    /// Move a frozen row back to a slotted page so the ordinary DML
    /// paths can mutate it. The caller holds the row's exclusive lock.
    /// Runs as an internally-committed mini-transaction (the mirror of
    /// freeze): heap insert first (unpublished), WAL records on both
    /// logs, then RID-Map publication and extent-slot retirement.
    /// Returns the row's new page address, or `None` when the location
    /// changed or the extent slot is already dead.
    fn thaw_frozen(
        &self,
        table: &TableDesc,
        row_id: RowId,
        ext_id: u32,
        idx: u16,
    ) -> Result<Option<(PartitionId, PageId, SlotId)>> {
        self.sh.check_writable()?;
        let Some(ext) = self.sh.extents.get(ext_id) else {
            return Ok(None);
        };
        let i = idx as usize;
        if ext.row_id(i) != Some(row_id) || !ext.is_live(i) {
            return Ok(None);
        }
        let Some(data) = crate::freeze::extent_row_bytes(table.layout.as_ref(), &ext, i) else {
            return Err(BtrimError::Corrupt(format!(
                "frozen row {row_id} unreadable from extent {ext_id} slot {idx}"
            )));
        };
        let partition = ext.partition();
        let heap = table.heap(partition);
        let payload = wrap_row(row_id, &data);
        let itxn = self.sh.txns.begin();
        // The page copy is unpublished until the logs are out (the
        // RID-Map still says Frozen and we hold the exclusive lock), so
        // the same WAL-before-publication discipline as migration holds.
        let (page, slot) = match heap.insert(&self.sh.cache, &payload) {
            Ok(x) => x,
            Err(e) => {
                self.sh.txns.abort(itxn);
                return Err(e);
            }
        };
        let logged: Result<()> = (|| {
            self.sh.append_sys(&PageLogRecord::Begin { txn: itxn.id })?;
            self.sh.append_sys(&PageLogRecord::Insert {
                txn: itxn.id,
                partition,
                row: row_id,
                page,
                slot,
                data: payload,
            })?;
            self.sh.append_imrs(&ImrsLogRecord::ExtentRowGone {
                txn: itxn.id,
                ts: self.sh.clock.now(),
                partition,
                row: row_id,
                extent: ext_id,
                idx,
            })?;
            Ok(())
        })();
        if let Err(e) = logged {
            // Engine just went read-only; best-effort removal of the
            // unpublished page copy (a stale copy is harmless — redo
            // never reaches it because the loser's records are undone).
            let _ = heap.delete(&self.sh.cache, page, slot);
            self.sh.txns.abort(itxn);
            return Err(e);
        }
        // Publish the page home first, then retire the extent slot: a
        // reader that caught the Frozen location either finds the slot
        // still live (same bytes) or retries into the new location.
        self.sh.ridmap.set(row_id, RowLocation::Page(page, slot));
        ext.mark_gone(i);
        let commit_ts = self.sh.txns.commit(itxn);
        self.sh.append_sys(&PageLogRecord::Commit {
            txn: itxn.id,
            ts: commit_ts,
        })?;
        self.sh.freeze.rows_thawed.fetch_add(1, Ordering::Relaxed);
        Ok(Some((partition, page, slot)))
    }

    /// The frozen-extent directory (read-only view for scans, stats,
    /// and tests).
    pub fn extent_store(&self) -> &btrim_pagestore::ExtentStore {
        &self.sh.extents
    }

    /// Freeze/thaw lifetime counters.
    pub fn freeze_stats(&self) -> &crate::freeze::FreezeStats {
        &self.sh.freeze
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    fn ensure_begin(&self, txn: &mut Transaction) -> Result<()> {
        if !txn.wrote_syslog {
            self.sh
                .append_sys(&PageLogRecord::Begin { txn: txn.handle.id })?;
            txn.wrote_syslog = true;
        }
        Ok(())
    }

    /// Commit a transaction, returning its commit timestamp.
    ///
    /// On `Err` the commit was **not acknowledged**: the log write or
    /// flush failed, so after a crash the transaction may or may not
    /// survive (its records may have partially reached the device).
    /// Locks are always released and the engine stays usable; a failed
    /// log *append* additionally turns the engine read-only, because
    /// the log tail may be torn (see [`Shared::append_sys`]).
    pub fn commit(&self, mut txn: Transaction) -> Result<Timestamp> {
        let op_start = self.sh.obs.start();
        let id = txn.handle.id;
        // Reserve the commit timestamp, stamp every artifact the
        // transaction created (version chains, side-store entries),
        // and only then publish the timestamp to the clock. A snapshot
        // reader whose begin-timestamp admits this commit therefore
        // began *after* publication — and publication happens after
        // every stamp, so the reader can never catch a version still
        // carrying the placeholder and wrongly skip (or a side entry
        // still pending and wrongly apply) it.
        let ts = self.sh.txns.reserve_commit();
        for v in txn.to_stamp.drain(..) {
            v.stamp(ts);
        }
        if !txn.side_keys.is_empty() {
            self.sh.side.stamp(&txn.side_keys, id, ts);
        }
        self.sh.txns.finish_commit(txn.handle, ts);
        let wrote_any = txn.wrote_syslog || !txn.imrs_redo.is_empty();
        let logged: Result<()> = (|| {
            if !txn.imrs_redo.is_empty() {
                // The records were serialized at DML time; what's left
                // on the commit path is stamping the commit timestamp
                // into each staged record and slicing the buffer.
                let ser_start = self.sh.obs.start();
                txn.imrs_redo.stamp(ts);
                let records = txn.imrs_redo.records();
                self.sh
                    .obs
                    .record_since(OpClass::CommitSerialize, ser_start);
                if self.sh.cfg.batched_commit {
                    // One atomic batch append: one lock acquisition on
                    // the log, and a torn tail can never keep a prefix
                    // of this transaction's records.
                    self.sh.append_imrs_batch(&records)?;
                } else {
                    // Migration/ablation path: per-record appends, as
                    // the pre-batching pipeline did.
                    for r in &records {
                        self.sh.append_imrs_raw(r)?;
                    }
                }
            }
            if txn.wrote_syslog {
                self.sh.append_sys(&PageLogRecord::Commit { txn: id, ts })?;
            }
            if self.sh.cfg.durable_commits && wrote_any {
                // Group commit: concurrent committers share device
                // syncs. IMRS records are made durable *before* the
                // syslogs Commit record so a durable commit verdict
                // always has durable records behind it. Read-only
                // transactions skip this entirely — they must commit
                // cleanly even when the log device is gone.
                self.sh.group_imrs.commit_flush()?;
                if txn.wrote_syslog {
                    self.sh.group_sys.commit_flush()?;
                }
            }
            Ok(())
        })();
        match &logged {
            Ok(()) => self.sh.note_storage_ok(),
            Err(e) => self.sh.note_storage_error("commit", e),
        }
        // Cleanup happens regardless of the log outcome — a failed
        // commit must never leave its locks behind.
        self.sh.gc.register_many(txn.gc_rows.drain(..));
        self.sh.locks.unlock_all(id, txn.locks.iter());
        txn.locks.clear();
        txn.finished = true;
        // The commit histogram measures the commit itself (stamp, batch
        // append, group flush) on *both* outcomes — failed commits are
        // commits too, and dropping them hid exactly the slow tail
        // (timed-out syncs, dying devices) a latency histogram exists
        // to show. The amortized inline-maintenance tick is timed under
        // its own classes.
        self.sh.obs.record_since(OpClass::Commit, op_start);
        logged?;
        self.maybe_maintenance();
        Ok(ts)
    }

    /// Abort a transaction: undo page-store changes physically, drop
    /// uncommitted IMRS versions, restore index entries.
    pub fn abort(&self, mut txn: Transaction) {
        let id = txn.handle.id;
        // Reverse-order undo.
        let undo: Vec<UndoOp> = txn.undo.drain(..).collect();
        for op in undo.into_iter().rev() {
            self.apply_undo(op);
        }
        for row in txn.touched_imrs.drain(..) {
            self.sh.store.rollback_row(row, id, || self.sh.clock.now());
        }
        // After the page undo restored the before images, the pending
        // stashes are redundant — readers get the same bytes from the
        // pages again.
        if !txn.side_keys.is_empty() {
            self.sh.side.drop_pending(&txn.side_keys, id);
        }
        if txn.wrote_syslog {
            // Best-effort: if the Abort record cannot be written the
            // transaction is classified as a loser at recovery and
            // undone there — same outcome, just more work later.
            let _ = self.sh.append_sys(&PageLogRecord::Abort { txn: id });
        }
        self.sh.txns.abort(txn.handle);
        self.sh.locks.unlock_all(id, txn.locks.iter());
        txn.locks.clear();
        txn.finished = true;
    }

    fn apply_undo(&self, op: UndoOp) {
        match op {
            UndoOp::PageInsert {
                partition,
                page,
                slot,
            } => {
                if let Some(table) = self.sh.catalog.table_of_partition(partition) {
                    let _ = table.heap(partition).delete(&self.sh.cache, page, slot);
                }
            }
            UndoOp::PageUpdate {
                partition,
                page,
                slot,
                old,
            } => {
                if let Some(table) = self.sh.catalog.table_of_partition(partition) {
                    let _ = table
                        .heap(partition)
                        .update(&self.sh.cache, page, slot, &old);
                }
            }
            UndoOp::PageDelete {
                table,
                partition,
                row,
                old,
            } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    if let Ok((p, s)) = table.heap(partition).insert(&self.sh.cache, &old) {
                        self.sh.ridmap.set(row, RowLocation::Page(p, s));
                    }
                }
            }
            UndoOp::PrimaryAdd { table, key } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    let _ = table.primary.delete(&key, None);
                }
            }
            UndoOp::PrimaryRemove { table, key, row } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    let _ = table.primary.insert(&key, row);
                }
            }
            UndoOp::SecondaryAdd {
                table,
                idx,
                key,
                row,
            } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    let secs = table.secondaries.read();
                    if let Some(sec) = secs.get(idx) {
                        let _ = sec.tree.delete(&key, Some(row));
                    }
                }
            }
            UndoOp::SecondaryRemove {
                table,
                idx,
                key,
                row,
            } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    let secs = table.secondaries.read();
                    if let Some(sec) = secs.get(idx) {
                        let _ = sec.tree.insert(&key, row);
                    }
                }
            }
            UndoOp::HashAdd { table, key } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    table.hash.remove(&key);
                }
            }
            UndoOp::HashRemove { table, key, row } => {
                if let Some(table) = self.sh.catalog.table(table) {
                    table.hash.insert(&key, row);
                }
            }
            UndoOp::RidSet { row, prev } => match prev {
                Some(loc) => self.sh.ridmap.set(row, loc),
                None => {
                    self.sh.ridmap.remove(row);
                }
            },
            UndoOp::ImrsNewRow { row } => {
                self.sh.store.remove_row(row, || self.sh.clock.now());
            }
        }
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Run one maintenance pass if due (inline deterministic mode).
    fn maybe_maintenance(&self) {
        if self.sh.background.load(Ordering::Relaxed) {
            return; // background threads own maintenance
        }
        let committed = self.sh.txns.committed_count();
        let last = self.sh.last_maintenance.load(Ordering::Relaxed);
        if committed.saturating_sub(last) < self.sh.cfg.maintenance_interval_txns {
            return;
        }
        if let Some(_gate) = self.sh.maintenance_gate.try_lock() {
            self.sh.last_maintenance.store(committed, Ordering::Relaxed);
            self.run_maintenance();
        }
    }

    /// One full maintenance pass: GC, TSF learning, tuning window,
    /// pack. Public so experiment drivers can tick deterministically.
    pub fn run_maintenance(&self) {
        let sh = &self.sh;
        let oldest = sh.txns.oldest_active_snapshot();
        let gc_start = sh.obs.start();
        sh.gc.tick(
            &sh.store,
            &sh.queues,
            &sh.ridmap,
            oldest,
            || sh.clock.now(),
            16_384,
        );
        // Quarantined version nodes / fragments and side-store images
        // are reclaimed once the snapshot horizon has passed them — no
        // registered reader can still be standing on any of it.
        sh.store.reclaim(oldest);
        sh.side.purge(oldest, &sh.ridmap);
        sh.obs.record_since(OpClass::GcPass, gc_start);
        // The memory arbiter runs in every mode (its no-op guard is the
        // unified budget, not ILM): window-boundary work only, never on
        // the DML path.
        if sh.cfg.arbiter_active() {
            let imrs_partitions: Vec<_> = sh
                .catalog
                .tables()
                .iter()
                .filter(|t| t.imrs_enabled)
                .flat_map(|t| t.partitions.iter().copied())
                .collect();
            sh.arbiter.maybe_run(
                &sh.cfg,
                sh.txns.committed_count(),
                &sh.metrics,
                &imrs_partitions,
                &sh.store,
                &sh.cache,
            );
        }
        if sh.cfg.mode != EngineMode::IlmOn {
            return;
        }
        let committed = sh.txns.committed_count();
        sh.tsf
            .observe(sh.store.utilization(), sh.clock.now(), committed);
        let partitions: Vec<PartitionId> = sh
            .catalog
            .tables()
            .iter()
            .filter(|t| !t.pinned) // pinned tables override ILM tuning (§X)
            .flat_map(|t| t.partitions.clone())
            .collect();
        sh.tuner
            .maybe_run(&sh.cfg, committed, &partitions, &sh.metrics, &sh.store);
        // Pack writes both logs and the page store; a read-only engine
        // skips it (GC, TSF, and tuning above are purely in-memory).
        if sh.health().writable() {
            crate::pack::pack_tick(self);
            // Freeze runs after pack so the rows pack just landed on
            // pages are freeze candidates on a later tick, once cold.
            if sh.cfg.freeze_enabled {
                crate::freeze::freeze_tick(self);
            }
        }
    }

    /// Spawn background maintenance threads (GC + pack). The paper runs
    /// these continuously; inline mode is the deterministic default.
    pub fn spawn_background(&self) {
        self.sh.background.store(true, Ordering::Relaxed);
        let n = self.sh.cfg.pack_threads.max(1);
        let mut threads = self.threads.lock();
        for i in 0..n {
            let sh = Arc::clone(&self.sh);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("btrim-maint-{i}"))
                    .spawn(move || {
                        let engine = Engine {
                            sh,
                            threads: Mutex::new(Vec::new()),
                        };
                        while !engine.sh.stop.load(Ordering::Relaxed) {
                            engine.run_maintenance();
                            // Back off when storage is misbehaving:
                            // hammering a failing device from the
                            // maintenance loop only amplifies the
                            // error storm.
                            let sleep_ms = match engine.sh.health() {
                                HealthState::Healthy => 5,
                                HealthState::Degraded { .. } => 50,
                                HealthState::ReadOnly { .. } => 200,
                            };
                            std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                        }
                    })
                    .expect("spawn maintenance thread"), // lint: allow(no-panic) -- thread spawn fails only on resource exhaustion at startup; an engine without maintenance would silently stop packing
            );
        }
    }

    /// Stop background threads and flush logs + dirty pages.
    pub fn shutdown(&self) -> Result<()> {
        self.sh.background.store(false, Ordering::Relaxed);
        self.sh.stop.store(true, Ordering::Relaxed);
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        self.checkpoint()
    }

    /// Checkpoint: make dirty pages durable and recycle the syslogs
    /// prefix no recovery will ever read. IMRS data is *not* flushed
    /// (§II) — it is recovered from sysimrslogs alone, which therefore
    /// cannot be truncated here.
    ///
    /// With `fuzzy_checkpoint` on (the default) this is the fuzzy
    /// incremental path: writers keep running throughout, pages flush
    /// in small rate-limited batches, and the prefix below the
    /// low-water mark (the first record of the oldest transaction still
    /// alive on the page log) is recycled on *every* checkpoint — not
    /// only when the system happens to be quiesced. With it off, the
    /// legacy stop-the-world record is written and truncation waits for
    /// a quiet instant, as before PR 7.
    pub fn checkpoint(&self) -> Result<()> {
        let result = if self.sh.cfg.fuzzy_checkpoint {
            self.fuzzy_checkpoint()
        } else {
            self.quiesced_checkpoint()
        };
        match &result {
            Ok(()) => self.sh.note_storage_ok(),
            Err(e) => self.sh.note_storage_error("checkpoint", e),
        }
        result
    }

    /// The pre-PR-7 checkpoint: flush everything at once, write the
    /// single legacy `Checkpoint` record, truncate only if quiesced.
    /// Kept as the `fuzzy_checkpoint = false` ablation arm.
    fn quiesced_checkpoint(&self) -> Result<()> {
        let sh = &self.sh;
        let _gate = sh.ckpt_gate.lock();
        sh.cache.flush_all()?;
        let ckpt_lsn = sh.append_sys(&PageLogRecord::Checkpoint)?;
        sh.syslog.flush()?;
        sh.imrslog.flush()?;
        if sh.txns.active_count() == 0 && ckpt_lsn.0 > 0 {
            let upto = ckpt_lsn.0 - 1;
            sh.syslog.sink().truncate_prefix(btrim_common::Lsn(upto))?;
            sh.last_truncate_upto.fetch_max(upto, Ordering::Relaxed);
        }
        sh.ckpt_ordinal.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Fuzzy incremental checkpoint. The ordering below is the whole
    /// correctness argument — each step licenses the next:
    ///
    /// 1. Read the low-water floor: the minimum first-LSN over
    ///    transactions alive on the page log, bounded above by
    ///    `record_count() + 1` (so a transaction that begins *after*
    ///    this read necessarily has all its records above the floor).
    /// 2. Enumerate the dirty-page table **after** the floor read: any
    ///    page dirtied by a record below the floor was mutated before
    ///    its transaction's outcome append, which finished before the
    ///    floor read — so the page is either in this enumeration or
    ///    already clean on disk.
    /// 3. Append `CheckpointBegin { low_water, dirty_pages }`; flush
    ///    the enumerated pages in rate-limited batches — writers keep
    ///    committing and re-dirtying pages the whole time, which is
    ///    fine: redo above the floor covers everything newer.
    /// 4. Sync the page device, then append `CheckpointEnd`. Analysis
    ///    certifies the pair only when End matches Begin, so a crash
    ///    anywhere in between falls back to the previous checkpoint.
    /// 5. Only after End is durable, truncate the prefix below the
    ///    floor: every dropped record is redone (its page is durable)
    ///    and belongs to no transaction that could still need undo.
    fn fuzzy_checkpoint(&self) -> Result<()> {
        let sh = &self.sh;
        let _gate = sh.ckpt_gate.lock();
        let next_lsn = btrim_common::Lsn(sh.syslog.sink().record_count() + 1);
        let floor = {
            let floors = sh.txn_syslog_floor.lock();
            floors
                .values()
                .copied()
                .min()
                .map_or(next_lsn, |m| m.min(next_lsn))
        };
        let dirty = sh.cache.dirty_page_ids();
        let begin_lsn = sh.append_sys(&PageLogRecord::CheckpointBegin {
            low_water: floor,
            dirty_pages: dirty.clone(),
        })?;
        let batch = sh.cfg.checkpoint_flush_batch.max(1);
        let mut pages_flushed = 0u64;
        let mut batches = 0u64;
        let mut stall_nanos = 0u64;
        for chunk in dirty.chunks(batch) {
            let t = sh.obs.start();
            pages_flushed += sh.cache.flush_pages(chunk)? as u64;
            sh.obs.record_since(OpClass::CheckpointFlush, t);
            batches += 1;
            if sh.cfg.checkpoint_batch_pause_us > 0 {
                let pause = std::time::Instant::now();
                std::thread::sleep(std::time::Duration::from_micros(
                    sh.cfg.checkpoint_batch_pause_us,
                ));
                stall_nanos += pause.elapsed().as_nanos() as u64;
            }
        }
        sh.cache.sync_backend()?;
        sh.append_sys(&PageLogRecord::CheckpointEnd { begin_lsn })?;
        sh.syslog.flush()?;
        sh.imrslog.flush()?;
        let mut truncated_records = 0u64;
        if floor.0 > 1 {
            let upto = floor.0 - 1;
            sh.syslog.sink().truncate_prefix(btrim_common::Lsn(upto))?;
            let prev = sh.last_truncate_upto.fetch_max(upto, Ordering::Relaxed);
            truncated_records = upto.saturating_sub(prev);
        }
        let ordinal = sh.ckpt_ordinal.fetch_add(1, Ordering::Relaxed);
        sh.obs
            .trace
            .push(IlmTraceEvent::Checkpoint(CheckpointTrace {
                ordinal,
                dirty_pages: dirty.len() as u64,
                pages_flushed,
                batches,
                low_water_lsn: floor.0,
                truncated_records,
                stall_nanos,
            }));
        Ok(())
    }

    /// Experiment-facing statistics snapshot.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::collect(self)
    }

    /// The observability hub: per-class latency histograms and the ILM
    /// decision trace (drivers read percentiles and recent events from
    /// here; [`EngineSnapshot`] carries a rendered copy).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.sh.obs
    }

    /// Current engine health (storage-error driven).
    pub fn health(&self) -> HealthState {
        self.sh.health()
    }

    /// What the last recovery salvaged/dropped (all-zero on a clean
    /// start or an undamaged recovery).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.sh.recovery.lock().clone()
    }

    /// Pre-warm a table: move every page-store row into the IMRS (the
    /// "pre-warmed IMRS caches" feature the paper's conclusion proposes,
    /// §X). Typically paired with [`TableOpts::pinned`]. Returns the
    /// number of rows brought in; rows that are locked or no longer on a
    /// page are skipped.
    pub fn prewarm(&self, table: &TableDesc) -> Result<usize> {
        let mut warmed = 0;
        for &partition in &table.partitions {
            // Collect RowIds first: moving rows mutates the heap we
            // would otherwise be scanning.
            let mut rows: Vec<RowId> = Vec::new();
            table
                .heap(partition)
                .scan(&self.sh.cache, |_, _, payload| {
                    if let Ok((row_id, _)) = unwrap_row(payload) {
                        rows.push(row_id);
                    }
                    true
                })?;
            for row_id in rows {
                let mover = self.sh.pack.internal_txn_id();
                if !self.sh.locks.try_lock(mover, row_id, LockMode::Exclusive) {
                    continue;
                }
                let moved = self.move_to_imrs_locked(table, partition, row_id, RowOrigin::Cached);
                self.sh.locks.unlock(mover, row_id);
                if matches!(moved, Ok(true)) {
                    warmed += 1;
                }
            }
        }
        Ok(warmed)
    }

    /// Debug dump of a row's physical state (diagnostics only).
    #[doc(hidden)]
    pub fn debug_row(&self, table: &TableDesc, key: &[u8]) -> String {
        let Ok(Some(rid)) = table.primary.get(key) else {
            return "no primary entry".into();
        };
        let loc = self.sh.ridmap.get(rid);
        let chain = self
            .sh
            .store
            .get(rid)
            .map(|r| format!("{:?} last_access={:?}", r.chain_summary(), r.last_access()));
        format!(
            "rid={rid:?} loc={loc:?} chain={chain:?} now={:?}",
            self.sh.clock.now()
        )
    }

    /// Where a row currently lives (introspection: examples, tests,
    /// experiment probes). `None` when the key does not exist.
    pub fn locate(&self, table: &TableDesc, key: &[u8]) -> Result<Option<RowLocation>> {
        match table.primary.get(key)? {
            Some(rid) => Ok(self.sh.ridmap.get(rid)),
            None => Ok(None),
        }
    }

    /// Fig.-8 probe: walk a partition's ILM queue head→tail, split it
    /// into `buckets` equal bands, and report the percentage of *cold*
    /// rows (per the current TSF recency test) in each band. A
    /// well-behaved relaxed LRU queue has cold rows concentrated at the
    /// head (§VIII.D.2).
    pub fn queue_coldness_bands(&self, partition: PartitionId, buckets: usize) -> Vec<f64> {
        let sh = &self.sh;
        let now = sh.clock.now();
        let rows = sh.queues.get(partition).snapshot_all();
        if rows.is_empty() || buckets == 0 {
            return vec![0.0; buckets];
        }
        let flags: Vec<bool> = rows
            .iter()
            .filter_map(|rid| sh.store.get(*rid))
            .map(|row| !sh.tsf.is_recent(row.last_access(), now))
            .collect();
        if flags.is_empty() {
            return vec![0.0; buckets];
        }
        let per = flags.len().div_ceil(buckets);
        (0..buckets)
            .map(|b| {
                let band = &flags[(b * per).min(flags.len())..((b + 1) * per).min(flags.len())];
                if band.is_empty() {
                    0.0
                } else {
                    100.0 * band.iter().filter(|&&c| c).count() as f64 / band.len() as f64
                }
            })
            .collect()
    }
}

pub(crate) fn origin_tag(origin: RowOrigin) -> RowOriginTag {
    match origin {
        RowOrigin::Inserted => RowOriginTag::Inserted,
        RowOrigin::Migrated => RowOriginTag::Migrated,
        RowOrigin::Cached => RowOriginTag::Cached,
    }
}

pub(crate) fn origin_from_tag(tag: RowOriginTag) -> RowOrigin {
    match tag {
        RowOriginTag::Inserted => RowOrigin::Inserted,
        RowOriginTag::Migrated => RowOrigin::Migrated,
        RowOriginTag::Cached => RowOrigin::Cached,
    }
}
