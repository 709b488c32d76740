//! Counting, optionally timing wrappers over the engine's devices.
//!
//! The benchmark hands these to `Engine::with_devices` and
//! `Engine::recover` in place of bare `MemDisk`/`MemLog` handles. Every
//! call is always counted (calls and bytes); the clock is read only
//! while [`trace::enabled`] is on, so an untraced run pays one branch
//! per call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use btrim_common::{Lsn, PageId, Result};
use btrim_pagestore::{DiskBackend, PAGE_SIZE};
use btrim_wal::{LogSink, LsnRange};

use crate::trace::{self, Kind};

/// Calls, bytes and (traced) busy time at one device entry point.
#[derive(Default)]
pub struct Counter {
    calls: AtomicU64,
    bytes: AtomicU64,
    traced_calls: AtomicU64,
    busy_ns: AtomicU64,
}

/// A point-in-time copy of a [`Counter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Count {
    /// Calls made.
    pub calls: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Calls made while tracing was on.
    pub traced_calls: u64,
    /// Nanoseconds inside those traced calls.
    pub busy_ns: u64,
}

impl Count {
    /// Growth since an earlier copy.
    pub fn since(self, earlier: Count) -> Count {
        Count {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            traced_calls: self.traced_calls - earlier.traced_calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    /// Time busy in milliseconds over every call: the mean traced call
    /// times the number of calls (0 when no call was traced).
    pub fn busy_ms(self) -> f64 {
        if self.traced_calls == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / self.traced_calls as f64 * self.calls as f64 / 1e6
    }
}

impl Counter {
    /// Current totals.
    pub fn get(&self) -> Count {
        Count {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            traced_calls: self.traced_calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Count one call of `bytes` and run it, timing it into a span
    /// when tracing is on.
    #[inline]
    fn call<T>(&self, kind: Kind, bytes: u64, f: impl FnOnce() -> T) -> T {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if !trace::enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.traced_calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        trace::leaf(kind, start, dur, bytes);
        out
    }
}

/// A page device wrapper.
pub struct Disk {
    inner: Arc<dyn DiskBackend>,
    /// `read_page` calls.
    pub reads: Counter,
    /// `write_page` calls.
    pub writes: Counter,
    /// `allocate_page` and `sync` calls.
    pub other: Counter,
}

impl Disk {
    /// Wrap a device.
    pub fn new(inner: Arc<dyn DiskBackend>) -> Self {
        Disk {
            inner,
            reads: Counter::default(),
            writes: Counter::default(),
            other: Counter::default(),
        }
    }
}

impl DiskBackend for Disk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.reads.call(Kind::DiskRead, PAGE_SIZE as u64, || {
            self.inner.read_page(id, buf)
        })
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.writes.call(Kind::DiskWrite, PAGE_SIZE as u64, || {
            self.inner.write_page(id, buf)
        })
    }

    fn allocate_page(&self) -> Result<PageId> {
        self.other
            .call(Kind::DiskAlloc, 0, || self.inner.allocate_page())
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        self.other.call(Kind::DiskSync, 0, || self.inner.sync())
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

/// A log device wrapper; `append_kind` tells the page-store log from
/// the IMRS log in spans.
pub struct Log {
    inner: Arc<dyn LogSink>,
    append_kind: Kind,
    /// `append` and `append_batch` calls (a batch is one call); bytes
    /// are payload bytes.
    pub appends: Counter,
    /// `flush` calls.
    pub flushes: Counter,
    /// `read_all` and `truncate_prefix` calls.
    pub other: Counter,
}

impl Log {
    /// Wrap the page-store log.
    pub fn sys(inner: Arc<dyn LogSink>) -> Self {
        Self::new(inner, Kind::SysAppend)
    }

    /// Wrap the IMRS log.
    pub fn imrs(inner: Arc<dyn LogSink>) -> Self {
        Self::new(inner, Kind::ImrsAppend)
    }

    fn new(inner: Arc<dyn LogSink>, append_kind: Kind) -> Self {
        Log {
            inner,
            append_kind,
            appends: Counter::default(),
            flushes: Counter::default(),
            other: Counter::default(),
        }
    }
}

impl LogSink for Log {
    fn append(&self, payload: &[u8]) -> Result<Lsn> {
        self.appends
            .call(self.append_kind, payload.len() as u64, || {
                self.inner.append(payload)
            })
    }

    fn append_batch(&self, payloads: &[&[u8]]) -> Result<LsnRange> {
        let bytes = payloads.iter().map(|p| p.len() as u64).sum();
        self.appends.call(self.append_kind, bytes, || {
            self.inner.append_batch(payloads)
        })
    }

    fn flush(&self) -> Result<()> {
        self.flushes.call(Kind::LogFlush, 0, || self.inner.flush())
    }

    fn read_all(&self) -> Result<Vec<(Lsn, Vec<u8>)>> {
        self.other.call(Kind::LogRead, 0, || self.inner.read_all())
    }

    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    fn byte_size(&self) -> u64 {
        self.inner.byte_size()
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<()> {
        self.other
            .call(Kind::LogTruncate, 0, || self.inner.truncate_prefix(upto))
    }
}
