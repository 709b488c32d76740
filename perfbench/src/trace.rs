//! In-memory span recorder for the traced run.
//!
//! Spans are taken only at the benchmark's own call sites: around
//! `Driver::run_one`, `Engine::analytic_scan`, `Engine::recover`, and
//! every device call made through the wrappers in [`crate::devices`].
//! A thread-local span id names the transaction a device call belongs
//! to, so each call's span points at the `run_one` span that caused it
//! (parent 0: no enclosing span, e.g. a recovery replay worker thread
//! the engine spawned itself).
//!
//! Recording is off unless [`set_enabled`] switched it on; the disabled
//! path is one relaxed load and a branch.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Spans kept for the span file; later spans still feed every counter
/// and busy-time total but are not written out.
pub const SPAN_CAP: usize = 1 << 20;

/// What a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `Driver::run_one` call.
    Txn,
    /// One `Engine::analytic_scan` call.
    Scan,
    /// One `Engine::recover` call.
    Recover,
    /// `DiskBackend::read_page`.
    DiskRead,
    /// `DiskBackend::write_page`.
    DiskWrite,
    /// `DiskBackend::allocate_page`.
    DiskAlloc,
    /// `DiskBackend::sync`.
    DiskSync,
    /// `LogSink::append` or `append_batch` on the page-store log.
    SysAppend,
    /// `LogSink::append` or `append_batch` on the IMRS log.
    ImrsAppend,
    /// `LogSink::flush` on either log.
    LogFlush,
    /// `LogSink::read_all` on either log (recovery).
    LogRead,
    /// `LogSink::truncate_prefix` on either log (checkpoint).
    LogTruncate,
}

impl Kind {
    /// Name used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "run_one",
            Kind::Scan => "analytic_scan",
            Kind::Recover => "recover",
            Kind::DiskRead => "disk.read",
            Kind::DiskWrite => "disk.write",
            Kind::DiskAlloc => "disk.alloc",
            Kind::DiskSync => "disk.sync",
            Kind::SysAppend => "wal.sys.append",
            Kind::ImrsAppend => "wal.imrs.append",
            Kind::LogFlush => "wal.flush",
            Kind::LogRead => "wal.read_all",
            Kind::LogTruncate => "wal.truncate",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// This span's id (unique within the process, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 if none.
    pub parent: u64,
    /// What was timed.
    pub kind: Kind,
    /// Free-form tag, e.g. `new_order:committed`.
    pub tag: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes moved by a device call (0 for other spans).
    pub bytes: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Sink> = Mutex::new(Sink {
    spans: Vec::new(),
    dropped: 0,
});

struct Sink {
    spans: Vec<Span>,
    dropped: u64,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch recording on or off.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn push(span: Span) {
    let mut sink = SINK
        .lock()
        .expect("span sink poisoned by a panicking recorder");
    if sink.spans.len() < SPAN_CAP {
        sink.spans.push(span);
    } else {
        sink.dropped += 1;
    }
}

/// An open span; device calls made on this thread until [`Open::close`]
/// name it as their parent.
pub struct Open {
    id: u64,
    parent: u64,
    kind: Kind,
    start: Instant,
}

/// Open a span of `kind` on this thread (a no-op id 0 when recording
/// is off, so closing it records nothing).
pub fn open(kind: Kind) -> Open {
    let start = Instant::now();
    if !enabled() {
        return Open {
            id: 0,
            parent: 0,
            kind,
            start,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Open {
        id,
        parent,
        kind,
        start,
    }
}

impl Open {
    /// Close the span with a tag and restore the enclosing span.
    pub fn close(self, tag: &'static str) {
        if self.id == 0 {
            return;
        }
        let dur = self.start.elapsed();
        CURRENT.with(|c| c.set(self.parent));
        push(Span {
            id: self.id,
            parent: self.parent,
            kind: self.kind,
            tag,
            start_ns: since_epoch(self.start),
            dur_ns: dur.as_nanos() as u64,
            bytes: 0,
        });
    }
}

/// Record a finished leaf span (a device call) under this thread's
/// current span.
pub fn leaf(kind: Kind, start: Instant, dur: Duration, bytes: u64) {
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: CURRENT.with(|c| c.get()),
        kind,
        tag: "",
        start_ns: since_epoch(start),
        dur_ns: dur.as_nanos() as u64,
        bytes,
    });
}

/// Take every recorded span and the count that did not fit.
pub fn drain() -> (Vec<Span>, u64) {
    let mut sink = SINK
        .lock()
        .expect("span sink poisoned by a panicking recorder");
    let dropped = std::mem::take(&mut sink.dropped);
    (std::mem::take(&mut sink.spans), dropped)
}

/// Write spans as tab-separated text, one span a line, after a header.
pub fn write_tsv(path: &Path, spans: &[Span], dropped: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# spans not kept (over {SPAN_CAP}): {dropped}")?;
    writeln!(out, "id\tparent\tkind\ttag\tstart_ns\tdur_ns\tbytes")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.kind.name(),
            s.tag,
            s.start_ns,
            s.dur_ns,
            s.bytes
        )?;
    }
    out.flush()
}
