//! The three workloads and one measured run of each.
//!
//! A run builds the engine and loads TPC-C several times (the median
//! load is `setup_s`), warms up, resets the engine's latency
//! histograms, then drives one closed-loop client through
//! `Driver::run_one` for the requested seconds while the coordinator
//! thread only sleeps. After the phase it runs the output checks and,
//! for `oltp_ilm`, crashes the engine and recovers it. Maintenance
//! always runs inline on the committing client (no background
//! threads), the engine's deterministic default.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use btrim_core::{
    Engine, EngineConfig, EngineMode, EngineSnapshot, HistogramSnapshot, OpClass, RecoveryReport,
    ScanResult,
};
use btrim_pagestore::MemDisk;
use btrim_tpcc::analytics;
use btrim_tpcc::driver::Driver;
use btrim_tpcc::loader::{load, LoadSpec};
use btrim_tpcc::schema::Tables;
use btrim_tpcc::txns::Outcome;
use btrim_wal::MemLog;

use crate::checks;
use crate::devices::{Count, Disk, Log};
use crate::stats::{self, percentile, Report};
use crate::trace::{self, Kind};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ILM_ON, 12 MiB IMRS, a cache that fits, one client, then a
    /// crash and recovery.
    OltpIlm,
    /// Page store only, 256 frames against ~25 MiB of pages, one
    /// client.
    OltpPage,
    /// `OltpIlm`'s engine with freeze on, one client plus one thread
    /// running analytic scans, one scan in every three time units.
    Htap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::OltpIlm, Workload::OltpPage, Workload::Htap];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpIlm => "oltp_ilm",
            Workload::OltpPage => "oltp_page",
            Workload::Htap => "htap",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scanner(self) -> bool {
        self == Workload::Htap
    }

    fn restart(self) -> bool {
        self == Workload::OltpIlm
    }

    /// The engine configuration: the figures' ILM_ON tuner settings,
    /// with the per-workload changes on top.
    pub fn config(self) -> EngineConfig {
        let ilm = EngineConfig {
            mode: EngineMode::IlmOn,
            imrs_budget: 12 * 1024 * 1024,
            imrs_chunk_size: 2 * 1024 * 1024,
            buffer_frames: 8192,
            steady_utilization: 0.70,
            maintenance_interval_txns: 64,
            tuning_window_txns: 2_000,
            tuning_utilization_floor: 0.80,
            hysteresis_windows: 3,
            low_reuse_threshold: 4.0,
            ..Default::default()
        };
        match self {
            Workload::OltpIlm => ilm,
            Workload::OltpPage => EngineConfig {
                mode: EngineMode::PageOnly,
                buffer_frames: 256,
                ..ilm
            },
            Workload::Htap => EngineConfig {
                freeze_enabled: true,
                ..ilm
            },
        }
    }
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: picks every transaction and its inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// TPC-C population, including its fixed load seed.
    pub spec: LoadSpec,
    /// Engine builds + loads timed for `setup_s`.
    pub setups: usize,
    /// Transactions run before measuring.
    pub warmup_txns: u64,
    /// Where the traced run writes its span file.
    pub span_dir: PathBuf,
}

impl Params {
    /// The benchmark's scale: 2 warehouses, 1,000 items, 120 customers
    /// and orders per district, load seed fixed.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Params {
        Params {
            workload,
            seed,
            seconds,
            trace,
            spec: LoadSpec {
                warehouses: 2,
                items: 1_000,
                customers_per_district: 120,
                orders_per_district: 120,
                seed: 0xB7B1,
            },
            setups: 3,
            warmup_txns: 2_000,
            span_dir: PathBuf::from("perfbench/out"),
        }
    }
}

/// A loaded database over counting devices.
struct Db {
    engine: Arc<Engine>,
    tables: Arc<Tables>,
    disk: Arc<Disk>,
    sys: Arc<Log>,
    imrs: Arc<Log>,
}

fn setup(cfg: &EngineConfig, spec: &LoadSpec) -> Db {
    let disk = Arc::new(Disk::new(Arc::new(MemDisk::new())));
    let sys = Arc::new(Log::sys(Arc::new(MemLog::new())));
    let imrs = Arc::new(Log::imrs(Arc::new(MemLog::new())));
    let engine = Arc::new(Engine::with_devices(
        cfg.clone(),
        disk.clone(),
        sys.clone(),
        imrs.clone(),
    ));
    let tables = Arc::new(load(&engine, spec).expect("load TPC-C"));
    Db {
        engine,
        tables,
        disk,
        sys,
        imrs,
    }
}

/// Device counters at one instant.
#[derive(Clone, Copy, Default)]
struct Devices {
    reads: Count,
    writes: Count,
    sys: Count,
    imrs: Count,
    flushes: u64,
}

impl Devices {
    fn of(db: &Db) -> Devices {
        Devices {
            reads: db.disk.reads.get(),
            writes: db.disk.writes.get(),
            sys: db.sys.appends.get(),
            imrs: db.imrs.appends.get(),
            flushes: db.sys.flushes.get().calls + db.imrs.flushes.get().calls,
        }
    }

    fn since(self, e: Devices) -> Devices {
        Devices {
            reads: self.reads.since(e.reads),
            writes: self.writes.since(e.writes),
            sys: self.sys.since(e.sys),
            imrs: self.imrs.since(e.imrs),
            flushes: self.flushes - e.flushes,
        }
    }
}

const TYPE_NAMES: [&str; 5] = [
    "new_order",
    "payment",
    "order_status",
    "delivery",
    "stock_level",
];

/// Span tags, `<type>:<outcome>`, indexed `[type][outcome]`.
const TXN_TAGS: [[&str; 3]; 5] = [
    [
        "new_order:committed",
        "new_order:user_abort",
        "new_order:engine_abort",
    ],
    [
        "payment:committed",
        "payment:user_abort",
        "payment:engine_abort",
    ],
    [
        "order_status:committed",
        "order_status:user_abort",
        "order_status:engine_abort",
    ],
    [
        "delivery:committed",
        "delivery:user_abort",
        "delivery:engine_abort",
    ],
    [
        "stock_level:committed",
        "stock_level:user_abort",
        "stock_level:engine_abort",
    ],
];

const COMMITTED: u8 = 0;
const USER_ABORT: u8 = 1;
const ENGINE_ABORT: u8 = 2;

/// One `run_one` call.
#[derive(Clone, Copy)]
struct TxnRec {
    ty: u8,
    outcome: u8,
    /// Tracing was on when the call returned.
    traced: bool,
    ns: u64,
}

/// One analytic scan.
struct ScanRec {
    ns: u64,
    result: ScanResult,
}

/// What the measured phase produced.
struct Phase {
    txns: Vec<TxnRec>,
    attempts: u64,
    /// The htap scanner's scans (none on the other workloads).
    scans: Scans,
    elapsed: Duration,
    /// Time with tracing on and off (traced run only).
    traced_time: Duration,
    untraced_time: Duration,
    cpu_us: u64,
}

impl Phase {
    fn count(&self, outcome: u8) -> u64 {
        self.txns.iter().filter(|t| t.outcome == outcome).count() as u64
    }

    fn committed(&self) -> u64 {
        self.count(COMMITTED)
    }

    fn txn_per_s(&self) -> f64 {
        self.committed() as f64 / self.elapsed.as_secs_f64()
    }

    /// Commit rate in the traced or the untraced slices.
    fn txn_per_s_when(&self, traced: bool) -> f64 {
        let n = self
            .txns
            .iter()
            .filter(|t| t.traced == traced && t.outcome == COMMITTED)
            .count();
        let time = if traced {
            self.traced_time
        } else {
            self.untraced_time
        };
        ratio(n as f64, time.as_secs_f64())
    }

    /// Sorted latencies (ns) of the calls `keep` selects.
    fn latencies(&self, keep: impl Fn(&TxnRec) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self.txns.iter().filter(|t| keep(t)).map(|t| t.ns).collect();
        v.sort_unstable();
        v
    }
}

fn client(driver: &Driver, seed: u64, stop: &AtomicBool, attempts: &AtomicU64) -> Vec<TxnRec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recs = Vec::with_capacity(1 << 16);
    while !stop.load(Ordering::Relaxed) {
        let t = Driver::pick(&mut rng);
        // Declaration order, which `TYPE_NAMES` follows.
        let ty = t as u8;
        attempts.fetch_add(1, Ordering::Relaxed);
        let span = trace::open(Kind::Txn);
        let start = Instant::now();
        let outcome = match driver.run_one(t, &mut rng) {
            Outcome::Committed => COMMITTED,
            Outcome::UserAbort => USER_ABORT,
            Outcome::EngineAbort => ENGINE_ABORT,
        };
        let ns = start.elapsed().as_nanos() as u64;
        span.close(TXN_TAGS[ty as usize][outcome as usize]);
        let traced = trace::enabled();
        recs.push(TxnRec {
            ty,
            outcome,
            traced,
            ns,
        });
    }
    recs
}

/// Delivered-quantity scans over `order_line`, each at a fresh
/// snapshot. Order lines are never deleted, so `rows_scanned` must not
/// shrink from one scan to the next.
#[derive(Default)]
struct Scans {
    recs: Vec<ScanRec>,
    failed: u64,
    problems: Vec<String>,
}

impl Scans {
    fn scan(&mut self, engine: &Engine, tables: &Tables) {
        let span = trace::open(Kind::Scan);
        let start = Instant::now();
        let snap = engine.begin_snapshot();
        let result = analytics::delivered_quantity(engine, &snap, tables);
        engine.end_snapshot(snap);
        let ns = start.elapsed().as_nanos() as u64;
        span.close("delivered_quantity");
        match result {
            Ok(result) => {
                if let Some(prev) = self.recs.last() {
                    if result.rows_scanned < prev.result.rows_scanned {
                        self.problems.push(format!(
                            "analytic_scan rows_scanned fell from {} to {}",
                            prev.result.rows_scanned, result.rows_scanned
                        ));
                    }
                }
                self.recs.push(ScanRec { ns, result });
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("analytic_scan failed: {e}"));
            }
        }
    }
}

/// The client's RNG seed: the workload seed, mixed so nearby seeds
/// give unrelated streams.
fn client_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03
}

/// Run `txns` transactions, unmeasured, from the client's seed stream
/// complemented (so the measured phase does not replay them).
fn warm_up(driver: &Driver, seed: u64, txns: u64) {
    let mut rng = StdRng::seed_from_u64(!client_seed(seed));
    for _ in 0..txns {
        let t = Driver::pick(&mut rng);
        driver.run_one(t, &mut rng);
    }
}

/// After each scan the htap scanner sleeps this many times the scan's
/// duration.
const SCAN_PAUSE: u32 = 2;

/// Length of one slice of the traced run: tracing is switched on and
/// off every slice, so traced and untraced commit rates are taken
/// under the same host conditions.
const TRACE_SLICE: Duration = Duration::from_millis(100);

/// The measured phase: the client (and the htap scanner) run until
/// `seconds` have passed on the coordinator's clock; CPU time and the
/// elapsed time are both taken at that instant. In the traced run the
/// coordinator toggles tracing every [`TRACE_SLICE`].
fn measure(db: &Db, driver: &Driver, p: &Params) -> Phase {
    let w = p.workload;
    let stop = AtomicBool::new(false);
    let attempts = AtomicU64::new(0);
    let length = Duration::from_secs_f64(p.seconds);
    let mut times = [Duration::ZERO; 2];
    let cpu0 = stats::process_cpu_us();
    let t0 = Instant::now();
    trace::set_enabled(p.trace);
    let (txns, scans, elapsed, cpu_us) = std::thread::scope(|s| {
        let client = s.spawn(|| client(driver, client_seed(p.seed), &stop, &attempts));
        let scan = w.scanner().then(|| {
            s.spawn(|| {
                // One scan in three time units: with two busy threads on
                // two CPUs, any CPU the host takes away halved the
                // client's throughput; the pause keeps headroom.
                let mut scans = Scans::default();
                while !stop.load(Ordering::Relaxed) {
                    scans.scan(&db.engine, &db.tables);
                    if let Some(last) = scans.recs.last() {
                        std::thread::sleep(Duration::from_nanos(last.ns) * SCAN_PAUSE);
                    }
                }
                scans
            })
        });
        let mut slice_start = t0;
        loop {
            let left = length.saturating_sub(t0.elapsed());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(TRACE_SLICE));
            if p.trace {
                let on = trace::enabled();
                let now = Instant::now();
                times[on as usize] += now - slice_start;
                slice_start = now;
                trace::set_enabled(!on);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        let cpu_us = stats::process_cpu_us() - cpu0;
        trace::set_enabled(false);
        let txns = client.join().expect("client thread panicked");
        let scans = scan
            .map(|h| h.join().expect("scanner thread panicked"))
            .unwrap_or_default();
        (txns, scans, elapsed, cpu_us)
    });
    Phase {
        txns,
        attempts: attempts.into_inner(),
        scans,
        elapsed,
        untraced_time: times[0],
        traced_time: times[1],
        cpu_us,
    }
}

/// Every 7th customer of each district is compared across a restart.
const CUSTOMER_STRIDE: u32 = 7;

/// The result of a crash and `Engine::recover` over the same devices.
struct Restart {
    seconds: f64,
    error: Option<String>,
    problems: Vec<String>,
    report: RecoveryReport,
}

/// Crash the engine (drop it without shutdown) and recover it from
/// its devices; compare district counters and sampled customers with
/// their images from before the crash.
fn crash_and_recover(db: Db, driver: Driver, p: &Params) -> Restart {
    let before = checks::restart_images(
        &db.engine,
        &db.tables,
        p.spec.warehouses,
        p.spec.customers_per_district,
        CUSTOMER_STRIDE,
    )
    .expect("read restart images");
    drop(driver);
    let Db {
        engine,
        tables,
        disk,
        sys,
        imrs,
    } = db;
    drop(tables);
    assert_eq!(
        Arc::strong_count(&engine),
        1,
        "the engine has no other owner"
    );
    drop(engine);

    let mut recovered_tables = None;
    let span = trace::open(Kind::Recover);
    let start = Instant::now();
    let result = Engine::recover(p.workload.config(), disk, sys, imrs, |e| {
        recovered_tables = Some(Tables::create(e, p.spec.warehouses)?);
        Ok(())
    });
    let seconds = start.elapsed().as_secs_f64();
    span.close(if result.is_ok() { "ok" } else { "error" });
    match (result, recovered_tables) {
        (Ok(engine), Some(tables)) => {
            let problems = match checks::restart_images(
                &engine,
                &tables,
                p.spec.warehouses,
                p.spec.customers_per_district,
                CUSTOMER_STRIDE,
            ) {
                Ok(after) => checks::compare_images(&before, &after),
                Err(e) => vec![format!("reading the recovered database failed: {e}")],
            };
            Restart {
                seconds,
                error: None,
                problems,
                report: engine.recovery_report(),
            }
        }
        (Ok(_), None) => unreachable!("recover ran the schema closure"),
        (Err(e), _) => Restart {
            seconds,
            error: Some(e.to_string()),
            problems: Vec::new(),
            report: RecoveryReport::default(),
        },
    }
}

/// Engine histograms since their reset, by class.
fn histograms(engine: &Engine) -> Vec<(OpClass, HistogramSnapshot)> {
    OpClass::ALL
        .iter()
        .map(|&c| (c, engine.obs().hist(c).snapshot()))
        .collect()
}

fn reset_histograms(engine: &Engine) {
    for c in OpClass::ALL {
        engine.obs().hist(c).reset();
    }
}

/// Run one workload end to end and report its metrics: the end-to-end
/// set, or with `p.trace` the per-layer set.
pub fn run(p: &Params) -> Report {
    let started = Instant::now();
    let cfg = p.workload.config();
    let mut setup_times = Vec::new();
    let mut build = || {
        let start = Instant::now();
        let db = setup(&cfg, &p.spec);
        setup_times.push(start.elapsed().as_secs_f64());
        db
    };
    // Every build is timed; the last one is measured.
    for _ in 1..p.setups {
        drop(build());
    }
    let db = build();
    stage(started, "set-up done");
    let driver = Driver::new(db.engine.clone(), db.tables.clone(), &p.spec);
    warm_up(&driver, p.seed, p.warmup_txns);
    stage(started, "warm-up done");
    // Peak memory after a fixed amount of work: the in-memory logs
    // grow with every commit, so a peak taken after a timed phase
    // would follow the run's throughput.
    let peak_rss_mib = stats::peak_rss_mib();
    reset_histograms(&db.engine);
    let snap0 = db.engine.snapshot();
    let dev0 = Devices::of(&db);

    let phase = measure(&db, &driver, p);
    stage(started, "measured phase done");

    let snap1 = db.engine.snapshot();
    let dev = Devices::of(&db).since(dev0);
    let hists = histograms(&db.engine);

    let mut problems = phase.scans.problems.clone();
    // Every attempt ends in exactly one outcome, and the engine's own
    // transaction counters agree with the client's outcomes (its
    // commit count may be higher: freeze commits internal
    // transactions of its own).
    let aborts = phase.count(USER_ABORT) + phase.count(ENGINE_ABORT);
    if phase.committed() + aborts != phase.attempts {
        problems.push(format!(
            "{} attempts but {} commits + {aborts} aborts",
            phase.attempts,
            phase.committed()
        ));
    }
    let engine_counts = (
        snap1.committed_txns - snap0.committed_txns,
        snap1.aborted_txns - snap0.aborted_txns,
    );
    if engine_counts.0 < phase.committed() || engine_counts.1 != aborts {
        problems.push(format!(
            "engine counted (commits, aborts) = {engine_counts:?}, the client {:?}",
            (phase.committed(), aborts)
        ));
    }
    match checks::tpcc_consistency(&db.engine, &db.tables, p.spec.warehouses) {
        Ok(bad) => problems.extend(bad),
        Err(e) => problems.push(format!("consistency check could not run: {e}")),
    }
    match checks::scan_matches_oracle(&db.engine, &db.tables) {
        Ok(bad) => problems.extend(bad),
        Err(e) => problems.push(format!("scan oracle could not run: {e}")),
    }
    stage(started, "output checks done");
    let restart = p.workload.restart().then(|| {
        trace::set_enabled(p.trace);
        let r = crash_and_recover(db, driver, p);
        trace::set_enabled(false);
        r
    });
    if let Some(r) = &restart {
        stage(started, "restart done");
        problems.extend(r.problems.iter().cloned());
        if let Some(e) = &r.error {
            eprintln!("restart failed: Engine::recover returned: {e}");
        }
    }

    // The workload's operations are its transactions and scans. The
    // restart is a check made after them: a recovery error is reported
    // in `restart_failures` and printed above, not counted here.
    let scans = &phase.scans;
    let mut report = Report {
        correct: problems.is_empty(),
        attempted: phase.attempts + scans.recs.len() as u64 + scans.failed,
        failed: phase.count(ENGINE_ABORT) + scans.failed,
        metrics: Vec::new(),
        problems,
    };
    let m = Measured {
        phase: &phase,
        snap0: &snap0,
        snap1: &snap1,
        dev,
        hists: &hists,
        restart: restart.as_ref(),
        peak_rss_mib,
    };
    if p.trace {
        m.per_layer(&mut report);
        // One file per workload, overwritten by its next traced run,
        // so repeated runs do not pile up tens of MiB each.
        let (spans, dropped) = trace::drain();
        let path = p.span_dir.join(format!("spans-{}.tsv", p.workload.name()));
        match trace::write_tsv(&path, &spans, dropped) {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write span file {}: {e}", path.display()),
        }
    } else {
        report.put("setup_s", stats::median(&setup_times), "s");
        m.end_to_end(&mut report);
    }
    report
}

/// Progress line on standard error.
fn stage(started: Instant, what: &str) {
    eprintln!(
        "perfbench: {:7.2} s  {what}",
        started.elapsed().as_secs_f64()
    );
}

const MIB: f64 = 1024.0 * 1024.0;

/// Everything the metrics are computed from.
struct Measured<'a> {
    phase: &'a Phase,
    snap0: &'a EngineSnapshot,
    snap1: &'a EngineSnapshot,
    dev: Devices,
    hists: &'a [(OpClass, HistogramSnapshot)],
    restart: Option<&'a Restart>,
    peak_rss_mib: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Measured<'_> {
    fn hist(&self, c: OpClass) -> &HistogramSnapshot {
        &self
            .hists
            .iter()
            .find(|(k, _)| *k == c)
            .expect("every class is snapshotted")
            .1
    }

    fn imrs_hit_rate(&self) -> f64 {
        let imrs = (self.snap1.imrs_ops - self.snap0.imrs_ops) as f64;
        let page = (self.snap1.page_ops - self.snap0.page_ops) as f64;
        ratio(imrs, imrs + page)
    }

    fn fail_frac(&self) -> f64 {
        ratio(
            self.phase.count(ENGINE_ABORT) as f64,
            self.phase.attempts as f64,
        )
    }

    fn end_to_end(&self, r: &mut Report) {
        let ph = self.phase;
        let committed = ph.committed() as f64;
        let all = ph.latencies(|_| true);
        let of = |ty: u8| ph.latencies(|t| t.ty == ty);
        r.put("txn_per_s", ph.txn_per_s(), "txn/s");
        r.put("txn_p50_us", us(percentile(&all, 50.0)), "us");
        r.put("new_order_p95_us", us(percentile(&of(0), 95.0)), "us");
        r.put("payment_p95_us", us(percentile(&of(1), 95.0)), "us");
        r.put("cpu_us_per_txn", ratio(ph.cpu_us as f64, committed), "us");
        r.put("peak_rss_mib", self.peak_rss_mib, "MiB");
        r.put(
            "log_bytes_per_txn",
            ratio((self.dev.sys.bytes + self.dev.imrs.bytes) as f64, committed),
            "B",
        );
    }

    fn per_layer(&self, r: &mut Report) {
        let ph = self.phase;
        let (s0, s1) = (self.snap0, self.snap1);

        // tpcc: the `Driver::run_one` boundary.
        for (ty, name) in TYPE_NAMES.iter().enumerate() {
            let v = ph.latencies(|t| t.ty == ty as u8);
            r.put(
                format!("tpcc.{name}.p50_us"),
                us(percentile(&v, 50.0)),
                "us",
            );
        }
        // The p99s sit where inline maintenance (every 64th commit)
        // and, on htap, waits behind the scanner start: a steep part
        // of the tail, too unsteady from run to run to bound, so they
        // are reported here.
        r.put(
            "txn_p99_us",
            us(percentile(&ph.latencies(|_| true), 99.0)),
            "us",
        );
        for (ty, name) in [(0, "new_order_p99_us"), (1, "payment_p99_us")] {
            let v = ph.latencies(|t| t.ty == ty);
            r.put(name, us(percentile(&v, 99.0)), "us");
        }
        r.put("tpcc.user_aborts", ph.count(USER_ABORT) as f64, "count");
        // Client-side engine work: the ISUD classes, commit, and the
        // inline maintenance commits run. Classes nested inside these
        // (commit_serialize, wal_append, buffer_miss_fetch, migration)
        // and the scanner's classes are left out to avoid counting
        // twice; device calls all happen inside them.
        let engine_ns: u64 = [
            OpClass::InsertImrs,
            OpClass::InsertPage,
            OpClass::SelectImrs,
            OpClass::SelectPage,
            OpClass::UpdateImrs,
            OpClass::UpdatePage,
            OpClass::DeleteImrs,
            OpClass::DeletePage,
            OpClass::Commit,
            OpClass::GcPass,
            OpClass::TuningWindow,
            OpClass::PackCycle,
        ]
        .iter()
        .map(|&c| self.hist(c).sum)
        .sum();
        let run_one_ns: u64 = ph.txns.iter().map(|t| t.ns).sum();
        r.put(
            "trace.coverage",
            ratio(engine_ns as f64, run_one_ns as f64),
            "frac",
        );
        r.put(
            "trace.overhead_frac",
            1.0 - ratio(ph.txn_per_s_when(true), ph.txn_per_s_when(false)),
            "frac",
        );
        r.put("imrs_hit_rate", self.imrs_hit_rate(), "frac");
        r.put("imrs_mib", s1.imrs_used_bytes as f64 / MIB, "MiB");
        r.put("fail_frac", self.fail_frac(), "frac");

        // core: one line per operation class.
        for c in CORE_CLASSES {
            let h = self.hist(c);
            r.put(format!("core.{}.count", c.name()), h.count as f64, "count");
            r.put(format!("core.{}.busy_ms", c.name()), ms(h.sum), "ms");
            r.put(
                format!("core.{}.p99_us", c.name()),
                us(h.quantile(0.99)),
                "us",
            );
        }

        // core maintenance.
        let gc = self.hist(OpClass::GcPass);
        r.put("gc.busy_ms", ms(gc.sum), "ms");
        r.put(
            "gc.bytes_freed",
            (s1.gc_bytes_freed - s0.gc_bytes_freed) as f64,
            "B",
        );
        let pack = self.hist(OpClass::PackCycle);
        r.put(
            "pack.cycles",
            (s1.pack_cycles - s0.pack_cycles) as f64,
            "count",
        );
        r.put(
            "pack.bytes",
            (s1.bytes_packed - s0.bytes_packed) as f64,
            "B",
        );
        r.put("pack.busy_ms", ms(pack.sum), "ms");
        r.put("pack.p99_ms", ms(pack.quantile(0.99)), "ms");
        let packed = (s1.rows_packed - s0.rows_packed) as f64;
        let skipped = (s1.rows_skipped_hot - s0.rows_skipped_hot) as f64;
        r.put("pack.useful_frac", ratio(packed, packed + skipped), "frac");
        r.put(
            "tuner.windows",
            (s1.tuning_windows - s0.tuning_windows) as f64,
            "count",
        );
        let toggles = |s: &EngineSnapshot| -> u64 {
            s.tables
                .iter()
                .flat_map(|t| &t.partitions)
                .map(|p| p.ilm_toggles)
                .sum()
        };
        r.put("tuner.toggles", (toggles(s1) - toggles(s0)) as f64, "count");
        r.put("imrs.utilization", s1.imrs_utilization, "frac");
        let rows_in = |s: &EngineSnapshot| -> u64 {
            s.tables
                .iter()
                .flat_map(|t| &t.partitions)
                .map(|p| p.rows_in)
                .sum()
        };
        r.put("imrs.rows_in", (rows_in(s1) - rows_in(s0)) as f64, "count");

        // pagestore: buffer cache and disk.
        let (b0, b1) = (&s0.buffer, &s1.buffer);
        let hits = (b1.hits - b0.hits) as f64;
        let misses = (b1.misses - b0.misses) as f64;
        r.put("buffer.hit_rate", ratio(hits, hits + misses), "frac");
        r.put("buffer.misses", misses, "count");
        r.put(
            "buffer.evictions",
            (b1.evictions - b0.evictions) as f64,
            "count",
        );
        r.put("buffer.flushes", (b1.flushes - b0.flushes) as f64, "count");
        r.put(
            "buffer.miss_p50_us",
            us(self.hist(OpClass::BufferMiss).quantile(0.5)),
            "us",
        );
        r.put(
            "buffer.latch_contention",
            (b1.latch_contention - b0.latch_contention) as f64,
            "count",
        );
        r.put(
            "buffer.shard_lock_contention",
            (b1.shard_lock_contention - b0.shard_lock_contention) as f64,
            "count",
        );
        r.put(
            "buffer.io_waits",
            (b1.io_waits - b0.io_waits) as f64,
            "count",
        );
        let d = self.dev;
        r.put("disk.reads", d.reads.calls as f64, "count");
        r.put("disk.writes", d.writes.calls as f64, "count");
        r.put("disk.read_busy_ms", d.reads.busy_ms(), "ms");
        r.put("disk.write_busy_ms", d.writes.busy_ms(), "ms");

        // wal.
        for (name, c) in [("sys", d.sys), ("imrs", d.imrs)] {
            r.put(format!("wal.{name}.appends"), c.calls as f64, "count");
            r.put(format!("wal.{name}.bytes"), c.bytes as f64, "B");
            r.put(format!("wal.{name}.append_busy_ms"), c.busy_ms(), "ms");
        }
        r.put("wal.flushes", d.flushes as f64, "count");

        // txn: engine aborts and the time they wasted.
        r.put("txn.engine_aborts", ph.count(ENGINE_ABORT) as f64, "count");
        let aborted_ns: u64 = ph
            .txns
            .iter()
            .filter(|t| t.outcome == ENGINE_ABORT)
            .map(|t| t.ns)
            .sum();
        r.put("txn.aborted_busy_ms", ms(aborted_ns), "ms");

        // core scan, freeze and side store.
        let scanned: u64 = ph.scans.recs.iter().map(|s| s.result.rows_scanned).sum();
        let part = |f: fn(&ScanResult) -> u64| -> f64 {
            ratio(
                ph.scans.recs.iter().map(|s| f(&s.result)).sum::<u64>() as f64,
                scanned as f64,
            )
        };
        r.put(
            "scan.rows",
            ratio(scanned as f64, ph.scans.recs.len() as f64),
            "count",
        );
        let mut scan_ns: Vec<u64> = ph.scans.recs.iter().map(|s| s.ns).collect();
        scan_ns.sort_unstable();
        r.put("scan_p50_ms", ms(percentile(&scan_ns, 50.0)), "ms");
        r.put("scan_p90_ms", ms(percentile(&scan_ns, 90.0)), "ms");
        r.put("scan.frozen_frac", part(|s| s.frozen_rows), "frac");
        r.put("scan.imrs_frac", part(|s| s.imrs_rows), "frac");
        r.put("scan.page_frac", part(|s| s.page_rows), "frac");
        r.put(
            "freeze.rows_frozen",
            (s1.rows_frozen - s0.rows_frozen) as f64,
            "count",
        );
        r.put(
            "freeze.rows_thawed",
            (s1.rows_thawed - s0.rows_thawed) as f64,
            "count",
        );
        r.put(
            "freeze.compression",
            ratio(s1.frozen_raw_bytes as f64, s1.frozen_encoded_bytes as f64),
            "x",
        );
        r.put("side_store.mib", s1.side_store_bytes as f64 / MIB, "MiB");

        // core recovery.
        let rep = self.restart.map(|x| x.report.clone()).unwrap_or_default();
        r.put("recovery_s", self.restart.map_or(0.0, |x| x.seconds), "s");
        r.put(
            "restart_failures",
            self.restart
                .map_or(0.0, |x| x.error.is_some() as u64 as f64),
            "count",
        );
        r.put(
            "recovery.analysis_ms",
            rep.analysis_micros as f64 / 1e3,
            "ms",
        );
        r.put(
            "recovery.page_redo_ms",
            rep.page_redo_micros as f64 / 1e3,
            "ms",
        );
        r.put(
            "recovery.heap_rebuild_ms",
            rep.heap_rebuild_micros as f64 / 1e3,
            "ms",
        );
        r.put(
            "recovery.imrs_replay_ms",
            rep.imrs_replay_micros as f64 / 1e3,
            "ms",
        );
        r.put(
            "recovery.imrs_records",
            rep.imrs_records_replayed as f64,
            "count",
        );
    }
}

/// The operation classes reported one by one under `core.`.
const CORE_CLASSES: [OpClass; 12] = [
    OpClass::InsertImrs,
    OpClass::InsertPage,
    OpClass::SelectImrs,
    OpClass::SelectPage,
    OpClass::UpdateImrs,
    OpClass::UpdatePage,
    OpClass::DeleteImrs,
    OpClass::DeletePage,
    OpClass::Commit,
    OpClass::CommitSerialize,
    OpClass::Migration,
    OpClass::SnapshotRead,
];
