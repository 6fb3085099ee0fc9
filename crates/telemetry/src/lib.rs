//! # sct-telemetry
//!
//! A `std`-only metrics layer for the pitchfork engine: a process-wide
//! [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s, and
//! **log-bucketed latency [`Histogram`]s**, plus a line-oriented JSONL
//! [`TraceWriter`] for structured run traces.
//!
//! # Design
//!
//! * **Histograms are log-bucketed** with fixed power-of-two boundaries
//!   in nanoseconds: bucket 0 counts zero-duration observations, bucket
//!   `i` (for `i >= 1`) counts values in `[2^(i-1), 2^i)`. Boundaries
//!   never move, so snapshots taken at different times (or merged from
//!   different threads) stay comparable, and a percentile readout is a
//!   single cumulative scan ([`MetricSnapshot::percentile_ns`]).
//! * **Recording is lock-free.** The shared [`Histogram`] uses relaxed
//!   atomics; the hot paths go further and batch into a thread-owned
//!   [`LocalHist`] — plain integer bumps, no shared cache line —
//!   **flushed on drop** (and optionally every N records).
//! * **Registration is get-or-create by name.** Metric structs are
//!   leaked on first registration so call sites can hold a
//!   `&'static Histogram` in a `LazyLock` and pay the registry lock
//!   exactly once per process.
//! * **A kill switch.** `SCT_TELEMETRY=0` (or `off`/`false`) in the
//!   environment disables span timing at the source: [`enabled`] is a
//!   single atomic load, and [`span_start`] returns `None` without
//!   touching the clock. [`set_enabled`] flips it at runtime (used by
//!   the A/B throughput gate in CI).
//!
//! # Exposition
//!
//! [`render_prometheus`] renders a snapshot in Prometheus text format:
//! `_bucket{le="..."}` cumulative series, `_sum` / `_count`, and a
//! human-oriented summary comment per histogram
//! (`# name p50=... p90=... p99=... max=...`). Metric names may embed a
//! label set (`worker_busy_ns{worker="0"}`); the renderer folds extra
//! labels into the series it derives.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Fixed bucket count of every [`Histogram`]. The top bucket is
/// open-ended; bucket 38's upper bound is 2^38 ns ≈ 4.6 minutes, far
/// beyond any single span this engine times.
pub const BUCKETS: usize = 40;

/// The bucket index an observation of `ns` nanoseconds lands in:
/// bucket 0 for `ns == 0`, otherwise `1 + floor(log2 ns)`, clamped to
/// the open-ended top bucket.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// The exclusive upper bound of bucket `i` in nanoseconds (`0` maps to
/// the zero bucket's inclusive bound, the top bucket to `u64::MAX`).
pub fn bucket_upper_ns(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= BUCKETS - 1 => u64::MAX,
        _ => 1u64 << i,
    }
}

// ----- enable switch ------------------------------------------------------

fn env_enabled() -> bool {
    match std::env::var("SCT_TELEMETRY") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false"),
        Err(_) => true,
    }
}

static ENABLED: LazyLock<AtomicBool> = LazyLock::new(|| AtomicBool::new(env_enabled()));

/// Whether span timing is on (default yes; `SCT_TELEMETRY=0` in the
/// environment starts it off).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span timing on or off at runtime; returns the previous value.
/// Metrics already recorded stay in the registry either way.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::Relaxed)
}

// ----- the span clock -----------------------------------------------------

/// A reading of the span clock, which times the hot-path spans (solver
/// checks, state expansions). On x86-64 it is the CPU's time-stamp
/// counter, read without a fence: half the cost of `Instant::now()`,
/// whose fenced read also drains the pipeline. Ticks convert to
/// nanoseconds at a rate measured once per process against `Instant`.
/// Elsewhere it counts nanoseconds since a process origin.
#[derive(Clone, Copy, Debug)]
pub struct SpanStamp(u64);

impl SpanStamp {
    /// The span clock now.
    #[inline]
    pub fn now() -> SpanStamp {
        SpanStamp(span_ticks())
    }

    /// Nanoseconds from `self` to `later` (0 if `later` reads earlier).
    #[inline]
    pub fn ns_until(self, later: SpanStamp) -> u64 {
        (later.0.saturating_sub(self.0) as f64 * *NS_PER_TICK) as u64
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn span_ticks() -> u64 {
    // SAFETY: every x86-64 CPU has `rdtsc`, which only reads a counter.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn span_ticks() -> u64 {
    static ORIGIN: LazyLock<Instant> = LazyLock::new(Instant::now);
    saturating_ns(ORIGIN.elapsed())
}

/// Nanoseconds per span-clock tick, measured against `Instant` on first
/// use by spinning for 20 µs.
static NS_PER_TICK: LazyLock<f64> = LazyLock::new(|| {
    let (start, ticks) = (Instant::now(), span_ticks());
    while start.elapsed() < Duration::from_micros(20) {
        std::hint::spin_loop();
    }
    let ticks = span_ticks().saturating_sub(ticks).max(1);
    start.elapsed().as_nanos() as f64 / ticks as f64
});

/// Start a span: `Some(now)` when telemetry is enabled, `None` (no
/// clock read) when it is off.
#[inline]
pub fn span_start() -> Option<SpanStamp> {
    enabled().then(SpanStamp::now)
}

/// Nanoseconds elapsed since a [`span_start`], or `None` if the span
/// never started (telemetry off at the time).
#[inline]
pub fn span_ns(start: Option<SpanStamp>) -> Option<u64> {
    start.map(|t| t.ns_until(SpanStamp::now()))
}

/// A `Duration` as saturating nanoseconds.
#[inline]
pub fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ----- metric primitives --------------------------------------------------

/// A monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge.
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-bucketed latency histogram (see [`bucket_of`] for the bucket
/// layout). All updates are relaxed atomics; for per-thread batching
/// use [`LocalHist`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Exemplar: the job id supplied with the max observation (0 =
    /// none — job ids start at 1), so a p99/max spike links back to a
    /// concrete submission.
    max_job: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            max_job: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.observe_ns_tagged(ns, 0);
    }

    /// Record one observation of `ns` nanoseconds tagged with the job
    /// id it came from: when this observation is the new maximum, the
    /// family's exemplar follows it. (The untagged form passes job 0 =
    /// "no exemplar", keeping the invariant that `max_job` always
    /// describes the max observation.)
    #[inline]
    pub fn observe_ns_tagged(&self, ns: u64, job: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        let prev = self.max_ns.fetch_max(ns, Ordering::Relaxed);
        if ns >= prev {
            // Benign race: a concurrent equal-or-larger observation may
            // overwrite; either exemplar is a genuine max-tier sample.
            self.max_job.store(job, Ordering::Relaxed);
        }
    }

    /// Record one observation of a `Duration`.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(saturating_ns(d));
    }

    /// Merge a batch of pre-bucketed observations (a [`LocalHist`]
    /// flush) in one pass. `max_job` is the exemplar tag of the
    /// batch's `max_ns` observation.
    pub fn merge(
        &self,
        buckets: &[u64; BUCKETS],
        count: u64,
        sum_ns: u64,
        max_ns: u64,
        max_job: u64,
    ) {
        if count == 0 {
            return;
        }
        for (slot, &n) in self.buckets.iter().zip(buckets.iter()) {
            if n != 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_ns.fetch_add(sum_ns, Ordering::Relaxed);
        let prev = self.max_ns.fetch_max(max_ns, Ordering::Relaxed);
        if max_ns >= prev {
            self.max_job.store(max_job, Ordering::Relaxed);
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the bucket counts and aggregates
    /// (relaxed reads; concurrent recording may skew `count` vs the
    /// bucket sum by in-flight observations).
    pub fn snapshot(&self, name: &str) -> MetricSnapshot {
        MetricSnapshot {
            name: name.to_string(),
            kind: MetricKind::Histogram,
            value: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            max_job: self.max_job.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A thread-owned accumulation buffer in front of a shared
/// [`Histogram`]: recording is plain integer arithmetic, and the batch
/// is folded into the shared atomics on [`LocalHist::flush`] — called
/// automatically every `flush_every` records (if nonzero) and **on
/// drop**, mirroring how `sct-symx`'s per-thread stats are published.
pub struct LocalHist {
    target: &'static Histogram,
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    max_job: u64,
    flush_every: u64,
}

impl LocalHist {
    /// A buffer that publishes only on explicit flush / drop.
    pub fn new(target: &'static Histogram) -> LocalHist {
        LocalHist::with_auto_flush(target, 0)
    }

    /// A buffer that additionally publishes every `every` records
    /// (`0` = never), bounding how stale a concurrent snapshot can be.
    pub fn with_auto_flush(target: &'static Histogram, every: u64) -> LocalHist {
        LocalHist {
            target,
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            max_job: 0,
            flush_every: every,
        }
    }

    /// Record one observation of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.record_ns_tagged(ns, 0);
    }

    /// Record one observation tagged with the job id it came from
    /// (see [`Histogram::observe_ns_tagged`]).
    #[inline]
    pub fn record_ns_tagged(&mut self, ns: u64, job: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        if ns >= self.max_ns {
            self.max_ns = ns;
            self.max_job = job;
        }
        if self.flush_every != 0 && self.count >= self.flush_every {
            self.flush();
        }
    }

    /// Record one observation of a `Duration`.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(saturating_ns(d));
    }

    /// Publish the buffered batch to the shared histogram and reset.
    pub fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        self.target
            .merge(&self.buckets, self.count, self.sum_ns, self.max_ns, self.max_job);
        self.buckets = [0; BUCKETS];
        self.count = 0;
        self.sum_ns = 0;
        self.max_ns = 0;
        self.max_job = 0;
    }
}

impl Drop for LocalHist {
    fn drop(&mut self) {
        self.flush();
    }
}

// ----- registry -----------------------------------------------------------

/// What a [`MetricSnapshot`] describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Log-bucketed histogram.
    Histogram,
}

impl MetricKind {
    /// The wire name (`counter` / `gauge` / `histogram`).
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Parse a wire name (inverse of [`MetricKind::name`]).
    pub fn parse(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// A point-in-time copy of one metric, flat and wire-friendly: for
/// counters and gauges only `value` is meaningful; for histograms
/// `value` is the observation count and `buckets` has [`BUCKETS`]
/// entries (tolerant consumers accept fewer).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricSnapshot {
    /// Registered name (may embed a `{label="..."}` set).
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Counter/gauge value; histogram observation count.
    pub value: u64,
    /// Histogram: sum of observed nanoseconds.
    pub sum_ns: u64,
    /// Histogram: largest observed value in nanoseconds.
    pub max_ns: u64,
    /// Histogram: exemplar job id of the `max_ns` observation (`0` =
    /// untagged; job ids start at 1).
    pub max_job: u64,
    /// Histogram bucket counts (non-cumulative), `[]` otherwise.
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    /// The upper bound (ns) of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`), capped at the exact observed maximum. `0` for
    /// an empty histogram.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean observed nanoseconds (`0` for an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.value).unwrap_or(0)
    }
}

/// A process-wide, name-keyed collection of metrics. Get-or-create
/// registration; every lookup after the first can be cached in a
/// `&'static` at the call site.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    hists: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production code uses
    /// [`global`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = lock(&self.counters);
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Counter::default())))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = lock(&self.gauges);
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = lock(&self.hists);
        map.entry(name.to_string())
            .or_insert_with(|| Box::leak(Box::new(Histogram::default())))
    }

    /// Snapshot every registered metric, sorted by name (counters and
    /// gauges as single values, histograms with their buckets).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut out: Vec<MetricSnapshot> = Vec::new();
        for (name, c) in lock(&self.counters).iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                kind: MetricKind::Counter,
                value: c.get(),
                sum_ns: 0,
                max_ns: 0,
                max_job: 0,
                buckets: Vec::new(),
            });
        }
        for (name, g) in lock(&self.gauges).iter() {
            out.push(MetricSnapshot {
                name: name.clone(),
                kind: MetricKind::Gauge,
                value: g.get(),
                sum_ns: 0,
                max_ns: 0,
                max_job: 0,
                buckets: Vec::new(),
            });
        }
        for (name, h) in lock(&self.hists).iter() {
            out.push(h.snapshot(name));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

static GLOBAL: LazyLock<MetricsRegistry> = LazyLock::new(MetricsRegistry::default);

/// The process-wide registry every engine layer records into.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Shorthand for [`global`]`.counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Shorthand for [`global`]`.gauge(name)`.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Shorthand for [`global`]`.histogram(name)`.
pub fn histogram(name: &str) -> &'static Histogram {
    global().histogram(name)
}

/// The canonical metric names the engine records (the pitchfork crate
/// docs carry the full table).
pub mod names {
    /// `Solver::check` latency, answered from a memo layer (thread
    /// cache or stripe hit).
    pub const SOLVER_CHECK_HIT: &str = "solver_check_hit_ns";
    /// `Solver::check` latency through the full pipeline (memo miss).
    pub const SOLVER_CHECK_MISS: &str = "solver_check_miss_ns";
    /// Per-state expansion latency in the explorer (serial and
    /// parallel engines).
    pub const STATE_EXPAND: &str = "state_expand_ns";
    /// Latency of one steal attempt (`grab_batch`) in the
    /// work-stealing engine.
    pub const STEAL_ATTEMPT: &str = "steal_attempt_ns";
    /// Daemon job queue-wait latency (submit → dequeue).
    pub const JOB_QUEUE_WAIT: &str = "job_queue_wait_ns";
    /// Daemon job run latency (dequeue → finished).
    pub const JOB_RUN: &str = "job_run_ns";
    /// Entries whose baseline verdict an incremental run replayed
    /// without exploring (fingerprint unchanged).
    pub const INCR_REUSE_TOTAL: &str = "incr_reuse_total";
    /// Entries an incremental run re-explored (dirty or new
    /// fingerprint).
    pub const INCR_REANALYZED_TOTAL: &str = "incr_reanalyzed_total";
    /// Arena nodes dropped by reachability pruning when a baseline
    /// snapshot was persisted.
    pub const INCR_PRUNE_NODES: &str = "incr_prune_nodes";
    /// Faults the `sct-faults` injector has fired (all points summed;
    /// zero in any run without an armed `SCT_FAULTS` plan).
    pub const FAULT_INJECTED: &str = "fault_injected_total";
    /// Corrupt cache snapshots / baselines quarantined with a `.bad`
    /// rename and degraded to a cold start.
    pub const CACHE_QUARANTINED: &str = "cache_quarantined_total";

    /// Nanoseconds worker `i` spent expanding states.
    pub fn worker_busy(i: usize) -> String {
        format!("worker_busy_ns{{worker=\"{i}\"}}")
    }

    /// Nanoseconds worker `i` spent hunting for work (steal sweeps).
    pub fn worker_steal(i: usize) -> String {
        format!("worker_steal_ns{{worker=\"{i}\"}}")
    }

    /// Nanoseconds worker `i` spent parked on the idle condvar.
    pub fn worker_parked(i: usize) -> String {
        format!("worker_parked_ns{{worker=\"{i}\"}}")
    }

    /// Corpus shards the fleet coordinator dispatched to worker `i`.
    pub fn fleet_dispatch(i: usize) -> String {
        format!("fleet_dispatch_total{{worker=\"{i}\"}}")
    }

    /// Shard attempts the coordinator retried after worker `i` died or
    /// errored.
    pub fn fleet_retry(i: usize) -> String {
        format!("fleet_retry_total{{worker=\"{i}\"}}")
    }

    /// End-to-end shard latency (submit → terminal status) on worker
    /// `i`, as observed by the coordinator.
    pub fn fleet_shard(i: usize) -> String {
        format!("fleet_shard_ns{{worker=\"{i}\"}}")
    }
}

// ----- Prometheus-style exposition ---------------------------------------

fn family_of(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(name[i + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

fn series(family: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let mut all = String::new();
    if let Some(l) = labels {
        all.push_str(l);
    }
    if let Some(e) = extra {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str(e);
    }
    if all.is_empty() {
        format!("{family}{suffix}")
    } else {
        format!("{family}{suffix}{{{all}}}")
    }
}

/// Render a registry snapshot in Prometheus text exposition format.
/// Histograms become cumulative `_bucket{le="..."}` series plus `_sum`
/// and `_count`, each preceded by a `# name p50=... p90=... p99=...
/// max=... mean=...` summary comment (with a ` max_job=N` exemplar tag
/// when the max observation was recorded with a job id); counters and
/// gauges are single sample lines. Output order follows the (sorted) snapshot, so the
/// format is stable run to run.
pub fn render_prometheus(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for s in snaps {
        let (family, labels) = family_of(&s.name);
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} {}", s.kind.name());
            last_family = family.to_string();
        }
        match s.kind {
            MetricKind::Counter | MetricKind::Gauge => {
                let _ = writeln!(out, "{} {}", s.name, s.value);
            }
            MetricKind::Histogram => {
                let exemplar = if s.max_job != 0 {
                    format!(" max_job={}", s.max_job)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "# {} p50={} p90={} p99={} max={} mean={} count={}{}",
                    s.name,
                    s.percentile_ns(0.50),
                    s.percentile_ns(0.90),
                    s.percentile_ns(0.99),
                    s.max_ns,
                    s.mean_ns(),
                    s.value,
                    exemplar,
                );
                let mut cumulative = 0u64;
                let last_nonzero = s.buckets.iter().rposition(|&n| n != 0).unwrap_or(0);
                for (i, &n) in s.buckets.iter().enumerate().take(last_nonzero + 1) {
                    cumulative += n;
                    let le = format!("le=\"{}\"", bucket_upper_ns(i));
                    let _ = writeln!(
                        out,
                        "{} {}",
                        series(family, "_bucket", labels, Some(&le)),
                        cumulative
                    );
                }
                let _ = writeln!(
                    out,
                    "{} {}",
                    series(family, "_bucket", labels, Some("le=\"+Inf\"")),
                    s.value
                );
                let _ = writeln!(out, "{} {}", series(family, "_sum", labels, None), s.sum_ns);
                let _ = writeln!(out, "{} {}", series(family, "_count", labels, None), s.value);
            }
        }
    }
    out
}

/// Render what moved between two scrapes of the same registry — the
/// payload behind `pitchfork metrics --watch N`. One line per changed
/// metric, in `cur`'s order:
///
/// - counters: `name +delta (rate/s)`;
/// - gauges: `name value (was old)`;
/// - histograms: `name +count obs (mean of new = X ns)` from the
///   count/sum deltas.
///
/// Unchanged metrics are skipped, so an idle daemon renders to an
/// empty string; metrics absent from `prev` (registered between
/// scrapes) delta against zero. `elapsed_secs` only scales the rate
/// column.
pub fn render_delta(prev: &[MetricSnapshot], cur: &[MetricSnapshot], elapsed_secs: f64) -> String {
    let old: std::collections::BTreeMap<&str, &MetricSnapshot> =
        prev.iter().map(|s| (s.name.as_str(), s)).collect();
    let mut out = String::new();
    for s in cur {
        let before = old.get(s.name.as_str());
        let prev_value = before.map_or(0, |p| p.value);
        match s.kind {
            MetricKind::Counter => {
                let delta = s.value.saturating_sub(prev_value);
                if delta == 0 {
                    continue;
                }
                let rate = if elapsed_secs > 0.0 {
                    delta as f64 / elapsed_secs
                } else {
                    0.0
                };
                let _ = writeln!(out, "{} +{delta} ({rate:.1}/s)", s.name);
            }
            MetricKind::Gauge => {
                if before.is_some() && s.value == prev_value {
                    continue;
                }
                let _ = writeln!(out, "{} {} (was {prev_value})", s.name, s.value);
            }
            MetricKind::Histogram => {
                let count = s.value.saturating_sub(prev_value);
                if count == 0 {
                    continue;
                }
                let sum = s
                    .sum_ns
                    .saturating_sub(before.map_or(0, |p| p.sum_ns));
                let _ = writeln!(
                    out,
                    "{} +{count} obs (mean of new = {} ns)",
                    s.name,
                    sum / count.max(1),
                );
            }
        }
    }
    out
}

// ----- JSONL trace writer -------------------------------------------------

/// A value in a trace record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on write).
    Str(String),
}

impl TraceValue {
    fn write_to(&self, out: &mut String) {
        match self {
            TraceValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            TraceValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            TraceValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            TraceValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// An append-only JSONL trace: one provenance header line (manifest
/// style, like the repo's `audit.jsonl`) followed by one record per
/// event, each stamped with a millisecond timestamp **relative to the
/// writer's creation** (`t_ms`), so traces are diffable across runs.
/// Shared by reference across threads; each record is written and
/// flushed under one short lock.
pub struct TraceWriter {
    inner: Mutex<BufWriter<File>>,
    origin: Instant,
}

impl TraceWriter {
    /// Open `path` for append and write the provenance header:
    /// `{"ts": <unix-seconds>, "kind": "trace", <header fields>}`.
    pub fn create(path: &Path, header: &[(&str, TraceValue)]) -> io::Result<TraceWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let writer = TraceWriter {
            inner: Mutex::new(BufWriter::new(file)),
            origin: Instant::now(),
        };
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut line = format!("{{\"ts\": {ts}, \"kind\": \"trace\"");
        for (k, v) in header {
            let _ = write!(line, ", \"{k}\": ");
            v.write_to(&mut line);
        }
        line.push('}');
        writer.write_line(&line)?;
        Ok(writer)
    }

    /// Milliseconds since the writer was created (the `t_ms` clock).
    pub fn elapsed_ms(&self) -> u64 {
        self.origin.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Append one record: `{"t_ms": ..., "event": ..., ["job": ...,]
    /// <fields>}`. Errors are swallowed — tracing must never take the
    /// analysis down.
    pub fn record(&self, job: Option<u64>, event: &str, fields: &[(&str, TraceValue)]) {
        let mut line = format!("{{\"t_ms\": {}, \"event\": ", self.elapsed_ms());
        TraceValue::Str(event.to_string()).write_to(&mut line);
        if let Some(id) = job {
            let _ = write!(line, ", \"job\": {id}");
        }
        for (k, v) in fields {
            let _ = write!(line, ", \"{k}\": ");
            v.write_to(&mut line);
        }
        line.push('}');
        let _ = self.write_line(&line);
    }

    fn write_line(&self, line: &str) -> io::Result<()> {
        let mut w = lock(&self.inner);
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every non-top bucket's values are below its upper bound and
        // at least half of it.
        for i in 1..BUCKETS - 1 {
            let upper = bucket_upper_ns(i);
            assert_eq!(bucket_of(upper - 1), i);
            assert_eq!(bucket_of(upper / 2), i);
            assert_eq!(bucket_of(upper), i + 1);
        }
    }

    #[test]
    fn render_delta_shows_only_what_moved() {
        let snap = |name: &str, kind: MetricKind, value: u64, sum_ns: u64| MetricSnapshot {
            name: name.to_string(),
            kind,
            value,
            sum_ns,
            max_ns: 0,
            max_job: 0,
            buckets: Vec::new(),
        };
        let prev = vec![
            snap("jobs_total", MetricKind::Counter, 10, 0),
            snap("idle_total", MetricKind::Counter, 4, 0),
            snap("queue_depth", MetricKind::Gauge, 3, 0),
            snap("run_ns", MetricKind::Histogram, 2, 1_000),
        ];
        let cur = vec![
            snap("jobs_total", MetricKind::Counter, 16, 0),
            snap("idle_total", MetricKind::Counter, 4, 0),
            snap("queue_depth", MetricKind::Gauge, 3, 0),
            snap("run_ns", MetricKind::Histogram, 4, 5_000),
            snap("born_total", MetricKind::Counter, 2, 0),
        ];
        let text = render_delta(&prev, &cur, 3.0);
        assert!(text.contains("jobs_total +6 (2.0/s)"), "{text}");
        // Untouched counter and gauge render nothing.
        assert!(!text.contains("idle_total"), "{text}");
        assert!(!text.contains("queue_depth"), "{text}");
        // Histogram delta: 2 new observations averaging 2000 ns.
        assert!(text.contains("run_ns +2 obs (mean of new = 2000 ns)"), "{text}");
        // A metric born between scrapes deltas against zero.
        assert!(text.contains("born_total +2"), "{text}");
        // Nothing moved → empty string.
        assert_eq!(render_delta(&cur, &cur, 1.0), "");
    }

    #[test]
    fn percentiles_read_bucket_upper_bounds() {
        let h = Histogram::default();
        // 90 fast observations (~500ns), 10 slow (~1ms).
        for _ in 0..90 {
            h.observe_ns(500);
        }
        for _ in 0..10 {
            h.observe_ns(1_000_000);
        }
        let s = h.snapshot("t");
        assert_eq!(s.value, 100);
        assert_eq!(s.percentile_ns(0.50), 512);
        assert_eq!(s.percentile_ns(0.90), 512);
        // p99 falls in the 2^20 bucket; capped at the true max.
        assert_eq!(s.percentile_ns(0.99), 1_000_000.min(s.max_ns));
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.mean_ns(), (90 * 500 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::default().snapshot("t");
        assert_eq!(s.percentile_ns(0.5), 0);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn local_hist_flushes_on_drop() {
        let target: &'static Histogram = Box::leak(Box::new(Histogram::default()));
        {
            let mut local = LocalHist::new(target);
            local.record_ns(100);
            local.record_ns(200);
            assert_eq!(target.count(), 0, "nothing published before drop");
        }
        assert_eq!(target.count(), 2);
        let s = target.snapshot("t");
        assert_eq!(s.sum_ns, 300);
        assert_eq!(s.max_ns, 200);
    }

    #[test]
    fn max_observation_carries_its_job_exemplar() {
        let h = Histogram::default();
        h.observe_ns_tagged(100, 3);
        h.observe_ns_tagged(900, 7);
        h.observe_ns_tagged(500, 11);
        let s = h.snapshot("t");
        assert_eq!(s.max_ns, 900);
        assert_eq!(s.max_job, 7, "exemplar follows the max observation");
        // Untagged observations report job 0 = no exemplar.
        h.observe_ns(5_000);
        assert_eq!(h.snapshot("t").max_job, 0);
        // The exposition summary shows the tag only when nonzero.
        let tagged = Histogram::default();
        tagged.observe_ns_tagged(42, 9);
        let text = render_prometheus(&[tagged.snapshot("job_run_ns")]);
        assert!(text.contains("max_job=9"), "missing exemplar in:\n{text}");
        let text = render_prometheus(&[h.snapshot("t")]);
        assert!(!text.contains("max_job"), "untagged exemplar leaked into:\n{text}");
    }

    #[test]
    fn local_hist_batches_preserve_the_exemplar() {
        let target: &'static Histogram = Box::leak(Box::new(Histogram::default()));
        let mut local = LocalHist::new(target);
        local.record_ns_tagged(300, 2);
        local.record_ns_tagged(800, 5);
        local.record_ns_tagged(100, 8);
        local.flush();
        let s = target.snapshot("t");
        assert_eq!(s.max_ns, 800);
        assert_eq!(s.max_job, 5);
        // A later batch with a smaller max does not steal the exemplar.
        local.record_ns_tagged(400, 13);
        local.flush();
        assert_eq!(target.snapshot("t").max_job, 5);
    }

    #[test]
    fn local_hist_auto_flush_threshold() {
        let target: &'static Histogram = Box::leak(Box::new(Histogram::default()));
        let mut local = LocalHist::with_auto_flush(target, 4);
        for _ in 0..7 {
            local.record_ns(1);
        }
        assert_eq!(target.count(), 4, "one threshold flush published");
        drop(local);
        assert_eq!(target.count(), 7);
    }

    #[test]
    fn registry_get_or_create_and_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter("b_counter").add(3);
        r.counter("b_counter").inc();
        r.gauge("c_gauge").set(9);
        r.histogram("a_hist").observe_ns(5);
        let snaps = r.snapshot();
        let names: Vec<&str> = snaps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a_hist", "b_counter", "c_gauge"]);
        assert_eq!(snaps[1].value, 4);
        assert_eq!(snaps[2].value, 9);
        assert_eq!(snaps[0].buckets.len(), BUCKETS);
    }

    #[test]
    fn exposition_is_stable_and_cumulative() {
        let r = MetricsRegistry::new();
        r.counter("requests_total").add(2);
        let h = r.histogram("lat_ns");
        h.observe_ns(3); // bucket 2
        h.observe_ns(5); // bucket 3
        h.observe_ns(5);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"8\"} 3\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_ns_sum 13\n"));
        assert!(text.contains("lat_ns_count 3\n"));
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 2\n"));
        // Rendering twice is byte-identical (stable format).
        assert_eq!(text, render_prometheus(&r.snapshot()));
    }

    #[test]
    fn labeled_counter_renders_label_set_verbatim() {
        let r = MetricsRegistry::new();
        r.counter(&names::worker_busy(0)).add(7);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE worker_busy_ns counter"));
        assert!(text.contains("worker_busy_ns{worker=\"0\"} 7\n"));
    }

    #[test]
    fn trace_writer_header_and_records() {
        let dir = std::env::temp_dir().join(format!("sct-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = TraceWriter::create(
            &path,
            &[
                ("host_cpus", TraceValue::U64(4)),
                ("artifact", TraceValue::Str("unit \"test\"".into())),
            ],
        )
        .unwrap();
        w.record(Some(1), "job-started", &[("name", TraceValue::Str("x.sasm".into()))]);
        w.record(None, "shutdown", &[]);
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\": \"trace\""));
        assert!(lines[0].contains("\"host_cpus\": 4"));
        assert!(lines[0].contains("\"artifact\": \"unit \\\"test\\\"\""));
        assert!(lines[1].contains("\"event\": \"job-started\""));
        assert!(lines[1].contains("\"job\": 1"));
        assert!(lines[2].contains("\"event\": \"shutdown\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn span_clock_reads_nanoseconds() {
        let start = SpanStamp::now();
        std::thread::sleep(Duration::from_millis(5));
        let ns = start.ns_until(SpanStamp::now());
        assert!((4_900_000..5_000_000_000).contains(&ns), "{ns} ns");
        assert_eq!(SpanStamp::now().ns_until(start), 0, "a span never runs backwards");
    }

    #[test]
    fn kill_switch_suppresses_spans() {
        let was = set_enabled(false);
        assert!(span_start().is_none());
        set_enabled(true);
        assert!(span_start().is_some());
        set_enabled(was);
    }
}
