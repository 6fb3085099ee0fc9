//! The service-oriented job model: submit programs as [`Job`]s, run
//! them FIFO through one long-lived [`crate::AnalysisSession`], and
//! read back typed results, events, and service statistics.
//!
//! [`SessionService`] is the in-process form of the daemon: it owns the
//! session, the request queue, and the epoch-retire policy
//! ([`RetirePolicy`] — retire + warm-start every N jobs or at M arena
//! nodes), and every future transport plugs into it —
//! [`crate::server`] wraps one in a mutex behind a Unix socket, the
//! examples drive one directly. Where [`AnalysisSession::analyze`]
//! answers synchronously, the service answers in job lifecycle terms:
//! [`JobStatus::Queued`] → [`JobStatus::Running`] → [`JobStatus::Done`]
//! (or [`JobStatus::Failed`]), with an [`OwnedEvent`] log per job that
//! a server can stream while the job runs.
//!
//! ```
//! use pitchfork::service::{Job, SessionService};
//! use pitchfork::AnalysisSession;
//! use sct_core::examples::fig1;
//!
//! let session = AnalysisSession::builder().v1_mode(16).build().unwrap();
//! let mut service = SessionService::new(session);
//! let (program, config) = fig1();
//! let id = service.submit(Job::new("fig1", program, config));
//! service.run_pending();
//! let record = service.record(id).unwrap();
//! assert!(record.report.as_ref().unwrap().verdict().is_insecure());
//! ```

use crate::detector::DetectorOptions;
use crate::explorer::Explorer;
use crate::incremental::{block_hashes, config_tag, entry_fingerprint};
use crate::observe::{BoxObserver, Event, OwnedEvent};
use crate::report::{Report, Verdict};
use crate::session::AnalysisSession;
use crate::state::SymState;
use crate::strategy::StrategyKind;
use sct_core::{Config, Program, Reg};
use sct_telemetry::TraceValue;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};
use std::time::Instant;

static QUEUE_WAIT_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::JOB_QUEUE_WAIT));
static RUN_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::JOB_RUN));
static EVENTS_DROPPED_CTR: LazyLock<&'static sct_telemetry::Counter> =
    LazyLock::new(|| sct_telemetry::counter(sct_telemetry::names::EVENTS_DROPPED));

/// A service-assigned job identifier, unique within one
/// [`SessionService`] (and one daemon): the handle every status, event,
/// and verdict request names.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(u64);

impl JobId {
    /// The wire form (protocol messages carry the bare number).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild an id received over the wire.
    pub fn from_u64(id: u64) -> JobId {
        JobId(id)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// The session is analyzing it now.
    Running,
    /// Finished; the record holds a [`Report`].
    Done,
    /// Rejected or aborted; the record holds an error message.
    Failed,
    /// Stopped by a `Cancel` request: either reaped from the queue
    /// before running, or stopped cooperatively mid-exploration (the
    /// record then holds the truncated partial report).
    Cancelled,
    /// The job's wall-clock deadline ([`JobSpec::deadline_ms`]) expired
    /// mid-exploration; the record holds the truncated partial report
    /// (verdict `Unknown` unless violations were already found).
    TimedOut,
}

impl JobStatus {
    /// The stable wire name (`queued`, `running`, `done`, `failed`,
    /// `cancelled`, `timed-out`).
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed-out",
        }
    }

    /// Parse a wire name (the inverse of [`JobStatus::name`]).
    pub fn parse(name: &str) -> Option<JobStatus> {
        [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
            JobStatus::TimedOut,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }

    /// `true` once the job will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Failed | JobStatus::Cancelled | JobStatus::TimedOut
        )
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// The detector mode a job runs under — the typed form of the CLI's
/// mode flags, with stable wire names.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum JobMode {
    /// Spectre v1/v1.1 (no forwarding hazards).
    #[default]
    V1,
    /// Spectre v4 (forwarding hazards).
    V4,
    /// Aliasing-predictor extension.
    Alias,
    /// Spectre v2 (mistrained indirect jumps) extension.
    V2,
}

impl JobMode {
    /// The stable wire name (`v1`, `v4`, `alias`, `v2`).
    pub fn name(self) -> &'static str {
        match self {
            JobMode::V1 => "v1",
            JobMode::V4 => "v4",
            JobMode::Alias => "alias",
            JobMode::V2 => "v2",
        }
    }

    /// Parse a wire name (the inverse of [`JobMode::name`]).
    pub fn parse(name: &str) -> Option<JobMode> {
        [JobMode::V1, JobMode::V4, JobMode::Alias, JobMode::V2]
            .into_iter()
            .find(|m| m.name() == name.trim())
    }

    /// The detector options this mode denotes at `bound`.
    pub fn options(self, bound: usize) -> DetectorOptions {
        match self {
            JobMode::V1 => DetectorOptions::v1_mode(bound),
            JobMode::V4 => DetectorOptions::v4_mode(bound),
            JobMode::Alias => DetectorOptions::alias_mode(bound),
            JobMode::V2 => DetectorOptions::v2_mode(bound),
        }
    }
}

impl fmt::Display for JobMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// Per-job analysis options: mode, bound, frontier order, worker
/// threads, and symbolized registers. `None` (or 0 for `threads`)
/// fields inherit the session's setting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobSpec {
    /// Analysis mode (v1, v4, alias or v2).
    pub mode: JobMode,
    /// Speculation-bound override (`None` = the session's bound).
    pub bound: Option<usize>,
    /// Frontier-order override (`None` = the session's strategy).
    pub strategy: Option<StrategyKind>,
    /// Worker threads for this job's exploration (0 = the session's
    /// setting; 1 = serial; n = n-thread frontier — the wire form of
    /// `--threads`).
    pub threads: usize,
    /// Per-job state-budget override (`None` = the daemon's default).
    /// A request above the daemon's own budget is clamped down to it,
    /// and the clamp is surfaced on the job's record rather than
    /// applied silently.
    pub max_states: Option<usize>,
    /// Per-job wall-clock deadline in milliseconds, measured from the
    /// moment exploration starts (queue wait does not count). `None`
    /// never times out. Enforced cooperatively at the engines' stop
    /// points; an expired job lands in [`JobStatus::TimedOut`] with
    /// its truncated partial report.
    pub deadline_ms: Option<u64>,
    /// Registers replaced by fresh symbolic inputs.
    pub symbolic: Vec<Reg>,
}

/// A baseline verdict summary attached to a submission
/// (`Request::SubmitDiff`): when the submitted program and resolved
/// options still fingerprint to [`JobBaseline::fingerprint`], the
/// daemon **replays** the recorded verdict without exploring anything —
/// the diff-aware fast path of the incremental CI gate. A fingerprint
/// mismatch (the entry changed, or client and daemon resolve options
/// differently) falls back to a full analysis, so a stale baseline can
/// cost time but never correctness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobBaseline {
    /// [`crate::incremental::entry_fingerprint`] the verdict was
    /// computed under.
    pub fingerprint: u64,
    /// The baseline verdict to replay on a match.
    pub verdict: Verdict,
    /// States the baseline exploration expanded.
    pub states: usize,
    /// Complete schedules the baseline exploration ran.
    pub schedules: usize,
    /// The frontier order the baseline ran under.
    pub strategy: String,
    /// Whether the baseline exploration hit its budget.
    pub truncated: bool,
}

impl JobBaseline {
    /// A [`Report`] standing in for the skipped exploration: the
    /// baseline's statistics with no recomputed witnesses. The typed
    /// verdict still comes from [`JobBaseline::verdict`] (a record's
    /// `replayed` field), never from this report — an insecure
    /// baseline's witnesses are not re-derived.
    fn synthesized_report(&self) -> Report {
        Report {
            violations: Vec::new(),
            stats: crate::report::ExploreStats {
                strategy: StrategyKind::parse(&self.strategy)
                    .map(|s| s.name())
                    .unwrap_or("unknown"),
                states: self.states,
                schedules: self.schedules,
                truncated: self.truncated,
                ..Default::default()
            },
        }
    }
}

/// One unit of work: a program, its initial configuration, and the
/// options to analyze it under.
#[derive(Clone, Debug)]
pub struct Job {
    /// Display name (file name, corpus entry, ...).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The initial configuration.
    pub config: Config,
    /// Analysis options.
    pub spec: JobSpec,
    /// Baseline verdict summary: when present and the fingerprint still
    /// matches, the job replays instead of exploring.
    pub baseline: Option<JobBaseline>,
}

impl Job {
    /// A job with default options (the session's mode and bound).
    pub fn new(name: impl Into<String>, program: Program, config: Config) -> Job {
        Job {
            name: name.into(),
            program,
            config,
            spec: JobSpec::default(),
            baseline: None,
        }
    }

    /// A job with explicit options.
    pub fn with_spec(
        name: impl Into<String>,
        program: Program,
        config: Config,
        spec: JobSpec,
    ) -> Job {
        Job {
            name: name.into(),
            program,
            config,
            spec,
            baseline: None,
        }
    }

    /// The same job carrying a baseline verdict summary (see
    /// [`JobBaseline`]).
    pub fn with_baseline(mut self, baseline: JobBaseline) -> Job {
        self.baseline = Some(baseline);
        self
    }

    /// Assemble a job from `.sasm` source text — the form jobs arrive
    /// in over the wire (`Request::Submit` carries source, not
    /// structs). Errors render the assembler diagnostic.
    pub fn from_source(
        name: impl Into<String>,
        source: &str,
        spec: JobSpec,
    ) -> Result<Job, sct_asm::AsmError> {
        let asm = sct_asm::assemble(source)?;
        Ok(Job {
            name: name.into(),
            program: asm.program,
            config: asm.config,
            spec,
            baseline: None,
        })
    }
}

/// A snapshot of what a job has produced so far: its lifecycle state,
/// and the report or error once terminal.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job's display name.
    pub name: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The analysis report, once [`JobStatus::Done`].
    pub report: Option<Report>,
    /// The failure message, once [`JobStatus::Failed`].
    pub error: Option<String>,
    /// Wall-clock milliseconds the job has been (or was) executing:
    /// live and growing while [`JobStatus::Running`], frozen at the
    /// final run time once terminal. `None` for queued jobs and for
    /// submissions that failed before running.
    pub elapsed_ms: Option<u64>,
    /// The state budget actually applied when the job's requested
    /// `max_states` exceeded the daemon's cap and was clamped down;
    /// `None` when no clamp happened.
    pub clamped_states: Option<u64>,
    /// The baseline verdict replayed for this job (see [`JobBaseline`]);
    /// `None` for jobs that actually explored. When present, this — not
    /// the synthesized report — is the job's verdict.
    pub replayed: Option<Verdict>,
}

/// When the service retires the session's arena epoch (save snapshot →
/// retire → warm-start; see [`AnalysisSession::retire`]). Both triggers
/// are checked after each job; `None` disables a trigger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetirePolicy {
    /// Retire after this many completed jobs since the last retirement.
    pub every_jobs: Option<usize>,
    /// Retire once the process arena holds at least this many nodes.
    pub max_arena_nodes: Option<usize>,
}

impl RetirePolicy {
    /// Retirement disabled (explicit [`SessionService::retire`] calls
    /// and `Retire` requests still work).
    pub fn never() -> RetirePolicy {
        RetirePolicy::default()
    }

    /// Retire every `jobs` completed jobs.
    pub fn every_jobs(jobs: usize) -> RetirePolicy {
        RetirePolicy {
            every_jobs: Some(jobs),
            max_arena_nodes: None,
        }
    }

    fn due(&self, jobs_since: usize, arena_nodes: usize) -> bool {
        self.every_jobs.is_some_and(|n| jobs_since >= n.max(1))
            || self.max_arena_nodes.is_some_and(|n| arena_nodes >= n)
    }
}

/// Aggregate service counters — the payload of the wire `Stats`
/// response, flat and `Copy` so it serializes stably.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs ever submitted (accepted or failed at submission).
    pub jobs_submitted: u64,
    /// Jobs finished with a report.
    pub jobs_done: u64,
    /// Jobs failed (submission rejects included).
    pub jobs_failed: u64,
    /// Jobs currently queued (running job excluded).
    pub queued: u64,
    /// Arena epochs retired by this service's session.
    pub epochs_retired: u64,
    /// Jobs completed since the last retirement.
    pub jobs_since_retire: u64,
    /// Live expression-arena nodes.
    pub arena_nodes: u64,
    /// Current arena epoch.
    pub arena_epoch: u64,
    /// Verdicts currently memoized.
    pub memo_entries: u64,
    /// The verdict-memo capacity cap.
    pub memo_capacity: u64,
    /// Cumulative memo hits (process-wide).
    pub memo_hits: u64,
    /// Cumulative memo misses (process-wide).
    pub memo_misses: u64,
    /// Cumulative memo evictions by the capacity guard.
    pub memo_evicted: u64,
    /// Cumulative memo entries dropped as stale.
    pub memo_stale_dropped: u64,
    /// Nodes the most recent retirement warm-started (0 when cold).
    pub last_reload_nodes: u64,
    /// Verdicts the most recent retirement warm-started.
    pub last_reload_verdicts: u64,
    /// Jobs currently executing (0 or 1 on a single-worker daemon;
    /// up to `--jobs K` under concurrent execution).
    pub in_flight: u64,
    /// Cumulative contended interner-lock acquisitions (process-wide;
    /// the shard-contention signal for concurrent jobs and parallel
    /// frontiers).
    pub arena_lock_waits: u64,
    /// Cumulative contended solver-memo-lock acquisitions.
    pub memo_lock_waits: u64,
    /// Cross-worker batch steals summed over every finished job's
    /// report (exact per-job attribution — concurrent jobs each roll
    /// up their own workers' counters, unlike the process-wide
    /// lock-wait gauges above).
    pub steals: u64,
    /// Failed steal sweeps (worker parked) summed over finished jobs.
    pub steal_fails: u64,
    /// Thread-local L1 cache hits (interner + verdict memo) summed
    /// over finished jobs.
    pub local_cache_hits: u64,
    /// Milliseconds jobs spent queued before execution, summed over
    /// finished jobs.
    pub queue_wait_ms_total: u64,
    /// Milliseconds jobs spent executing, summed over finished jobs.
    pub run_ms_total: u64,
    /// Jobs contributing to the two totals above (failed submissions
    /// never run, so this can trail `jobs_submitted`).
    pub jobs_timed: u64,
    /// Events lost to the per-job retention cap, summed over all jobs.
    pub events_dropped: u64,
    /// Jobs stopped by a `Cancel` request (reaped from the queue or
    /// stopped cooperatively mid-run).
    pub jobs_cancelled: u64,
    /// Jobs whose requested per-job state budget exceeded the daemon's
    /// cap and was clamped down to it.
    pub budget_clamped_jobs: u64,
    /// Arena nodes added by `Seed` snapshot imports (warm-start
    /// shipping from a fleet coordinator).
    pub seed_nodes_added: u64,
    /// Solver verdicts imported by `Seed` snapshot imports.
    pub seed_verdicts_imported: u64,
    /// Jobs whose wall-clock deadline ([`JobSpec::deadline_ms`])
    /// expired mid-exploration.
    pub jobs_timed_out: u64,
    /// Jobs re-submitted from the write-ahead journal on daemon
    /// restart (see `--journal`).
    pub jobs_replayed: u64,
}

/// Cap on retained events per job: one event per expanded state adds
/// up, and the daemon is resident. An over-cap log keeps its **first
/// [`EVENT_HEAD_RETAIN`] and last [`EVENT_TAIL_RETAIN`] events** —
/// the head shows how the job started, the tail always contains the
/// most recent activity and the terminal `ItemFinished` — and counts
/// the dropped middle ([`ServiceMonitor::events_dropped`], surfaced in
/// `Events` responses), so cursors stay monotonic and streams still
/// close cleanly.
pub const MAX_EVENTS_PER_JOB: usize = 100_000;

/// Oldest events kept per job (the head of a first/last-N split log).
pub const EVENT_HEAD_RETAIN: usize = MAX_EVENTS_PER_JOB / 2;

/// Newest events kept per job (the tail ring of a first/last-N split
/// log; always ends at the most recent event).
pub const EVENT_TAIL_RETAIN: usize = MAX_EVENTS_PER_JOB - EVENT_HEAD_RETAIN;

/// Cap on retained job records. When exceeded, the oldest *terminal*
/// records are dropped (their ids then answer "unknown job") — queued
/// and running jobs are never evicted. Together with
/// [`MAX_EVENTS_PER_JOB`] this bounds monitor *growth* per job and the
/// job count; it is not a hard aggregate byte budget (4k retained
/// reports of large analyses are still real memory — size the caps to
/// the deployment, or retire records faster via a smaller cap).
pub const MAX_RETAINED_JOBS: usize = 4_096;

/// Per-job shared state: the record fields plus the first/last-N
/// split event log. Virtual event indices run `0..total_events()`;
/// indices `head.len()..head.len()+events_dropped` name the evicted
/// middle and yield nothing.
struct JobEntry {
    name: String,
    status: JobStatus,
    report: Option<Report>,
    error: Option<String>,
    /// The first [`EVENT_HEAD_RETAIN`] events, in order.
    head: Vec<OwnedEvent>,
    /// The last up-to-[`EVENT_TAIL_RETAIN`] events after the head
    /// filled, in order (a ring: overflow evicts the front).
    tail: VecDeque<OwnedEvent>,
    /// Events evicted from between head and tail.
    events_dropped: usize,
    /// When the job flipped to [`JobStatus::Running`].
    started_at: Option<Instant>,
    /// Final run time, stamped when the job turns terminal.
    elapsed_ms: Option<u64>,
    /// Cooperative cancellation flag, shared with the explorer's state
    /// loop while the job runs. Set by `Cancel` requests; a queued job
    /// with the flag set is reaped without running.
    cancel: Arc<AtomicBool>,
    /// Budget actually applied when the requested `max_states` was
    /// clamped to the daemon cap (`None` = no clamp).
    clamped_states: Option<u64>,
    /// The baseline verdict this job replayed instead of exploring
    /// (`None` for jobs that actually ran).
    replayed: Option<Verdict>,
}

impl JobEntry {
    /// Events ever appended (retained or dropped) — the cursor space.
    fn total_events(&self) -> usize {
        self.head.len() + self.events_dropped + self.tail.len()
    }
}

struct MonitorInner {
    jobs: BTreeMap<u64, JobEntry>,
    /// Events lost to per-job retention, summed over every job
    /// (retained *and* already-evicted records).
    events_dropped_total: u64,
    /// Structured trace sink: when set, job lifecycle transitions and
    /// non-`StateExpanded` events append JSONL records (expansions are
    /// far too hot to trace per event; their latencies go to the
    /// `state_expand_ns` histogram instead).
    trace: Option<Arc<sct_telemetry::TraceWriter>>,
}

/// A cheap, clonable view of job records and event logs — the
/// authoritative store for everything a job *produces*.
///
/// The monitor exists so a server can answer `Status` and stream
/// `Events` **while a job is running**: the worker holds the
/// [`SessionService`] itself for the duration of an analysis, but the
/// monitor is only locked for the microseconds an event append or a
/// record read takes.
#[derive(Clone)]
pub struct ServiceMonitor {
    inner: Arc<Mutex<MonitorInner>>,
}

impl ServiceMonitor {
    fn new() -> ServiceMonitor {
        ServiceMonitor {
            inner: Arc::new(Mutex::new(MonitorInner {
                jobs: BTreeMap::new(),
                events_dropped_total: 0,
                trace: None,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MonitorInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach a structured trace sink: from now on, job lifecycle
    /// transitions and every non-`StateExpanded` event append JSONL
    /// records (see the crate-level Observability docs for the
    /// schema).
    pub fn set_trace(&self, trace: Arc<sct_telemetry::TraceWriter>) {
        self.lock().trace = Some(trace);
    }

    fn add_job(&self, id: JobId, name: String, status: JobStatus, error: Option<String>) {
        let mut inner = self.lock();
        // Retention bound: evict the oldest terminal records first (ids
        // are monotonic, so BTreeMap order is age order). Live jobs are
        // never evicted.
        while inner.jobs.len() >= MAX_RETAINED_JOBS {
            let Some((&oldest, _)) = inner
                .jobs
                .iter()
                .find(|(_, j)| j.status.is_terminal())
            else {
                break;
            };
            inner.jobs.remove(&oldest);
        }
        if let Some(t) = &inner.trace {
            t.record(
                Some(id.as_u64()),
                "job_submitted",
                &[
                    ("name", TraceValue::Str(name.clone())),
                    ("status", TraceValue::Str(status.name().to_string())),
                ],
            );
        }
        inner.jobs.insert(
            id.as_u64(),
            JobEntry {
                name,
                status,
                report: None,
                error,
                head: Vec::new(),
                tail: VecDeque::new(),
                events_dropped: 0,
                started_at: None,
                elapsed_ms: None,
                cancel: Arc::new(AtomicBool::new(false)),
                clamped_states: None,
                replayed: None,
            },
        );
    }

    /// Mark a job as replayed from a baseline: the stored verdict wins
    /// over the (synthesized) report's when records are read.
    fn note_replay(&self, id: JobId, verdict: Verdict) {
        let mut inner = self.lock();
        if let Some(t) = &inner.trace {
            t.record(
                Some(id.as_u64()),
                "job_replayed",
                &[("verdict", TraceValue::Str(verdict.to_string()))],
            );
        }
        if let Some(j) = inner.jobs.get_mut(&id.as_u64()) {
            j.replayed = Some(verdict);
        }
    }

    fn set_status(&self, id: JobId, status: JobStatus) {
        let mut inner = self.lock();
        if let Some(t) = &inner.trace {
            t.record(
                Some(id.as_u64()),
                "job_status",
                &[("status", TraceValue::Str(status.name().to_string()))],
            );
        }
        if let Some(j) = inner.jobs.get_mut(&id.as_u64()) {
            j.status = status;
            if status == JobStatus::Running && j.started_at.is_none() {
                j.started_at = Some(Instant::now());
            }
        }
    }

    fn finish(&self, id: JobId, report: Report, status: JobStatus) {
        let mut inner = self.lock();
        let MonitorInner { jobs, trace, .. } = &mut *inner;
        if let Some(j) = jobs.get_mut(&id.as_u64()) {
            j.status = status;
            j.elapsed_ms = j
                .elapsed_ms
                .or_else(|| j.started_at.map(|t| t.elapsed().as_millis() as u64));
            if let Some(t) = trace {
                t.record(
                    Some(id.as_u64()),
                    match status {
                        JobStatus::Cancelled => "job_cancelled",
                        JobStatus::TimedOut => "job_timed_out",
                        _ => "job_done",
                    },
                    &[
                        ("states", TraceValue::U64(report.stats.states as u64)),
                        ("flagged", TraceValue::Bool(report.has_violations())),
                    ],
                );
            }
            j.report = Some(report);
        }
    }

    /// Request cancellation: sets the job's cooperative flag (observed
    /// by the explorer's state loop, and by the queue when the job has
    /// not started). Returns the job's status at request time; `None`
    /// for unknown ids. Terminal jobs are left untouched (the request
    /// is an idempotent no-op).
    pub fn request_cancel(&self, id: JobId) -> Option<JobStatus> {
        let mut inner = self.lock();
        let trace_rec = inner.trace.clone();
        let j = inner.jobs.get_mut(&id.as_u64())?;
        let status = j.status;
        if !status.is_terminal() {
            j.cancel.store(true, Ordering::Release);
            if let Some(t) = &trace_rec {
                t.record(
                    Some(id.as_u64()),
                    "job_cancel_requested",
                    &[("status", TraceValue::Str(status.name().to_string()))],
                );
            }
        }
        Some(status)
    }

    /// The job's cooperative cancellation flag (`None` for unknown
    /// ids) — handed to the explorer while the job runs.
    fn cancel_handle(&self, id: JobId) -> Option<Arc<AtomicBool>> {
        self.lock().jobs.get(&id.as_u64()).map(|j| j.cancel.clone())
    }

    /// Finalize a job reaped from the queue by a cancellation request:
    /// it never ran, so it turns terminal with no report.
    fn finish_unrun_cancelled(&self, id: JobId) {
        let mut inner = self.lock();
        if let Some(t) = &inner.trace {
            t.record(Some(id.as_u64()), "job_cancelled", &[]);
        }
        if let Some(j) = inner.jobs.get_mut(&id.as_u64()) {
            j.status = JobStatus::Cancelled;
        }
    }

    /// Record that a job's requested state budget was clamped down to
    /// `applied` (the daemon's cap).
    fn note_clamp(&self, id: JobId, applied: u64) {
        if let Some(j) = self.lock().jobs.get_mut(&id.as_u64()) {
            j.clamped_states = Some(applied);
        }
    }

    /// Trace a service-level event (the session's own events: epoch
    /// retirements). No job owns it, so only the trace records it.
    fn record_service_event(&self, event: OwnedEvent) {
        Self::trace_event(&self.lock().trace, None, &event);
    }

    /// Append an event to a job's log (several running jobs stream at
    /// once, each under its own id).
    fn record_event_for(&self, id: JobId, event: OwnedEvent) {
        let mut inner = self.lock();
        Self::push_event(&mut inner, id.as_u64(), event);
    }

    /// Mirror a non-`StateExpanded` event into the trace sink, if one
    /// is attached. Expansions are the per-state hot path — tracing
    /// them would dominate the file and the analysis; the
    /// `state_expand_ns` histogram covers their timing.
    fn trace_event(
        trace: &Option<Arc<sct_telemetry::TraceWriter>>,
        job: Option<u64>,
        event: &OwnedEvent,
    ) {
        let Some(t) = trace else { return };
        match event {
            OwnedEvent::StateExpanded { .. } => {}
            OwnedEvent::ViolationFound {
                states,
                pc,
                observation,
            } => t.record(
                job,
                "violation_found",
                &[
                    ("states", TraceValue::U64(*states as u64)),
                    ("pc", TraceValue::U64(*pc)),
                    ("observation", TraceValue::Str(observation.clone())),
                ],
            ),
            OwnedEvent::ItemFinished {
                name,
                flagged,
                states,
            } => t.record(
                job,
                "item_finished",
                &[
                    ("name", TraceValue::Str(name.clone())),
                    ("flagged", TraceValue::Bool(*flagged)),
                    ("states", TraceValue::U64(*states as u64)),
                ],
            ),
            OwnedEvent::EpochRetired { epoch, rehydrated } => t.record(
                job,
                "epoch_retired",
                &[
                    ("epoch", TraceValue::U64(*epoch)),
                    ("rehydrated", TraceValue::U64(*rehydrated as u64)),
                ],
            ),
        }
    }

    fn push_event(inner: &mut MonitorInner, id: u64, event: OwnedEvent) {
        Self::trace_event(&inner.trace, Some(id), &event);
        let MonitorInner {
            jobs,
            events_dropped_total,
            ..
        } = inner;
        if let Some(j) = jobs.get_mut(&id) {
            // First/last-N retention: the head keeps the log's start,
            // the tail ring always holds the newest events (the
            // terminal `ItemFinished` included), and the evicted
            // middle is counted instead of stored.
            if j.head.len() < EVENT_HEAD_RETAIN && j.tail.is_empty() {
                j.head.push(event);
            } else {
                j.tail.push_back(event);
                if j.tail.len() > EVENT_TAIL_RETAIN {
                    j.tail.pop_front();
                    j.events_dropped += 1;
                    *events_dropped_total += 1;
                    if sct_telemetry::enabled() {
                        EVENTS_DROPPED_CTR.inc();
                    }
                }
            }
        }
    }

    /// The mirrored status of a job (`None` for unknown ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.lock().jobs.get(&id.as_u64()).map(|j| j.status)
    }

    /// A snapshot of a job's record (`None` for unknown ids).
    pub fn job_record(&self, id: JobId) -> Option<JobRecord> {
        let inner = self.lock();
        let j = inner.jobs.get(&id.as_u64())?;
        let elapsed_ms = match j.status {
            JobStatus::Running => j.started_at.map(|t| t.elapsed().as_millis() as u64),
            _ => j.elapsed_ms,
        };
        Some(JobRecord {
            name: j.name.clone(),
            status: j.status,
            report: j.report.clone(),
            error: j.error.clone(),
            elapsed_ms,
            clamped_states: j.clamped_states,
            replayed: j.replayed,
        })
    }

    /// Events logged for a job from virtual index `since` on, together
    /// with the next cursor. `None` for unknown ids; an empty batch
    /// means nothing new yet. Cursors index the *full* event sequence
    /// (dropped middle included), so they stay monotonic across
    /// retention eviction; a cursor pointing into the evicted gap
    /// resumes at the retained tail.
    pub fn events_since(&self, id: JobId, since: usize) -> Option<(Vec<OwnedEvent>, usize)> {
        let inner = self.lock();
        let j = inner.jobs.get(&id.as_u64())?;
        let tail_start = j.head.len() + j.events_dropped;
        let mut out = Vec::new();
        if since < j.head.len() {
            out.extend_from_slice(&j.head[since..]);
        }
        let skip = since.saturating_sub(tail_start).min(j.tail.len());
        out.extend(j.tail.iter().skip(skip).cloned());
        Some((out, j.total_events()))
    }

    /// Events logged for a job so far (dropped middle included — this
    /// is the cursor space's upper bound, not the retained count).
    pub fn event_count(&self, id: JobId) -> Option<usize> {
        self.lock().jobs.get(&id.as_u64()).map(|j| j.total_events())
    }

    /// Events a job lost to the first/last-N retention cap (0 for
    /// ordinary jobs).
    pub fn events_dropped(&self, id: JobId) -> Option<usize> {
        self.lock().jobs.get(&id.as_u64()).map(|j| j.events_dropped)
    }

    /// Events lost to per-job retention summed over every job this
    /// monitor ever tracked (survives job-record eviction).
    pub fn events_dropped_total(&self) -> u64 {
        self.lock().events_dropped_total
    }
}

/// A dequeued job, self-contained and ready to execute **off the
/// service lock**: resolved detector options (session defaults with
/// the job's overrides applied), the program, and a monitor handle
/// that streams events under the job's own id. Produced by
/// [`SessionService::begin_next`]; consumed by [`PreparedJob::run`];
/// the result returns to the service via [`SessionService::finish`].
pub struct PreparedJob {
    id: JobId,
    name: String,
    program: Program,
    config: Config,
    symbolic: Vec<Reg>,
    options: DetectorOptions,
    monitor: ServiceMonitor,
    /// Cooperative cancellation flag shared with the monitor's record:
    /// the explorer polls it in its state loop.
    cancel: Arc<AtomicBool>,
    /// Time spent queued (submission → dequeue), for the service's
    /// job-latency accounting.
    queue_wait_ns: u64,
}

impl PreparedJob {
    /// The job's id (handed out at submission).
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The resolved options the job will run under.
    pub fn options(&self) -> &DetectorOptions {
        &self.options
    }

    /// Execute the analysis. Needs no lock on the service: events
    /// stream straight into the monitor under this job's id (several
    /// running jobs interleave their logs correctly), and the shared
    /// expression arena / solver memo are internally lock-striped.
    pub fn run(self) -> FinishedJob {
        let monitor = self.monitor.clone();
        let id = self.id;
        let mut observers: Vec<BoxObserver> = vec![Box::new(move |e: &Event<'_>| {
            monitor.record_event_for(id, OwnedEvent::from(e));
        })];
        let started = Instant::now();
        let explorer =
            Explorer::with_params(&self.program, self.options.params, self.options.explorer)
                .with_cancel(self.cancel.clone());
        let initial = if self.symbolic.is_empty() {
            SymState::from_config(&self.config)
        } else {
            SymState::from_config_symbolizing(&self.config, &self.symbolic)
        };
        let report = explorer.explore_observed(initial, &mut observers);
        // Publish this thread's buffered latency spans so a metrics
        // scrape right after the job sees them (parallel explorations
        // already publish per worker at join).
        sct_symx::flush_thread_telemetry();
        let timed_out = report.stats.deadline_exceeded;
        FinishedJob {
            id: self.id,
            name: self.name,
            report,
            cancelled: self.cancel.load(Ordering::Acquire),
            timed_out,
            queue_wait_ns: self.queue_wait_ns,
            run_ns: sct_telemetry::saturating_ns(started.elapsed()),
        }
    }
}

/// A completed [`PreparedJob`]: pass to [`SessionService::finish`] to
/// publish the report and apply lifecycle bookkeeping.
pub struct FinishedJob {
    id: JobId,
    name: String,
    report: Report,
    /// The cancellation flag was set while (or before) the job ran:
    /// the record turns [`JobStatus::Cancelled`] with the truncated
    /// partial report attached.
    cancelled: bool,
    /// The job's wall-clock deadline expired mid-run: the record turns
    /// [`JobStatus::TimedOut`] with the truncated partial report
    /// attached (an explicit `Cancel` wins when both raced).
    timed_out: bool,
    queue_wait_ns: u64,
    run_ns: u64,
}

impl FinishedJob {
    /// The finished job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The analysis report about to be published.
    pub fn report(&self) -> &Report {
        &self.report
    }
}

/// A long-lived analysis service: one [`AnalysisSession`], a FIFO job
/// queue, and the epoch-retire policy.
///
/// Every job takes one path: [`SessionService::submit`] enqueues,
/// [`SessionService::begin_next`] pops a self-contained
/// [`PreparedJob`], [`PreparedJob::run`] analyzes it off the service
/// lock, and [`SessionService::finish`] publishes the result. The
/// drivers only differ in how many jobs they keep in flight:
/// [`SessionService::run_pending`] runs one at a time,
/// [`SessionService::run_concurrent`] runs K at once against the
/// lock-striped arena/memo, and [`crate::server`] spawns `--jobs K`
/// worker threads. Epoch retirement — the one operation that must be
/// alone — is deferred until the in-flight count drains.
pub struct SessionService {
    session: AnalysisSession,
    monitor: ServiceMonitor,
    /// FIFO queue; the `Instant` is the submission time, for
    /// queue-wait latency accounting.
    queue: VecDeque<(JobId, Job, Instant)>,
    next_id: u64,
    policy: RetirePolicy,
    jobs_since_retire: usize,
    jobs_done: u64,
    jobs_failed: u64,
    jobs_submitted: u64,
    /// Jobs begun via [`SessionService::begin_next`] and not yet
    /// finished — the guard that keeps epoch retirement (which
    /// invalidates every live `ExprRef`) from running under a job.
    in_flight: usize,
    /// A retirement became due (policy or explicit request) while jobs
    /// were in flight; applied when the last one finishes.
    retire_deferred: bool,
    last_reload: Option<sct_cache::LoadStats>,
    last_retire_error: Option<String>,
    /// Work-stealing counters rolled up from every finished job's
    /// report in `finish`, so jobs run concurrently off the service
    /// lock are attributed exactly rather than sampled from a
    /// process-wide gauge at quiesce.
    job_steals: u64,
    job_steal_fails: u64,
    job_local_cache_hits: u64,
    /// Job-latency roll-ups (the wire `Stats` v4 field group): total
    /// queue wait, total run time, and how many jobs they cover.
    queue_wait_ms_total: u64,
    run_ms_total: u64,
    jobs_timed: u64,
    /// Jobs stopped by cancellation (queued reaps + mid-run stops).
    jobs_cancelled: u64,
    /// Jobs whose requested state budget was clamped to the daemon cap.
    budget_clamped_jobs: u64,
    /// Arena nodes / verdicts imported by `Seed` snapshot requests
    /// (fleet warm-start), reported by the transport via
    /// [`SessionService::note_seed`].
    seed_nodes_added: u64,
    seed_verdicts_imported: u64,
    /// Jobs whose wall-clock deadline expired mid-run.
    jobs_timed_out: u64,
    /// Jobs re-submitted from the write-ahead journal on restart.
    jobs_replayed: u64,
}

impl SessionService {
    /// A service over `session` with retirement disabled.
    pub fn new(session: AnalysisSession) -> SessionService {
        SessionService::with_policy(session, RetirePolicy::never())
    }

    /// A service over `session` retiring per `policy`.
    pub fn with_policy(mut session: AnalysisSession, policy: RetirePolicy) -> SessionService {
        let monitor = ServiceMonitor::new();
        let tap = monitor.clone();
        session.observe(Box::new(move |e: &Event<'_>| {
            tap.record_service_event(OwnedEvent::from(e))
        }));
        SessionService {
            session,
            monitor,
            queue: VecDeque::new(),
            next_id: 1,
            policy,
            jobs_since_retire: 0,
            jobs_done: 0,
            jobs_failed: 0,
            jobs_submitted: 0,
            in_flight: 0,
            retire_deferred: false,
            last_reload: None,
            last_retire_error: None,
            job_steals: 0,
            job_steal_fails: 0,
            job_local_cache_hits: 0,
            queue_wait_ms_total: 0,
            run_ms_total: 0,
            jobs_timed: 0,
            jobs_cancelled: 0,
            budget_clamped_jobs: 0,
            seed_nodes_added: 0,
            seed_verdicts_imported: 0,
            jobs_timed_out: 0,
            jobs_replayed: 0,
        }
    }

    /// Record a snapshot import performed by the transport on behalf
    /// of this service (fleet warm-start shipping): the counts land in
    /// [`ServiceStats`] so a scraped worker shows its warm start.
    pub fn note_seed(&mut self, nodes: u64, verdicts: u64) {
        self.seed_nodes_added += nodes;
        self.seed_verdicts_imported += verdicts;
    }

    /// Count one deadline expiry (stats counter + telemetry family).
    fn note_timeout(&mut self) {
        self.jobs_timed_out += 1;
        if sct_telemetry::enabled() {
            sct_telemetry::counter(sct_telemetry::names::JOB_DEADLINE_EXCEEDED).inc();
        }
    }

    /// Count jobs re-submitted from the daemon's write-ahead journal
    /// on restart (reported by [`crate::server`] after replay).
    pub fn note_replayed(&mut self, jobs: u64) {
        self.jobs_replayed += jobs;
        if sct_telemetry::enabled() {
            sct_telemetry::counter(sct_telemetry::names::JOURNAL_REPLAYED).add(jobs);
        }
    }

    /// Roll one finished job's latencies into the service totals and —
    /// when telemetry is on — the `job_queue_wait_ns` / `job_run_ns`
    /// histograms, tagged with the job id so a latency spike's exemplar
    /// names a concrete submission (jobs are low-rate; no thread-local
    /// buffering needed).
    fn note_job_timing(&mut self, id: JobId, queue_wait_ns: u64, run_ns: u64) {
        self.queue_wait_ms_total += queue_wait_ns / 1_000_000;
        self.run_ms_total += run_ns / 1_000_000;
        self.jobs_timed += 1;
        if sct_telemetry::enabled() {
            QUEUE_WAIT_HIST.observe_ns_tagged(queue_wait_ns, id.as_u64());
            RUN_HIST.observe_ns_tagged(run_ns, id.as_u64());
        }
    }

    /// Finalize a job answered from its submitted baseline without
    /// exploring: records the replayed verdict (which wins over the
    /// synthesized report's), the terminal `ItemFinished` event, and
    /// the usual timing/counter bookkeeping. Replays do no arena work,
    /// so they don't advance the retire policy's job counter.
    fn finalize_replay(&mut self, id: JobId, name: &str, b: &JobBaseline, queue_wait_ns: u64) {
        let report = b.synthesized_report();
        self.jobs_done += 1;
        self.note_job_timing(id, queue_wait_ns, 0);
        if sct_telemetry::enabled() {
            sct_telemetry::counter(sct_telemetry::names::INCR_REUSE_TOTAL).inc();
        }
        self.monitor.note_replay(id, b.verdict);
        self.monitor.record_event_for(
            id,
            OwnedEvent::ItemFinished {
                name: name.to_string(),
                flagged: b.verdict.is_insecure(),
                states: report.stats.states,
            },
        );
        self.monitor.finish(id, report, JobStatus::Done);
    }

    /// Roll one finished job's work-stealing counters into the
    /// service totals (exact — each job's report already sums its own
    /// workers).
    fn absorb_job_stats(&mut self, stats: &crate::report::ExploreStats) {
        self.job_steals += stats.steals as u64;
        self.job_steal_fails += stats.steal_fails as u64;
        self.job_local_cache_hits += stats.local_cache_hits as u64;
    }

    /// The wrapped session (options, cache binding, epoch counters).
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }

    /// The monitor handle a transport clones to answer status and event
    /// reads while jobs run.
    pub fn monitor(&self) -> ServiceMonitor {
        self.monitor.clone()
    }

    /// The active retire policy.
    pub fn policy(&self) -> RetirePolicy {
        self.policy
    }

    fn fresh_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Enqueue a job; it runs when [`SessionService::begin_next`]
    /// reaches it (FIFO).
    pub fn submit(&mut self, job: Job) -> JobId {
        let id = self.fresh_id();
        self.jobs_submitted += 1;
        self.monitor
            .add_job(id, job.name.clone(), JobStatus::Queued, None);
        self.queue.push_back((id, job, Instant::now()));
        id
    }

    /// Assemble `source` and enqueue it. A source that does not
    /// assemble still gets an id — its record is immediately
    /// [`JobStatus::Failed`] with the assembler diagnostic, so clients
    /// can query why.
    pub fn submit_source(
        &mut self,
        name: impl Into<String>,
        source: &str,
        spec: JobSpec,
    ) -> JobId {
        let name = name.into();
        match Job::from_source(name.clone(), source, spec) {
            Ok(job) => self.submit(job),
            Err(e) => {
                let id = self.fresh_id();
                self.jobs_submitted += 1;
                self.jobs_failed += 1;
                self.monitor
                    .add_job(id, name, JobStatus::Failed, Some(e.to_string()));
                id
            }
        }
    }

    /// Assemble `source` and enqueue it with a baseline record from a
    /// previous run: if the job's fingerprint (recomputed daemon-side
    /// from the assembled program and the fully resolved options) still
    /// matches `baseline.fingerprint`, the job replays the baseline
    /// verdict instead of exploring. On mismatch it runs in full.
    pub fn submit_source_with_baseline(
        &mut self,
        name: impl Into<String>,
        source: &str,
        spec: JobSpec,
        baseline: JobBaseline,
    ) -> JobId {
        let name = name.into();
        match Job::from_source(name.clone(), source, spec) {
            Ok(job) => self.submit(job.with_baseline(baseline)),
            Err(e) => {
                let id = self.fresh_id();
                self.jobs_submitted += 1;
                self.jobs_failed += 1;
                self.monitor
                    .add_job(id, name, JobStatus::Failed, Some(e.to_string()));
                id
            }
        }
    }

    /// `true` when jobs are waiting.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A snapshot of a job's record (status, report once done, error if
    /// failed).
    pub fn record(&self, id: JobId) -> Option<JobRecord> {
        self.monitor.job_record(id)
    }

    /// The job's status (`None` for unknown ids).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.monitor.status(id)
    }

    /// Resolve a job's effective state budget against the daemon's
    /// `cap`: `None` inherits the cap, a request above it is clamped
    /// down (counted, and surfaced on the job's record).
    fn resolve_state_budget(&mut self, id: JobId, requested: Option<usize>, cap: usize) -> usize {
        match requested {
            Some(r) if r > cap => {
                self.budget_clamped_jobs += 1;
                self.monitor.note_clamp(id, cap as u64);
                cap
            }
            Some(r) => r,
            None => cap,
        }
    }

    /// Drain the queue one job at a time (each job is finished, and
    /// any due retirement applied, before the next begins); returns how
    /// many jobs ran. Cancelled queue entries and baseline replays are
    /// finalized without running and are not counted.
    pub fn run_pending(&mut self) -> usize {
        let mut n = 0;
        while let Some(job) = self.begin_next() {
            let done = job.run();
            self.finish(done);
            n += 1;
        }
        n
    }

    /// Jobs begun via [`SessionService::begin_next`] and not yet handed
    /// back to [`SessionService::finish`].
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Pop the oldest queued job as a [`PreparedJob`] that runs
    /// **without the service**: everything the analysis needs (program,
    /// resolved options, a monitor handle for event streaming) is
    /// captured, so a transport can release its service lock, call
    /// [`PreparedJob::run`] on a worker thread — several concurrently —
    /// and hand the [`FinishedJob`] back to
    /// [`SessionService::finish`]. Per-job overrides resolve against
    /// the session's defaults; the session itself is never modified.
    ///
    /// Safe concurrency falls out of the substrate: the expression
    /// arena and solver memo are lock-striped process-wide state, and
    /// epoch retirement is deferred while any prepared job is in
    /// flight.
    pub fn begin_next(&mut self) -> Option<PreparedJob> {
        let (id, job, queue_wait_ns, options) = loop {
            let (id, job, submitted) = self.queue.pop_front()?;
            // Reap queued jobs whose cancel flag was set: they turn
            // terminal `Cancelled` without ever running.
            if self
                .monitor
                .cancel_handle(id)
                .is_some_and(|c| c.load(Ordering::Acquire))
            {
                self.jobs_cancelled += 1;
                self.monitor.finish_unrun_cancelled(id);
                continue;
            }
            let queue_wait_ns = sct_telemetry::saturating_ns(submitted.elapsed());
            let defaults = *self.session.options();
            let bound = job.spec.bound.unwrap_or(defaults.explorer.spec_bound);
            let mut options = job.spec.mode.options(bound);
            options.explorer.strategy = job.spec.strategy.unwrap_or(defaults.explorer.strategy);
            options.explorer.dedup_states = defaults.explorer.dedup_states;
            options.explorer.threads = if job.spec.threads > 0 {
                job.spec.threads
            } else {
                defaults.explorer.threads
            };
            options.explorer.max_states =
                self.resolve_state_budget(id, job.spec.max_states, defaults.explorer.max_states);
            options.explorer.deadline_ms = job.spec.deadline_ms;
            // Baseline replay: a job carrying a matching fingerprint
            // (same basic-block hashes, same effective analysis
            // configuration) skips exploration and re-reports the
            // baseline verdict. The fingerprint is recomputed here from
            // the *fully resolved* options, so a stale or foreign
            // baseline can only cost time (full re-analysis), never
            // correctness. A replayed job is finalized here — it never
            // becomes a prepared job or counts toward the in-flight
            // retirement deferral.
            if let Some(b) = job.baseline.as_ref() {
                let fp = entry_fingerprint(
                    &block_hashes(&job.program),
                    config_tag(&options, bound, &job.spec.symbolic),
                );
                if fp == b.fingerprint {
                    self.monitor.set_status(id, JobStatus::Running);
                    let b = b.clone();
                    self.finalize_replay(id, &job.name, &b, queue_wait_ns);
                    continue;
                }
                if sct_telemetry::enabled() {
                    sct_telemetry::counter(sct_telemetry::names::INCR_REANALYZED_TOTAL).inc();
                }
            }
            break (id, job, queue_wait_ns, options);
        };
        self.in_flight += 1;
        self.monitor.set_status(id, JobStatus::Running);
        let cancel = self.monitor.cancel_handle(id).unwrap_or_default();
        Some(PreparedJob {
            id,
            name: job.name,
            program: job.program,
            config: job.config,
            symbolic: job.spec.symbolic,
            options,
            monitor: self.monitor.clone(),
            cancel,
            queue_wait_ns,
        })
    }

    /// Record a completed [`PreparedJob`]: bookkeeping, the terminal
    /// `ItemFinished` event, the job's report, and — once no other job
    /// is in flight — any due (or deferred) epoch retirement.
    pub fn finish(&mut self, done: FinishedJob) {
        self.in_flight = self.in_flight.saturating_sub(1);
        // An explicit `Cancel` wins over a deadline expiry when both
        // raced: the client asked for the stop it observed.
        let status = if done.cancelled {
            self.jobs_cancelled += 1;
            JobStatus::Cancelled
        } else if done.timed_out {
            self.note_timeout();
            JobStatus::TimedOut
        } else {
            self.jobs_done += 1;
            JobStatus::Done
        };
        self.jobs_since_retire += 1;
        self.absorb_job_stats(&done.report.stats);
        self.note_job_timing(done.id, done.queue_wait_ns, done.run_ns);
        let due = self.retire_deferred
            || self
                .policy
                .due(self.jobs_since_retire, sct_symx::arena_stats().nodes);
        if due {
            if self.in_flight == 0 {
                if let Err(e) = self.retire() {
                    self.last_retire_error = Some(e.to_string());
                }
            } else {
                // Retiring now would invalidate the ExprRefs of the
                // jobs still running; the last finisher applies it.
                self.retire_deferred = true;
            }
        }
        self.monitor.record_event_for(
            done.id,
            OwnedEvent::ItemFinished {
                name: done.name.clone(),
                flagged: done.report.has_violations(),
                states: done.report.stats.states,
            },
        );
        self.monitor.finish(done.id, done.report, status);
    }

    /// Drain the queue on `workers` concurrent job threads (each job
    /// may itself run a multi-threaded frontier per its spec). Jobs
    /// run against the shared lock-striped arena/memo and are
    /// finalized **as each completes** — records flip to `Done` and
    /// event streams close exactly as under
    /// [`SessionService::run_pending`], without waiting for the whole
    /// batch (a slow job never delays a fast job's terminal status).
    /// Completion order — and therefore which job triggers a policy
    /// retirement — is timing-dependent. Returns how many jobs ran.
    pub fn run_concurrent(&mut self, workers: usize) -> usize {
        let workers = workers.max(1);
        let mut batch = VecDeque::new();
        while let Some(p) = self.begin_next() {
            batch.push_back(p);
        }
        if batch.is_empty() {
            return 0;
        }
        let ran = batch.len();
        let pool = workers.min(ran);
        let queue = Mutex::new(batch);
        // Workers borrow the service through a mutex only for the
        // brief `finish` critical section; nothing else can reach the
        // service meanwhile (the caller holds `&mut self`).
        let service = Mutex::new(&mut *self);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let job = queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_front();
                    match job {
                        Some(j) => {
                            let done = j.run();
                            service
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .finish(done);
                        }
                        None => break,
                    }
                });
            }
        });
        ran
    }

    /// Retire the session's arena epoch now (snapshot save → retire →
    /// warm-start; see [`AnalysisSession::retire`]) and reset the
    /// policy's job counter.
    ///
    /// With jobs in flight the retirement is **deferred** instead
    /// (retiring would invalidate their live expression references):
    /// `Ok(None)` is returned and the epoch turns over when the last
    /// in-flight job finishes.
    pub fn retire(&mut self) -> Result<Option<sct_cache::LoadStats>, sct_cache::CacheError> {
        if self.in_flight > 0 {
            self.retire_deferred = true;
            return Ok(None);
        }
        let reload = self.session.retire()?;
        self.jobs_since_retire = 0;
        self.retire_deferred = false;
        self.last_reload = reload;
        self.last_retire_error = None;
        Ok(reload)
    }

    /// The most recent policy-triggered retirement failure, if any
    /// (cleared by a successful [`SessionService::retire`]).
    pub fn last_retire_error(&self) -> Option<&str> {
        self.last_retire_error.as_deref()
    }

    /// Aggregate counters (the wire `Stats` payload).
    pub fn stats(&self) -> ServiceStats {
        let arena = sct_symx::arena_stats();
        let memo = sct_symx::solver_memo_stats();
        ServiceStats {
            in_flight: self.in_flight as u64,
            arena_lock_waits: arena.lock_waits,
            memo_lock_waits: memo.lock_waits,
            jobs_submitted: self.jobs_submitted,
            jobs_done: self.jobs_done,
            jobs_failed: self.jobs_failed,
            queued: self.queue.len() as u64,
            epochs_retired: self.session.epochs_retired() as u64,
            jobs_since_retire: self.jobs_since_retire as u64,
            arena_nodes: arena.nodes as u64,
            arena_epoch: arena.epoch,
            memo_entries: memo.entries as u64,
            memo_capacity: memo.capacity as u64,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_evicted: memo.evicted,
            memo_stale_dropped: memo.stale_dropped,
            last_reload_nodes: self.last_reload.map_or(0, |l| l.added as u64),
            last_reload_verdicts: self.last_reload.map_or(0, |l| l.verdicts_imported as u64),
            steals: self.job_steals,
            steal_fails: self.job_steal_fails,
            local_cache_hits: self.job_local_cache_hits,
            queue_wait_ms_total: self.queue_wait_ms_total,
            run_ms_total: self.run_ms_total,
            jobs_timed: self.jobs_timed,
            events_dropped: self.monitor.events_dropped_total(),
            jobs_cancelled: self.jobs_cancelled,
            budget_clamped_jobs: self.budget_clamped_jobs,
            seed_nodes_added: self.seed_nodes_added,
            seed_verdicts_imported: self.seed_verdicts_imported,
            jobs_timed_out: self.jobs_timed_out,
            jobs_replayed: self.jobs_replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
    use sct_core::examples::fig1;

    fn service() -> SessionService {
        SessionService::new(
            AnalysisSession::builder()
                .v1_mode(16)
                .build()
                .expect("uncached session"),
        )
    }

    #[test]
    fn job_lifecycle_queued_running_done() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let id = svc.submit(Job::new("fig1", p, cfg));
        assert_eq!(svc.status(id), Some(JobStatus::Queued));
        assert!(svc.has_pending());
        let prepared = svc.begin_next().expect("queued job");
        assert_eq!(prepared.id(), id);
        assert_eq!(svc.status(id), Some(JobStatus::Running));
        svc.finish(prepared.run());
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Done);
        assert!(matches!(
            rec.report.as_ref().unwrap().verdict(),
            Verdict::Insecure { .. }
        ));
        assert!(!svc.has_pending());
        assert_eq!(svc.stats().jobs_done, 1);
    }

    #[test]
    fn jobs_run_fifo() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let a = svc.submit(Job::new("a", p.clone(), cfg.clone()));
        let b = svc.submit(Job::new("b", p, cfg));
        let first = svc.begin_next().expect("two queued jobs");
        assert_eq!(first.id(), a);
        svc.finish(first.run());
        assert_eq!(svc.status(b), Some(JobStatus::Queued));
        let second = svc.begin_next().expect("one queued job");
        assert_eq!(second.id(), b);
        svc.finish(second.run());
        assert!(svc.begin_next().is_none());
    }

    #[test]
    fn bad_source_fails_with_diagnostic() {
        let mut svc = service();
        let id = svc.submit_source("garbage", "not an instruction !!!", JobSpec::default());
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Failed);
        assert!(rec.error.is_some());
        assert_eq!(svc.stats().jobs_failed, 1);
        // Failed submissions never enter the queue.
        assert_eq!(svc.run_pending(), 0);
    }

    #[test]
    fn submit_source_runs_like_direct_analysis() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let source = sct_asm::disassemble_with(&p, Some(&cfg));
        let id = svc.submit_source("fig1", &source, JobSpec::default());
        svc.run_pending();
        let via_service = svc.record(id).unwrap().report.clone().unwrap();
        let mut session = AnalysisSession::builder().v1_mode(16).build().unwrap();
        let direct = session.analyze(&p, &cfg);
        assert_eq!(via_service.verdict(), direct.verdict());
        assert_eq!(via_service.stats.states, direct.stats.states);
    }

    #[test]
    fn baseline_replay_skips_exploration_and_keeps_the_verdict() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let cold = svc.submit(Job::new("fig1", p.clone(), cfg.clone()));
        svc.run_pending();
        let cold_rec = svc.record(cold).unwrap();
        let report = cold_rec.report.as_ref().unwrap();
        let verdict = report.verdict();
        assert!(verdict.is_insecure());
        // The fingerprint a ci-gate client would have recorded: same
        // program, same effective options as the daemon resolves for a
        // default spec on this session.
        let fp = entry_fingerprint(
            &block_hashes(&p),
            config_tag(svc.session().options(), 16, &[]),
        );
        let baseline = JobBaseline {
            fingerprint: fp,
            verdict,
            states: report.stats.states,
            schedules: report.stats.schedules,
            strategy: report.stats.strategy.to_string(),
            truncated: report.stats.truncated,
        };

        // Matching fingerprint: replayed without exploring. The record
        // carries the baseline's verdict (witnesses included, which the
        // synthesized report cannot reconstruct) and its state count.
        let warm =
            svc.submit(Job::new("fig1", p.clone(), cfg.clone()).with_baseline(baseline.clone()));
        assert_eq!(svc.run_pending(), 0, "a replay runs no exploration");
        assert_eq!(svc.in_flight(), 0);
        let warm_rec = svc.record(warm).unwrap();
        assert_eq!(warm_rec.status, JobStatus::Done);
        assert_eq!(warm_rec.replayed, Some(verdict));
        let warm_report = warm_rec.report.as_ref().unwrap();
        assert_eq!(warm_report.stats.states, baseline.states);
        assert_eq!(warm_report.stats.schedules, baseline.schedules);
        assert!(warm_report.violations.is_empty());

        // A stale fingerprint falls back to full analysis: the verdict
        // is recomputed (witnesses present) and nothing is replayed.
        let stale = JobBaseline {
            fingerprint: fp ^ 1,
            ..baseline
        };
        let full = svc.submit(Job::new("fig1", p, cfg).with_baseline(stale));
        assert_eq!(svc.run_pending(), 1);
        let full_rec = svc.record(full).unwrap();
        assert_eq!(full_rec.replayed, None);
        assert!(!full_rec.report.as_ref().unwrap().violations.is_empty());
    }

    #[test]
    fn monitor_streams_events_and_statuses() {
        let mut svc = service();
        let monitor = svc.monitor();
        let (p, cfg) = fig1();
        let id = svc.submit(Job::new("fig1", p, cfg));
        assert_eq!(monitor.status(id), Some(JobStatus::Queued));
        svc.run_pending();
        assert_eq!(monitor.status(id), Some(JobStatus::Done));
        let (events, next) = monitor.events_since(id, 0).unwrap();
        assert_eq!(next, events.len());
        let states = svc.record(id).unwrap().report.as_ref().unwrap().stats.states;
        let expanded = events
            .iter()
            .filter(|e| matches!(e, OwnedEvent::StateExpanded { .. }))
            .count();
        assert_eq!(expanded, states);
        assert!(events
            .iter()
            .any(|e| matches!(e, OwnedEvent::ViolationFound { .. })));
        assert!(matches!(
            events.last(),
            Some(OwnedEvent::ItemFinished { flagged: true, .. })
        ));
        // Cursored reads resume where they left off.
        let (tail, _) = monitor.events_since(id, next).unwrap();
        assert!(tail.is_empty());
    }

    // Retire-policy cycling is covered in `tests/serve_e2e.rs`
    // (`retire_policy_cycles_epochs_under_service`): epoch retirement
    // invalidates the process-wide arena, so tests that trigger it are
    // serialized in one integration binary instead of racing the
    // parallel unit tests here.

    #[test]
    fn per_job_spec_overrides_mode_and_strategy() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let spec = JobSpec {
            mode: JobMode::V4,
            bound: Some(12),
            strategy: Some(StrategyKind::Fifo),
            threads: 0,
            max_states: None,
            deadline_ms: None,
            symbolic: vec![],
        };
        let id = svc.submit(Job::with_spec("fig1-v4", p, cfg, spec));
        svc.run_pending();
        let report = svc.record(id).unwrap().report.clone().unwrap();
        assert_eq!(report.stats.strategy, "fifo");
        // Per-job overrides never touch the session's own defaults.
        assert_eq!(svc.session().strategy(), StrategyKind::Lifo);
        assert_eq!(svc.session().options().explorer.spec_bound, 16);
        assert!(!svc.session().options().explorer.forwarding_hazards);
    }

    #[test]
    fn concurrent_execution_matches_serial_records() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let ids: Vec<_> = (0..4)
            .map(|i| svc.submit(Job::new(format!("job{i}"), p.clone(), cfg.clone())))
            .collect();
        assert_eq!(svc.run_concurrent(3), 4);
        assert_eq!(svc.in_flight(), 0);
        let monitor = svc.monitor();
        for id in ids {
            let rec = svc.record(id).unwrap();
            assert_eq!(rec.status, JobStatus::Done);
            let report = rec.report.unwrap();
            assert!(report.verdict().is_insecure());
            // Event streams stayed per-job under concurrency: each log
            // has exactly its job's expansions and closes terminally.
            let (events, _) = monitor.events_since(id, 0).unwrap();
            assert!(matches!(
                events.last(),
                Some(OwnedEvent::ItemFinished { flagged: true, .. })
            ));
            let expanded = events
                .iter()
                .filter(|e| matches!(e, OwnedEvent::StateExpanded { .. }))
                .count();
            assert_eq!(expanded, report.stats.states);
        }
        assert_eq!(svc.stats().jobs_done, 4);
    }

    #[test]
    fn per_job_threads_runs_parallel_engine() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let spec = JobSpec {
            threads: 2,
            ..JobSpec::default()
        };
        let id = svc.submit(Job::with_spec("fig1-par", p, cfg, spec));
        svc.run_concurrent(1);
        let report = svc.record(id).unwrap().report.unwrap();
        assert_eq!(report.stats.threads, 2);
        assert!(report.verdict().is_insecure());
        // The session's own parallelism default is untouched.
        assert_eq!(svc.session().parallelism(), 1);
    }

    // Deferred-retire semantics (retire requested while a prepared job
    // is in flight) live in `tests/serve_e2e.rs`
    // (`retire_defers_while_jobs_in_flight`): they retire the
    // process-wide arena, which must not race the parallel unit tests
    // here.

    #[test]
    fn event_retention_keeps_first_and_last() {
        let monitor = ServiceMonitor::new();
        let id = JobId::from_u64(1);
        monitor.add_job(id, "big".into(), JobStatus::Running, None);
        let total = MAX_EVENTS_PER_JOB + 100;
        for i in 0..total {
            monitor.record_event_for(
                id,
                OwnedEvent::StateExpanded {
                    states: i,
                    frontier: 0,
                    rob_depth: 0,
                },
            );
        }
        assert_eq!(monitor.events_dropped(id), Some(100));
        assert_eq!(monitor.events_dropped_total(), 100);
        // Cursors index the full sequence, not just what's retained.
        assert_eq!(monitor.event_count(id), Some(total));
        let (events, next) = monitor.events_since(id, 0).unwrap();
        assert_eq!(next, total);
        assert_eq!(events.len(), MAX_EVENTS_PER_JOB);
        // The head keeps the log's start...
        assert!(matches!(
            events[0],
            OwnedEvent::StateExpanded { states: 0, .. }
        ));
        assert!(matches!(
            events[EVENT_HEAD_RETAIN - 1],
            OwnedEvent::StateExpanded { states, .. } if states == EVENT_HEAD_RETAIN - 1
        ));
        // ...and the tail always ends at the newest event.
        assert!(matches!(
            events.last(),
            Some(OwnedEvent::StateExpanded { states, .. }) if *states == total - 1
        ));
        // A cursor into the evicted gap resumes at the retained tail.
        let (resumed, _) = monitor.events_since(id, EVENT_HEAD_RETAIN + 10).unwrap();
        assert!(matches!(
            resumed.first(),
            Some(OwnedEvent::StateExpanded { states, .. }) if *states == EVENT_HEAD_RETAIN + 100
        ));
        // Reads past the end are empty and the cursor is stable.
        let (empty, again) = monitor.events_since(id, next).unwrap();
        assert!(empty.is_empty());
        assert_eq!(again, next);
    }

    #[test]
    fn elapsed_ms_tracks_job_lifecycle() {
        let mut svc = service();
        let (p, cfg) = fig1();
        let id = svc.submit(Job::new("fig1", p, cfg));
        // Queued jobs have not started.
        assert_eq!(svc.record(id).unwrap().elapsed_ms, None);
        svc.run_pending();
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Done);
        assert!(rec.elapsed_ms.is_some());
        let stats = svc.stats();
        assert_eq!(stats.jobs_timed, 1);
        assert_eq!(stats.events_dropped, 0);
    }

    #[test]
    fn mode_and_status_names_round_trip() {
        for m in [JobMode::V1, JobMode::V4, JobMode::Alias, JobMode::V2] {
            assert_eq!(JobMode::parse(m.name()), Some(m));
        }
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::parse(s.name()), Some(s));
        }
        assert_eq!(JobMode::parse("v5"), None);
        assert_eq!(JobStatus::parse(""), None);
        assert!(JobStatus::Cancelled.is_terminal());
    }

    #[test]
    fn cancelling_a_queued_job_reaps_it_without_running() {
        let mut svc = service();
        let monitor = svc.monitor();
        let (p, cfg) = fig1();
        let id = svc.submit(Job::new("doomed", p, cfg));
        assert_eq!(monitor.request_cancel(id), Some(JobStatus::Queued));
        assert_eq!(svc.run_pending(), 0, "a reaped job never runs");
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Cancelled);
        assert!(rec.report.is_none());
        assert_eq!(svc.stats().jobs_cancelled, 1);
        assert_eq!(svc.stats().jobs_done, 0);
        // Cancelling again (or a terminal job) is an idempotent no-op.
        assert_eq!(monitor.request_cancel(id), Some(JobStatus::Cancelled));
        // Unknown ids answer None so the transport can report an error.
        assert_eq!(monitor.request_cancel(JobId::from_u64(999)), None);
    }

    #[test]
    fn cancel_during_run_pending_stops_the_running_job() {
        // A chain of branches explored without deduplication has
        // 2^40 schedules and no leak, so an unlimited state budget is
        // never reached: only the cancel (or, if it were ignored, the
        // deadline) can end this job.
        let mut source = String::from(".entry b0\n.reg ra = 1\n");
        for i in 0..40 {
            source.push_str(&format!("b{i}:\n    br gt(4, ra), b{n}, b{n}\n", n = i + 1));
        }
        source.push_str("b40:\n");
        let session = AnalysisSession::builder()
            .v1_mode(250)
            .dedup(false)
            .max_states(usize::MAX)
            .build()
            .unwrap();
        let mut svc = SessionService::new(session);
        let spec = JobSpec {
            deadline_ms: Some(5_000),
            ..JobSpec::default()
        };
        let id = svc.submit_source("endless", &source, spec);
        assert_eq!(svc.status(id), Some(JobStatus::Queued));
        // The canceller acts once the job is running, whenever that is.
        let monitor = svc.monitor();
        let canceller = std::thread::spawn(move || loop {
            match monitor.status(id) {
                Some(JobStatus::Running) => break monitor.request_cancel(id),
                Some(s) if s.is_terminal() => break Some(s),
                _ => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        });
        assert_eq!(svc.run_pending(), 1);
        assert_eq!(canceller.join().unwrap(), Some(JobStatus::Running));
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.status, JobStatus::Cancelled);
        let stats = rec
            .report
            .expect("cancelled jobs keep their partial report")
            .stats;
        assert!(
            stats.truncated,
            "a cancelled exploration reports as truncated"
        );
        assert!(
            !stats.deadline_exceeded,
            "the cancel, not the deadline, stopped it"
        );
        assert_eq!(svc.stats().jobs_cancelled, 1);
        assert_eq!(svc.stats().jobs_timed_out, 0);
    }

    #[test]
    fn begin_next_skips_cancelled_queue_entries() {
        let mut svc = service();
        let monitor = svc.monitor();
        let (p, cfg) = fig1();
        let dead = svc.submit(Job::new("dead", p.clone(), cfg.clone()));
        let live = svc.submit(Job::new("live", p, cfg));
        monitor.request_cancel(dead);
        let prepared = svc.begin_next().expect("live job prepared");
        assert_eq!(prepared.id(), live);
        assert_eq!(svc.status(dead), Some(JobStatus::Cancelled));
        svc.finish(prepared.run());
        assert_eq!(svc.status(live), Some(JobStatus::Done));
    }

    #[test]
    fn over_cap_state_budget_is_clamped_and_surfaced() {
        let mut svc = service();
        let cap = svc.session().options().explorer.max_states;
        let (p, cfg) = fig1();
        let spec = JobSpec {
            max_states: Some(cap * 10),
            ..JobSpec::default()
        };
        let id = svc.submit(Job::with_spec("greedy", p.clone(), cfg.clone(), spec));
        let prepared = svc.begin_next().unwrap();
        assert_eq!(prepared.options().explorer.max_states, cap);
        svc.finish(prepared.run());
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.clamped_states, Some(cap as u64));
        assert_eq!(svc.stats().budget_clamped_jobs, 1);
        // An in-cap override applies verbatim, with no clamp marker,
        // and a one-state budget visibly truncates the exploration.
        let spec = JobSpec {
            max_states: Some(1),
            ..JobSpec::default()
        };
        let id = svc.submit(Job::with_spec("tiny", p, cfg, spec));
        let prepared = svc.begin_next().unwrap();
        assert_eq!(prepared.options().explorer.max_states, 1);
        svc.finish(prepared.run());
        let rec = svc.record(id).unwrap();
        assert_eq!(rec.clamped_states, None);
        let stats = rec.report.unwrap().stats;
        assert!(stats.truncated, "budget 1 must truncate ({} states)", stats.states);
        assert_eq!(svc.stats().budget_clamped_jobs, 1);
    }
}
