//! The multi-threaded frontier engine behind
//! [`ExplorerOptions::threads`](crate::ExplorerOptions::threads).
//!
//! Exploration at the state level is embarrassingly parallel: each
//! frontier state expands independently, and only three things are
//! shared — pending work, the fingerprint visited set, and the
//! process-wide expression arena / solver memo (which `sct-symx`
//! lock-stripes and fronts with thread-local L1 caches; see its crate
//! docs). The engine runs a persistent worker pool over exactly the
//! serial engine's expansion logic ([`Explorer::continuations`] /
//! [`Explorer::apply`] are shared code, not reimplementations), with a
//! **work-stealing** frontier:
//!
//! * **Per-worker frontiers** — every worker owns a private
//!   strategy-ordered frontier ([`SearchStrategy`]) it pushes and pops
//!   with *no* synchronization at all. There is no global frontier
//!   lock; the strategy order is exact within a worker and a priority
//!   *hint* across workers (which states a worker owns depends on
//!   timing).
//! * **Batch donation and stealing** — a worker whose push leaves
//!   hungry peers (`hungry > 0`) pops half its frontier (its
//!   highest-priority states, capped at [`MAX_DONATION`]) into its
//!   donation buffer, a small mutex-guarded vector nobody touches on
//!   the hot path. A worker whose own frontier drains sweeps the
//!   donation buffers — its own first, then the others starting from a
//!   seed-rotated victim ([`crate::ExplorerOptions::steal_seed`]) —
//!   and takes a whole buffer per steal, so one steal funds many
//!   expansions. Batches keep steal traffic proportional to load
//!   imbalance, not to state count.
//! * **Visited set** — lock-striped (64 mutexes over `u128`
//!   fingerprints); a successor is claimed by whichever worker inserts
//!   its fingerprint first, so every distinct state is expanded
//!   exactly once, as in serial mode.
//! * **Termination** — a shared `in_flight` counter of states that are
//!   queued somewhere or being expanded: seeded with the initial
//!   frontier, incremented for fresh successors *before* the expansion
//!   that produced them is counted finished, decremented once per
//!   finished expansion. It hits zero exactly when no state exists
//!   anywhere — every worker's frontier and buffer is empty and no
//!   expansion is in flight — and the worker that zeroes it raises the
//!   stop flag and wakes the sleepers. A worker that finds nothing to
//!   steal parks on a condvar; donors bump the `published` count
//!   before taking the park lock to notify, and sleepers re-check
//!   `published` and `stop` under that lock before waiting, so
//!   wake-ups cannot be lost. A worker panic raises the same stop
//!   flag, so the survivors always exit rather than parking forever.
//!
//! # Determinism contract
//!
//! With the state budget and violation cap not hit, the set of
//! expanded states is the set of *distinct reachable* states whatever
//! the expansion order, so parallel runs produce the same verdict, the
//! same witness **set**, and the same state/step/dedup counts as the
//! serial engine — the equivalence suite pins this over the litmus
//! corpus and the Table 2 case studies for every strategy × thread
//! count. Merged reports sort witnesses by a key that includes the
//! schedule, and the schedule prefix naming a witness reachable along
//! several schedules is whichever a worker reached first, so two
//! parallel runs agree on the witness (pc, observation) multiset but
//! not always on its order. What may differ from serial mode: witness
//! order (serial keeps discovery order), those schedule prefixes, the
//! `first_witness_*` metrics (they record whichever witness a worker
//! reached first), and event interleaving. Under
//! truncation (`max_states` / `max_violations`) the *prefix* of states
//! explored is timing-dependent, exactly as it is order-dependent
//! across strategies. [`crate::ExplorerOptions::steal_seed`] rotates
//! victim order and therefore timing, never results — the equivalence
//! proptest hammers exactly this.

use crate::explorer::{ExpandTimer, Explorer};
use crate::observe::{BoxObserver, Event, EventSink, SharedSink};
use crate::report::Report;
use crate::state::SymState;
use crate::strategy::SearchStrategy;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

static STEAL_ATTEMPT_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::STEAL_ATTEMPT));

/// Per-worker utilization accounting, published on worker exit to the
/// labeled counters `worker_busy_ns{worker="i"}` /
/// `worker_steal_ns{...}` / `worker_parked_ns{...}` (cumulative per
/// worker slot across explorations) plus the `steal_attempt_ns`
/// histogram. Inert when telemetry is disabled.
struct WorkerUtil {
    on: bool,
    busy_ns: u64,
    steal_ns: u64,
    parked_ns: u64,
    steal_hist: Option<sct_telemetry::LocalHist>,
}

impl WorkerUtil {
    fn new() -> WorkerUtil {
        let on = sct_telemetry::enabled();
        WorkerUtil {
            on,
            busy_ns: 0,
            steal_ns: 0,
            parked_ns: 0,
            steal_hist: on.then(|| sct_telemetry::LocalHist::new(*STEAL_ATTEMPT_HIST)),
        }
    }

    #[inline]
    fn now(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// One donation-buffer sweep finished (hit or miss).
    #[inline]
    fn steal_attempt(&mut self, t0: Option<Instant>) {
        if let (Some(t0), Some(hist)) = (t0, self.steal_hist.as_mut()) {
            let ns = sct_telemetry::saturating_ns(t0.elapsed());
            hist.record_ns(ns);
            self.steal_ns += ns;
        }
    }

    /// One condvar park finished.
    #[inline]
    fn parked(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.parked_ns += sct_telemetry::saturating_ns(t0.elapsed());
        }
    }

    /// Publish the totals for worker slot `me`.
    fn publish(&mut self, me: usize) {
        if !self.on {
            return;
        }
        if let Some(hist) = self.steal_hist.as_mut() {
            hist.flush();
        }
        sct_telemetry::counter(&sct_telemetry::names::worker_busy(me)).add(self.busy_ns);
        sct_telemetry::counter(&sct_telemetry::names::worker_steal(me)).add(self.steal_ns);
        sct_telemetry::counter(&sct_telemetry::names::worker_parked(me)).add(self.parked_ns);
        self.busy_ns = 0;
        self.steal_ns = 0;
        self.parked_ns = 0;
    }
}

/// A persistent pool of parked worker threads shared by every parallel
/// exploration in the process.
///
/// Spawning OS threads per exploration costs ~50–100µs per thread —
/// more than the *entire* serial exploration of a small litmus program
/// — so a `std::thread::scope` per `explore_parallel` call would make
/// parallelism a net loss on exactly the many-small-programs batch
/// workload it exists to speed up. The pool spawns each worker once,
/// parks it on a condvar between explorations, and hands it scoped
/// jobs; dispatch cost is a condvar wake instead of a thread spawn.
mod pool {
    use std::collections::VecDeque;
    use std::sync::{Condvar, LazyLock, Mutex, MutexGuard, PoisonError};

    /// Completion latch for one `run` call: how many invocations are
    /// still outstanding, and whether any of them panicked.
    struct Latch {
        state: Mutex<(usize, bool)>,
        done: Condvar,
    }

    impl Latch {
        fn complete(&self, panicked: bool) {
            let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            s.0 -= 1;
            s.1 |= panicked;
            if s.0 == 0 {
                // Notified while the lock is held: the waiter can only
                // observe the zero after this thread releases the
                // mutex, after which this thread never touches the
                // latch again — so the waiter may safely destroy it.
                self.done.notify_all();
            }
        }
    }

    /// One erased invocation: a pointer to the caller's job closure
    /// and to its latch.
    ///
    /// # Safety invariant
    ///
    /// Both pointees live on the stack of the `run` call that enqueued
    /// the task, and `run` does not return until the latch has counted
    /// every invocation — so the pointers are valid whenever a worker
    /// dereferences them. This is the same guarantee
    /// `std::thread::scope` provides, rebuilt so the threads
    /// themselves can outlive the scope.
    struct Task {
        job: *const (dyn Fn() + Sync),
        latch: *const Latch,
    }

    // Safety: see `Task` — the pointees outlive every dereference, and
    // the job is `Sync` so any worker thread may call it.
    unsafe impl Send for Task {}

    struct Inner {
        tasks: VecDeque<Task>,
        /// Workers parked on the condvar right now.
        idle: usize,
    }

    struct Pool {
        inner: Mutex<Inner>,
        work: Condvar,
    }

    static POOL: LazyLock<Pool> = LazyLock::new(|| Pool {
        inner: Mutex::new(Inner {
            tasks: VecDeque::new(),
            idle: 0,
        }),
        work: Condvar::new(),
    });

    fn lock() -> MutexGuard<'static, Inner> {
        POOL.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop() {
        loop {
            let task = {
                let mut inner = lock();
                loop {
                    if let Some(t) = inner.tasks.pop_front() {
                        break t;
                    }
                    inner.idle += 1;
                    inner = POOL.work.wait(inner).unwrap_or_else(PoisonError::into_inner);
                    inner.idle -= 1;
                }
            };
            // Safety: the enqueuing `run` is still blocked on the
            // latch (see `Task`), so both pointers are live.
            let job = unsafe { &*task.job };
            let latch = unsafe { &*task.latch };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            latch.complete(result.is_err());
        }
    }

    /// Invoke `job` up to `n` times concurrently: once inline on the
    /// calling thread (the caller is a full worker, not a blocked
    /// supervisor) and up to `n - 1` times on pool threads. Every
    /// planned extra invocation that will *not* run — the OS refused a
    /// thread and no parked worker was free — is reported through one
    /// `cancel()` call instead, so callers that track planned workers
    /// can account for it.
    ///
    /// Blocks until every started invocation returns — including when
    /// the inline invocation panics (the unwind is caught, the latch
    /// is drained, and only then is the panic resumed), so no worker
    /// can ever dereference the stack-allocated job or latch after
    /// `run` leaves. Panics if any invocation panicked.
    pub(super) fn run(n: usize, job: &(dyn Fn() + Sync), cancel: &(dyn Fn() + Sync)) {
        let extra = n.saturating_sub(1);
        if extra == 0 {
            job();
            return;
        }
        let latch = Latch {
            state: Mutex::new((extra, false)),
            done: Condvar::new(),
        };
        // Safety: purely a lifetime erasure (same type, longer
        // lifetime) — the latch protocol below keeps `job` borrowed
        // for as long as any worker can reach the pointer.
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), _>(job) };
        let slots;
        {
            let mut inner = lock();
            // Capacity = parked workers not already claimed by queued
            // tasks, topped up by spawning (all under one lock, so the
            // arithmetic cannot race another `run`). Workers are never
            // reaped: the pool's high-water mark is the highest
            // concurrent demand, which the daemon bounds by
            // `--jobs × --threads`.
            let free = inner.idle.saturating_sub(inner.tasks.len());
            let mut capacity = free.min(extra);
            while capacity < extra {
                if std::thread::Builder::new()
                    .name("pitchfork-explore".into())
                    .spawn(worker_loop)
                    .is_err()
                {
                    break;
                }
                capacity += 1;
            }
            slots = capacity;
            if slots < extra {
                // No task for these invocations exists yet (nothing is
                // published until the pushes below), so shrinking the
                // latch expectation cannot race a completion.
                latch
                    .state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .0 -= extra - slots;
            }
            for _ in 0..slots {
                inner.tasks.push_back(Task {
                    job: erased as *const _,
                    latch: &latch as *const _,
                });
            }
            if slots > 0 {
                POOL.work.notify_all();
            }
        }
        for _ in slots..extra {
            cancel();
        }
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        // Wait unconditionally — panicked or not, pool workers may
        // still hold pointers into this stack frame.
        let mut s = latch.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.0 > 0 {
            s = latch.done.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        let pool_panicked = s.1;
        drop(s);
        match inline {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) if pool_panicked => panic!("exploration worker panicked"),
            Ok(()) => {}
        }
    }
}

/// Lock stripes of the visited set (fingerprints spread uniformly, so
/// 64 stripes keep 8 workers essentially collision-free).
const VISITED_SHARDS: usize = 64;

/// Cap on states moved per donation. Half-frontier batches amortize
/// steal overhead; the cap keeps one donation from hollowing out a
/// deep frontier (the donor keeps locality on its own subtree).
const MAX_DONATION: usize = 32;

/// One worker's mailbox: states it donated for hungry peers to take.
/// Only touched when load is imbalanced — the owner's push/pop path
/// never locks it.
struct WorkerSlot {
    donations: Mutex<Vec<SymState>>,
}

/// Everything the workers share.
struct Shared<'obs> {
    /// Donation buffers, indexed by worker id.
    workers: Vec<WorkerSlot>,
    /// States sitting in donation buffers (sleepers re-check this
    /// under the park lock, so donors can never publish unseen work).
    published: AtomicUsize,
    /// Workers currently out of local work (donors check this before
    /// paying for a donation).
    hungry: AtomicUsize,
    /// States queued anywhere or currently being expanded; zero means
    /// exploration is complete (see the module docs on termination).
    in_flight: AtomicUsize,
    /// Raised on completion, budget truncation, or worker panic.
    stop: AtomicBool,
    /// Park point for hungry workers (paired with `work`).
    park: Mutex<()>,
    work: Condvar,
    visited: Vec<Mutex<HashSet<u128>>>,
    /// States expanded so far (the budget counter; claimed by CAS so
    /// exactly `max_states` expansions happen under truncation).
    states: AtomicUsize,
    deduped: AtomicUsize,
    violations: AtomicUsize,
    truncated: AtomicBool,
    /// Wall-clock cut-off (from
    /// [`crate::ExplorerOptions::deadline_ms`], anchored at exploration
    /// start — the adaptive path carries the serial prelude's anchor
    /// over); `None` never expires.
    deadline: Option<Instant>,
    /// Raised by whichever worker observed the deadline expire.
    deadline_exceeded: AtomicBool,
    /// Approximate total frontier occupancy across workers (event
    /// payloads and the `frontier_peak` stat).
    queued: AtomicUsize,
    peak: AtomicUsize,
    /// Worker-id dispenser (the pool hands every invocation the same
    /// closure; each claims a distinct id here).
    next_worker: AtomicUsize,
    steal_seed: u64,
    observers: Mutex<&'obs mut [BoxObserver]>,
}

impl Shared<'_> {
    /// Flag termination and wake every parked worker. Taking the park
    /// lock orders the flag against sleepers' re-check, so none can
    /// park after missing it.
    fn stop_all(&self) {
        self.stop.store(true, Ordering::Release);
        let _park = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.work.notify_all();
    }

    /// One expansion finished; the worker that drains `in_flight` to
    /// zero ends the exploration.
    fn finish_state(&self) {
        if self.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.stop_all();
        }
    }

    /// Insert a fingerprint; `false` when already present.
    fn visit(&self, fp: u128) -> bool {
        self.visited[(fp as usize) & (VISITED_SHARDS - 1)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(fp)
    }

    fn lock_donations(&self, v: usize) -> MutexGuard<'_, Vec<SymState>> {
        self.workers[v]
            .donations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// SplitMix64: decorrelates worker ids and attempt counters into
/// victim-order rotations.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything a parallel exploration starts from. [`ParallelSeed::fresh`]
/// seeds a from-scratch run; the adaptive `--threads 0` path hands over
/// a serial prelude's frontier, visited set, and partial report instead
/// (see [`Explorer::explore_observed`]).
pub(crate) struct ParallelSeed {
    /// The starting frontier (already fingerprinted into `visited`).
    pub(crate) initials: Vec<SymState>,
    /// Fingerprints of every state ever enqueued so far.
    pub(crate) visited: HashSet<u128>,
    /// Stats and violations accumulated before the handover (zeroed
    /// for a fresh run). Counters resume from these values.
    pub(crate) base: Report,
    /// Wall-clock deadline carried into the pool. For a fresh run this
    /// anchors at seed construction; the adaptive handover passes the
    /// serial prelude's anchor so the total budget spans the whole
    /// exploration, not just the parallel tail.
    pub(crate) deadline: Option<Instant>,
}

impl ParallelSeed {
    /// A from-scratch seed: one initial state, empty history.
    pub(crate) fn fresh(explorer: &Explorer<'_>, initial: SymState) -> ParallelSeed {
        let mut visited = HashSet::new();
        if explorer.options.dedup_states {
            visited.insert(initial.fingerprint());
        }
        ParallelSeed {
            initials: vec![initial],
            visited,
            base: Report::default(),
            deadline: explorer.deadline_from_now(),
        }
    }
}

/// Run `explorer`'s exploration of `seed` on `threads` workers.
/// Called by [`Explorer::explore_observed`] when
/// [`crate::ExplorerOptions::threads`] resolves above 1.
pub(crate) fn explore_parallel(
    explorer: &Explorer<'_>,
    seed: ParallelSeed,
    observers: &mut [BoxObserver],
    threads: usize,
) -> Report {
    let options = &explorer.options;
    let ParallelSeed {
        initials,
        visited,
        base,
        deadline,
    } = seed;
    if initials.is_empty() {
        let mut report = base;
        report.stats.threads = threads;
        return report;
    }
    let memo_before = sct_symx::solver_memo_stats();

    let queued0 = initials.len();
    let mut visited_shards: Vec<Mutex<HashSet<u128>>> = (0..VISITED_SHARDS)
        .map(|_| Mutex::new(HashSet::new()))
        .collect();
    for fp in visited {
        visited_shards[(fp as usize) & (VISITED_SHARDS - 1)]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(fp);
    }
    let shared = Shared {
        workers: (0..threads)
            .map(|_| WorkerSlot {
                donations: Mutex::new(Vec::new()),
            })
            .collect(),
        published: AtomicUsize::new(queued0),
        hungry: AtomicUsize::new(0),
        in_flight: AtomicUsize::new(queued0),
        stop: AtomicBool::new(false),
        park: Mutex::new(()),
        work: Condvar::new(),
        visited: visited_shards,
        states: AtomicUsize::new(base.stats.states),
        deduped: AtomicUsize::new(base.stats.deduped),
        violations: AtomicUsize::new(base.violations.len()),
        truncated: AtomicBool::new(false),
        deadline,
        deadline_exceeded: AtomicBool::new(false),
        queued: AtomicUsize::new(queued0),
        peak: AtomicUsize::new(base.stats.frontier_peak.max(queued0)),
        next_worker: AtomicUsize::new(0),
        steal_seed: options.steal_seed,
        observers: Mutex::new(observers),
    };
    // Round-robin the starting frontier across donation buffers: every
    // worker's first sweep reclaims its own share lock-free of others,
    // and an imbalanced split is stolen right back.
    for (i, st) in initials.into_iter().enumerate() {
        shared.lock_donations(i % threads).push(st);
    }

    // One invocation per worker: the calling thread runs one inline,
    // the persistent pool supplies the rest (no per-exploration thread
    // spawns — see `mod pool`). A worker whose expansion panics raises
    // the stop flag so the survivors drain and exit; the panic itself
    // is re-raised by `pool::run` once everything has stopped. An
    // invocation the pool could not start at all needs no accounting —
    // termination counts states, not workers.
    let collected: Mutex<Vec<Report>> = Mutex::new(Vec::with_capacity(threads));
    pool::run(
        threads,
        &|| {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker(explorer, &shared, threads)
            })) {
                Ok(local) => collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(local),
                Err(payload) => {
                    shared.stop_all();
                    std::panic::resume_unwind(payload);
                }
            }
        },
        &|| {},
    );
    let locals = collected.into_inner().unwrap_or_else(PoisonError::into_inner);

    // Merge worker-local reports onto the seed's base report.
    let mut report = base;
    report.stats.strategy = options.strategy.name();
    report.stats.threads = threads;
    report.stats.states = shared.states.load(Ordering::Relaxed);
    report.stats.deduped = shared.deduped.load(Ordering::Relaxed);
    report.stats.truncated |= shared.truncated.load(Ordering::Relaxed);
    report.stats.deadline_exceeded |= shared.deadline_exceeded.load(Ordering::Relaxed);
    report.stats.frontier_peak = shared.peak.load(Ordering::Relaxed);
    let mut first_witness = report
        .stats
        .first_witness_states
        .zip(report.stats.first_witness_depth);
    for local in locals {
        report.stats.schedules += local.stats.schedules;
        report.stats.steps += local.stats.steps;
        if let (Some(s), Some(d)) = (
            local.stats.first_witness_states,
            local.stats.first_witness_depth,
        ) {
            if first_witness.is_none_or(|(best, _)| s < best) {
                first_witness = Some((s, d));
            }
        }
        report.violations.extend(local.violations);
    }
    if let Some((s, d)) = first_witness {
        report.stats.first_witness_states = Some(s);
        report.stats.first_witness_depth = Some(d);
    }
    // Canonical witness order: workers interleave nondeterministically,
    // but the witness *set* is fixed, so sorting makes parallel output
    // reproducible (serial mode keeps discovery order).
    report.violations.sort_by_cached_key(|v| {
        (
            v.pc,
            v.schedule.to_string(),
            v.observation.to_string(),
            v.trace.len(),
        )
    });

    let memo_after = sct_symx::solver_memo_stats();
    report.stats.solver_queries += (memo_after.queries - memo_before.queries) as usize;
    report.stats.solver_memo_hits += (memo_after.hits - memo_before.hits) as usize;
    report.stats.solver_memo_misses += (memo_after.misses - memo_before.misses) as usize;
    report.stats.solver_memo_evicted += (memo_after.evicted - memo_before.evicted) as usize;
    report
}

/// One worker: pop the private frontier, expand, push successors back
/// privately, donate when peers are hungry, steal when empty. Returns
/// the worker-local report (steps, schedules, violations and
/// first-witness metrics).
fn worker(explorer: &Explorer<'_>, shared: &Shared<'_>, threads: usize) -> Report {
    let me = shared.next_worker.fetch_add(1, Ordering::Relaxed) % threads;
    let options = &explorer.options;
    let dedup = options.dedup_states;
    let mut frontier = options.strategy.frontier();
    let mut attempt = 0u64;
    let mut local = Report::default();
    local.stats.strategy = options.strategy.name();
    let mut sink = SharedSink(&shared.observers);
    let mut util = WorkerUtil::new();
    let mut expand_timer = ExpandTimer::start();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // ----- pop own frontier, else steal (or terminate) -----
        let state = match frontier.pop() {
            Some(s) => s,
            None => {
                match acquire(shared, me, threads, frontier.as_mut(), &mut attempt, &mut util) {
                    Some(s) => {
                        // Steal/park time is the utilization counters'
                        // business, not the next state's span.
                        expand_timer.reset();
                        s
                    }
                    None => break,
                }
            }
        };
        shared.queued.fetch_sub(1, Ordering::Relaxed);

        // ----- claim an expansion slot against the budgets -----
        let states_now = loop {
            let expanded = shared.states.load(Ordering::Relaxed);
            let deadline_hit = shared.deadline.is_some_and(|d| Instant::now() >= d);
            if deadline_hit {
                shared.deadline_exceeded.store(true, Ordering::Relaxed);
            }
            if expanded >= options.max_states
                || shared.violations.load(Ordering::Relaxed) >= options.max_violations
                || explorer.is_cancelled()
                || deadline_hit
            {
                shared.truncated.store(true, Ordering::Relaxed);
                shared.stop_all();
                return finish_local(local, &mut util, me);
            }
            if shared
                .states
                .compare_exchange(expanded, expanded + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break expanded + 1;
            }
        };
        // `apply` reads `report.stats.states` for first-witness
        // metrics and violation events: give it the global count at
        // expansion time (the merge recomputes the true total).
        local.stats.states = states_now;
        sink.emit(Event::StateExpanded {
            states: states_now,
            frontier: shared.queued.load(Ordering::Relaxed),
            rob_depth: state.rob.len(),
        });

        // ----- expand -----
        let conts = explorer.continuations(&state);
        if conts.is_empty() {
            local.stats.schedules += 1;
            shared.finish_state();
            util.busy_ns += expand_timer.stamp();
            continue;
        }
        let violations_before = local.violations.len();
        let mut fresh: Vec<SymState> = Vec::new();
        let sources = std::iter::repeat_n(state, conts.len());
        for (cont, state) in conts.iter().zip(sources) {
            for succ in explorer.apply(state, cont, &mut local, &mut sink) {
                if dedup && !shared.visit(succ.fingerprint()) {
                    shared.deduped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                fresh.push(succ);
            }
        }
        let found = local.violations.len() - violations_before;
        if found > 0 {
            shared.violations.fetch_add(found, Ordering::Relaxed);
        }
        if !fresh.is_empty() {
            // Fresh states are in flight *before* this expansion is
            // counted finished — `in_flight` can therefore never dip
            // to zero while work exists.
            shared.in_flight.fetch_add(fresh.len(), Ordering::AcqRel);
            let n = fresh.len();
            for succ in fresh {
                frontier.push(succ);
            }
            let q = shared.queued.fetch_add(n, Ordering::Relaxed) + n;
            shared.peak.fetch_max(q, Ordering::Relaxed);
            if shared.hungry.load(Ordering::Relaxed) > 0 {
                donate(shared, me, frontier.as_mut());
            }
        }
        shared.finish_state();
        util.busy_ns += expand_timer.stamp();
    }
    finish_local(local, &mut util, me)
}

/// Publish the worker's utilization counters and buffered telemetry,
/// and hand back its report.
fn finish_local(local: Report, util: &mut WorkerUtil, me: usize) -> Report {
    util.publish(me);
    sct_symx::flush_thread_telemetry();
    local
}

/// Move half the frontier (capped) into this worker's donation buffer
/// and wake the sleepers. The donor pops, so it donates its
/// *highest-priority* states — the strategy hint travels with the work.
fn donate(shared: &Shared<'_>, me: usize, frontier: &mut dyn SearchStrategy) {
    let len = frontier.len();
    if len < 2 {
        return;
    }
    let give = (len / 2).min(MAX_DONATION);
    let mut batch = Vec::with_capacity(give);
    for _ in 0..give {
        match frontier.pop() {
            Some(s) => batch.push(s),
            None => break,
        }
    }
    if batch.is_empty() {
        return;
    }
    let n = batch.len();
    shared.lock_donations(me).extend(batch);
    // Publish before taking the park lock: a sleeper that already
    // checked `published` is inside `wait` (it held the lock from
    // check to wait), so the notify below cannot be lost; a sleeper
    // that has not yet checked will see the new count.
    shared.published.fetch_add(n, Ordering::AcqRel);
    let _park = shared.park.lock().unwrap_or_else(PoisonError::into_inner);
    shared.work.notify_all();
}

/// Out of local work: sweep the donation buffers (own first, then a
/// seed-rotated victim order), parking between failed sweeps, until a
/// batch lands in `frontier` or the stop flag is raised.
fn acquire(
    shared: &Shared<'_>,
    me: usize,
    threads: usize,
    frontier: &mut dyn SearchStrategy,
    attempt: &mut u64,
    util: &mut WorkerUtil,
) -> Option<SymState> {
    shared.hungry.fetch_add(1, Ordering::Relaxed);
    let got = loop {
        if shared.stop.load(Ordering::Acquire) {
            break None;
        }
        let sweep_start = util.now();
        let found = grab_batch(shared, me, threads, frontier, attempt);
        util.steal_attempt(sweep_start);
        if found {
            match frontier.pop() {
                Some(s) => break Some(s),
                None => continue,
            }
        }
        let park = shared.park.lock().unwrap_or_else(PoisonError::into_inner);
        if shared.stop.load(Ordering::Acquire) || shared.published.load(Ordering::Acquire) > 0 {
            continue;
        }
        let park_start = util.now();
        drop(shared.work.wait(park).unwrap_or_else(PoisonError::into_inner));
        util.parked(park_start);
    };
    shared.hungry.fetch_sub(1, Ordering::Relaxed);
    got
}

/// One sweep over the donation buffers. Takes a whole buffer into
/// `frontier` (re-establishing the strategy order locally) and reports
/// whether anything was found.
fn grab_batch(
    shared: &Shared<'_>,
    me: usize,
    threads: usize,
    frontier: &mut dyn SearchStrategy,
    attempt: &mut u64,
) -> bool {
    let salt = splitmix64(shared.steal_seed ^ ((me as u64) << 32) ^ *attempt);
    *attempt += 1;
    let start = (salt as usize) % threads;
    for k in 0..=threads {
        let v = if k == 0 { me } else { (start + k - 1) % threads };
        if k > 0 && v == me {
            continue;
        }
        let batch = {
            let mut buf = shared.lock_donations(v);
            if buf.is_empty() {
                continue;
            }
            std::mem::take(&mut *buf)
        };
        shared.published.fetch_sub(batch.len(), Ordering::AcqRel);
        for s in batch {
            frontier.push(s);
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::explorer::{Explorer, ExplorerOptions};
    use crate::report::Verdict;
    use crate::state::SymState;
    use sct_core::examples::fig1;

    fn explore(threads: usize, max_states: usize) -> crate::report::Report {
        let (p, cfg) = fig1();
        let explorer = Explorer::new(
            &p,
            ExplorerOptions {
                threads,
                max_states,
                ..Default::default()
            },
        );
        explorer.explore(SymState::from_config(&cfg))
    }

    #[test]
    fn parallel_matches_serial_on_fig1() {
        let serial = explore(1, 50_000);
        for threads in [2, 4] {
            let par = explore(threads, 50_000);
            assert_eq!(par.verdict(), serial.verdict(), "{threads} threads");
            assert_eq!(par.stats.states, serial.stats.states, "{threads} threads");
            assert_eq!(par.stats.steps, serial.stats.steps, "{threads} threads");
            assert_eq!(par.stats.deduped, serial.stats.deduped, "{threads} threads");
            assert_eq!(par.flagged_pcs(), serial.flagged_pcs(), "{threads} threads");
            assert_eq!(par.stats.threads, threads);
        }
    }

    #[test]
    fn parallel_truncates_at_budget() {
        let par = explore(4, 3);
        assert!(par.stats.truncated);
        assert!(par.stats.states <= 3, "CAS budget: {}", par.stats.states);
        assert!(matches!(par.verdict(), Verdict::Unknown { .. } | Verdict::Insecure { .. }));
    }

    #[test]
    fn steal_seed_rotates_victims_not_results() {
        let baseline = explore(4, 50_000);
        for seed in [1u64, 0xdead_beef, u64::MAX] {
            let (p, cfg) = fig1();
            let explorer = Explorer::new(
                &p,
                ExplorerOptions {
                    threads: 4,
                    steal_seed: seed,
                    ..Default::default()
                },
            );
            let par = explorer.explore(SymState::from_config(&cfg));
            assert_eq!(par.verdict(), baseline.verdict(), "seed {seed:#x}");
            assert_eq!(par.stats.states, baseline.stats.states, "seed {seed:#x}");
            assert_eq!(par.flagged_pcs(), baseline.flagged_pcs(), "seed {seed:#x}");
        }
    }

    // Either message is correct: the caller's inline worker resumes
    // the original payload ("injected observer panic"), a pool worker
    // surfaces as the pool's "exploration worker panicked".
    #[test]
    #[should_panic(expected = "panic")]
    fn worker_panic_propagates_instead_of_hanging() {
        // A panicking observer unwinds one worker mid-expansion. The
        // dying worker raises the stop flag, so the survivors exit and
        // the panic is re-raised here — the failure mode this guards
        // against is an eternal condvar park, which would time the
        // whole suite out rather than fail fast.
        use crate::observe::{BoxObserver, Event};
        let (p, cfg) = fig1();
        let explorer = Explorer::new(
            &p,
            ExplorerOptions {
                threads: 4,
                ..Default::default()
            },
        );
        let mut observers: Vec<BoxObserver> = vec![Box::new(|e: &Event<'_>| {
            if matches!(e, Event::StateExpanded { states: 3, .. }) {
                panic!("injected observer panic");
            }
        })];
        explorer.explore_observed(SymState::from_config(&cfg), &mut observers);
    }

    #[test]
    fn zero_threads_means_auto() {
        // 0 = adaptive: serial until the frontier is wide enough to
        // feed a pool (and always serial on a 1-core host). On any
        // machine this must still produce fig1's violation.
        let report = explore(0, 50_000);
        assert!(report.verdict().is_insecure());
        assert!(report.stats.threads >= 1);
    }
}
