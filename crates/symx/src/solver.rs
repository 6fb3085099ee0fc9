//! A heuristic bit-vector constraint solver.
//!
//! The paper's tool delegates feasibility to angr's SMT solver (with
//! concretization and timeouts); our substitute combines:
//!
//! 1. structural simplification and constant checks;
//! 2. interval-analysis unsatisfiability proofs ([`crate::interval`]);
//! 3. a candidate/model search over "interesting" values (constants
//!    appearing in the constraints ± 1, small values, random probes) with
//!    greedy per-variable repair.
//!
//! The search is complete for the small arithmetic constraints our
//! worst-case schedules generate; when it proves nothing it answers
//! [`Verdict::Unknown`], which the detector treats as satisfiable — an
//! over-approximation that can cost a false positive but never a missed
//! leak, matching how angr concretization errs.
//!
//! The model search runs in a fixed order:
//!
//! 1. it builds the candidate grid: small values, every constant of the
//!    constraints with its neighbours, and pairwise sums and differences
//!    of the constants;
//! 2. it tries every point of the grid's product over the query's
//!    variables, when that fits [`SolverOptions::exhaustive_budget`];
//! 3. it draws [`SolverOptions::random_probes`] probes from one RNG
//!    seeded with [`SolverOptions::seed`], each variable taken from the
//!    grid or uniformly from `u64` with equal odds, and follows each
//!    failed probe with up to [`SolverOptions::repair_rounds`] greedy
//!    sweeps that move one variable at a time to its best grid value.
//!
//! When step 2 runs and finds no model, every grid point is refuted,
//! and step 3 skips work that can only revisit one. A probe whose values
//! all lie on the grid is neither evaluated nor repaired: it is a grid
//! point, and repair only moves variables onto the grid. A one-variable
//! probe is not repaired: repair either leaves it unchanged or moves it
//! onto the grid. Both skips are exact. Every probe is still drawn in
//! full and repair draws no random numbers, so the random stream, the
//! probe order and every returned model are those of the search without
//! the skips. A one-variable query with no model, such as a Figure 1
//! load probe on the in-bounds path, then costs little more than its
//! exhaustive pass.
//!
//! Verdicts are memoized in a **lock-striped** process-wide table: the
//! canonical constraint-set key picks one of [`MEMO_SHARDS`] mutexes,
//! so parallel explorations answering from the memo contend only when
//! two threads ask about keys in the same stripe. Recency and capacity
//! stay *global* — one logical LRU across all stripes — so the
//! eviction contract is unchanged from the single-table implementation.

use crate::expr::{Expr, LocalView, Model, VarId};
use crate::interval::{provably_false_in, VarIntervals};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError, TryLockError};

/// The solver's answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// A model satisfying every constraint.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Nothing proven within budget.
    Unknown,
}

impl Verdict {
    /// `true` for [`Verdict::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// Treat [`Verdict::Unknown`] as satisfiable (the detector's
    /// over-approximating reading).
    pub fn maybe_sat(&self) -> bool {
        !matches!(self, Verdict::Unsat)
    }
}

/// Tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Random probes per query, run after the exhaustive pass. A probe
    /// draws each variable from the candidate grid or uniformly from
    /// `u64`. Once the exhaustive pass has refuted the whole grid, a
    /// probe drawn only from grid values is skipped after it is drawn,
    /// which leaves the random stream and so every verdict unchanged
    /// (see the module docs).
    pub random_probes: usize,
    /// Exhaustive-product budget (number of assignments tried).
    pub exhaustive_budget: usize,
    /// Greedy repair sweeps after each failed probe. A sweep moves each
    /// variable in turn to the grid value that satisfies the most
    /// constraints. One-variable queries whose grid the exhaustive pass
    /// refuted skip repair: it could only move their variable onto that
    /// grid (see the module docs).
    pub repair_rounds: usize,
    /// RNG seed (solving is deterministic given the seed).
    pub seed: u64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            random_probes: 64,
            exhaustive_budget: 4_096,
            repair_rounds: 4,
            seed: 0x5eed,
        }
    }
}

impl SolverOptions {
    /// A fingerprint of every knob that influences verdicts. Memoized
    /// verdicts are keyed by this tag so a solver with different
    /// options never reads another configuration's cache.
    pub fn tag(&self) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        self.random_probes.hash(&mut h);
        self.exhaustive_budget.hash(&mut h);
        self.repair_rounds.hash(&mut h);
        self.seed.hash(&mut h);
        h.finish()
    }
}

// ----- verdict memoization ------------------------------------------------

/// Lock stripes of the verdict memo. A key's stripe is its hash modulo
/// this; per-stripe hit/miss counters roll up into
/// [`SolverMemoStats`].
pub const MEMO_SHARDS: usize = 16;

/// A canonical memo key: options tag plus the sorted, deduplicated
/// constraint ids, with the structural hash computed **once** at
/// construction. The hash picks the stripe *and* feeds the stripe's
/// table (via a multiplicative finisher), so the hot probe path hashes
/// the id list exactly once — hashing it twice was a measurable tax on
/// v4-mode exploration.
#[derive(Clone, PartialEq, Eq)]
struct MemoKey {
    hash: u64,
    tag: u64,
    ids: Box<[Expr]>,
}

impl MemoKey {
    fn new(tag: u64, ids: Box<[Expr]>) -> MemoKey {
        let mut h = std::hash::DefaultHasher::new();
        tag.hash(&mut h);
        ids.hash(&mut h);
        MemoKey {
            hash: h.finish(),
            tag,
            ids,
        }
    }

    fn shard(&self) -> usize {
        (self.hash as usize) % MEMO_SHARDS
    }
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Memo storage: [`MemoKey`]s to `(verdict, last-hit tick)`, hashed by
/// the key's precomputed hash.
type MemoEntries =
    HashMap<MemoKey, (Verdict, u64), std::hash::BuildHasherDefault<crate::expr::FibHasher>>;

/// One stripe of the memo.
///
/// Keys hold full `ExprRef`s (epoch tag included), not bare indices: a
/// stale reference used after [`crate::expr::retire_arena`] can then
/// never be answered from the memo — it misses here and trips the
/// arena's stale-ref panic in the solver pipeline, keeping the epoch
/// contract loud.
#[derive(Default)]
struct MemoShard {
    entries: MemoEntries,
    queries: u64,
    hits: u64,
    misses: u64,
    stale_dropped: u64,
    evicted: u64,
}

/// Default cap on memoized verdicts. Within an epoch the memo grows
/// monotonically; the cap keeps a months-old long-running service (and
/// the snapshot it persists) from ballooning without bound.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

static MEMO: LazyLock<[Mutex<MemoShard>; MEMO_SHARDS]> =
    LazyLock::new(|| std::array::from_fn(|_| Mutex::new(MemoShard::default())));

/// Global recency clock: each probe and insert takes a fresh tick, so
/// "least recently hit" is well defined across stripes.
static MEMO_TICK: AtomicU64 = AtomicU64::new(0);
/// Total entries across stripes (the capacity trigger).
static MEMO_TOTAL: AtomicUsize = AtomicUsize::new(0);
/// The global capacity cap (one budget shared by all stripes).
static MEMO_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_MEMO_CAPACITY);
/// Contended memo-lock acquisitions (the `try_lock` probe failed).
static MEMO_LOCK_WAITS: AtomicU64 = AtomicU64::new(0);
/// Serializes eviction passes (the passes lock stripes one at a time;
/// two concurrent passes would double-evict).
static EVICT_LOCK: Mutex<()> = Mutex::new(());

fn lock_memo(i: usize) -> MutexGuard<'static, MemoShard> {
    match MEMO[i].try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            MEMO_LOCK_WAITS.fetch_add(1, Ordering::Relaxed);
            TLS_MEMO_WAITS.with(|w| w.set(w.get() + 1));
            MEMO[i].lock().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

// ----- thread-local memo-read cache ---------------------------------------
//
// In front of the striped memo each thread keeps a small direct-mapped
// read cache of `(key, verdict)` pairs. A hit answers `Solver::check`
// without touching any shared lock. Keys are compared in full (options
// tag + sorted ids), the cache is stamped with the arena epoch and
// flushed lazily after [`crate::expr::retire_arena`], so a stale-epoch
// verdict is never replayed. Thread-cache hits bypass the stripe's
// recency touch (the entry may be evicted by the LRU guard while still
// locally cached — harmless, verdicts are deterministic) and are folded
// into [`solver_memo_stats`] through [`MEMO_TLS_HITS`] so hit-rate
// reporting stays truthful.

/// Slots in the per-thread verdict cache (direct-mapped).
const LOCAL_MEMO_SLOTS: usize = 1 << 10;

struct LocalMemo {
    epoch: u64,
    slots: Box<[Option<(MemoKey, Verdict)>]>,
}

thread_local! {
    static LOCAL_MEMO: RefCell<Option<LocalMemo>> = const { RefCell::new(None) };
    /// Per-thread mirror of [`MEMO_LOCK_WAITS`] (exact attribution for
    /// parallel workers).
    static TLS_MEMO_WAITS: Cell<u64> = const { Cell::new(0) };
    /// Per-thread count of thread-cache verdict hits.
    static TLS_MEMO_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Queries answered by a thread-local verdict cache (process-wide).
/// These bypass the per-stripe counters, so [`solver_memo_stats`] adds
/// them to both `queries` and `hits`.
static MEMO_TLS_HITS: AtomicU64 = AtomicU64::new(0);

// ----- check-latency spans ------------------------------------------------
//
// Every `Solver::check` is timed into one of two process-wide
// histograms — answered-from-memo vs full-pipeline — through a
// per-thread `LocalHist` buffer (plain integer bumps on the hot path,
// published on the auto-flush threshold, on `flush_thread_caches`, and
// on thread exit). Timing is skipped entirely when
// `sct_telemetry::enabled()` is off.

static CHECK_HIT_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::SOLVER_CHECK_HIT));
static CHECK_MISS_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::SOLVER_CHECK_MISS));

struct CheckSpans {
    hit: sct_telemetry::LocalHist,
    miss: sct_telemetry::LocalHist,
}

thread_local! {
    static CHECK_SPANS: RefCell<Option<CheckSpans>> = const { RefCell::new(None) };
}

fn record_check_span(hit: bool, ns: u64) {
    CHECK_SPANS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let spans = slot.get_or_insert_with(|| CheckSpans {
            hit: sct_telemetry::LocalHist::with_auto_flush(*CHECK_HIT_HIST, 64),
            miss: sct_telemetry::LocalHist::with_auto_flush(*CHECK_MISS_HIST, 16),
        });
        if hit {
            spans.hit.record_ns(ns);
        } else {
            spans.miss.record_ns(ns);
        }
    });
}

/// Publish the calling thread's buffered check-latency spans to the
/// process-wide histograms.
pub(crate) fn flush_check_spans() {
    CHECK_SPANS.with(|cell| {
        if let Some(spans) = cell.borrow_mut().as_mut() {
            spans.hit.flush();
            spans.miss.flush();
        }
    });
}

fn with_local_memo<R>(f: impl FnOnce(&mut LocalMemo) -> R) -> R {
    LOCAL_MEMO.with(|cell| {
        let mut slot = cell.borrow_mut();
        let epoch = crate::expr::arena_epoch();
        let memo = match slot.as_mut() {
            Some(m) => {
                if m.epoch != epoch {
                    m.slots.fill(None);
                    m.epoch = epoch;
                }
                m
            }
            None => slot.insert(LocalMemo {
                epoch,
                slots: vec![None; LOCAL_MEMO_SLOTS].into_boxed_slice(),
            }),
        };
        f(memo)
    })
}

fn local_memo_slot(key: &MemoKey) -> usize {
    (key.hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (LOCAL_MEMO_SLOTS - 1)
}

fn local_memo_get(key: &MemoKey) -> Option<Verdict> {
    with_local_memo(|m| match &m.slots[local_memo_slot(key)] {
        Some((k, v)) if k == key => Some(v.clone()),
        _ => None,
    })
}

fn local_memo_put(key: MemoKey, verdict: Verdict) {
    let slot = local_memo_slot(&key);
    with_local_memo(|m| m.slots[slot] = Some((key, verdict)));
}

/// Drop the calling thread's L1 verdict cache (the shared memo is
/// untouched).
pub(crate) fn flush_local_memo() {
    LOCAL_MEMO.with(|cell| {
        if let Some(m) = cell.borrow_mut().as_mut() {
            m.slots.fill(None);
        }
    });
}

/// This thread's cumulative contended memo-lock acquisitions (the
/// thread's share of [`solver_memo_lock_waits`]).
pub(crate) fn tls_memo_waits() -> u64 {
    TLS_MEMO_WAITS.with(Cell::get)
}

/// This thread's cumulative thread-cache verdict hits.
pub(crate) fn tls_memo_hits() -> u64 {
    TLS_MEMO_HITS.with(Cell::get)
}

fn next_tick() -> u64 {
    MEMO_TICK.fetch_add(1, Ordering::Relaxed) + 1
}

/// Evict least-recently-hit entries (across all stripes) until the
/// table fits the capacity. Eviction is batched — when the cap is
/// crossed, the table is taken ~1/16th below it — so an insert-heavy
/// workload pays the O(n) recency scan once per batch, not once per
/// insert. Entries touched or inserted while the pass runs simply
/// survive it; the cap is a bound, not an invariant the hot path
/// re-establishes per insert.
fn enforce_capacity_global() {
    let capacity = MEMO_CAPACITY.load(Ordering::Relaxed);
    if MEMO_TOTAL.load(Ordering::Relaxed) <= capacity {
        return;
    }
    let _pass = EVICT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let total = MEMO_TOTAL.load(Ordering::Relaxed);
    if total <= capacity {
        return;
    }
    let slack = (capacity / 16).max(1);
    let target = capacity.saturating_sub(slack).max(1);
    let excess = total - target;
    let mut stamps: Vec<u64> = Vec::with_capacity(total);
    for i in 0..MEMO_SHARDS {
        stamps.extend(lock_memo(i).entries.values().map(|(_, hit)| *hit));
    }
    if stamps.len() < excess {
        return;
    }
    stamps.sort_unstable();
    let cutoff = stamps[excess - 1];
    // Drop everything at or below the cutoff stamp, but never more
    // than `excess` entries (ties on the cutoff stamp cannot happen
    // with a monotonic tick, so this retains exactly `target` barring
    // concurrent touches).
    let mut to_drop = excess;
    for i in 0..MEMO_SHARDS {
        if to_drop == 0 {
            break;
        }
        let mut m = lock_memo(i);
        let before = m.entries.len();
        m.entries.retain(|_, (_, hit)| {
            if to_drop > 0 && *hit <= cutoff {
                to_drop -= 1;
                false
            } else {
                true
            }
        });
        let dropped = before - m.entries.len();
        m.evicted += dropped as u64;
        MEMO_TOTAL.fetch_sub(dropped, Ordering::Relaxed);
    }
}

/// Cap the process-wide verdict memo at `capacity` entries (LRU by
/// last hit; clamped to at least 1). Returns the previous capacity.
/// Shrinking below the current size evicts immediately.
pub fn set_solver_memo_capacity(capacity: usize) -> usize {
    let old = MEMO_CAPACITY.swap(capacity.max(1), Ordering::Relaxed);
    enforce_capacity_global();
    old
}

/// The current verdict-memo capacity (see [`set_solver_memo_capacity`]).
pub fn solver_memo_capacity() -> usize {
    MEMO_CAPACITY.load(Ordering::Relaxed)
}

/// The canonical memo key for a constraint list: sorted, deduplicated
/// interned references. `Solver::check` treats constraints as a set,
/// so logically equal path conditions share one entry.
fn canonical_key(constraints: &[Expr]) -> Box<[Expr]> {
    let mut ids: Vec<Expr> = constraints.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.into_boxed_slice()
}

/// Counters describing the process-wide solver verdict memo (per-shard
/// counters rolled up).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverMemoStats {
    /// Total `Solver::check` queries issued.
    pub queries: u64,
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that ran the full solver pipeline.
    pub misses: u64,
    /// Entries dropped as stale (epoch retirement, or snapshot entries
    /// whose ids could not be remapped).
    pub stale_dropped: u64,
    /// Entries evicted by the capacity guard (LRU by last hit; see
    /// [`set_solver_memo_capacity`]).
    pub evicted: u64,
    /// Entries currently memoized (all stripes).
    pub entries: usize,
    /// The capacity the memo is capped at.
    pub capacity: usize,
    /// Memo-lock acquisitions that had to block (the uncontended
    /// `try_lock` probe failed). Explorations report the delta as
    /// `memo_lock_waits`.
    pub lock_waits: u64,
    /// Lock stripes the memo is divided into.
    pub shards: usize,
}

/// Snapshot the verdict-memo counters. Queries answered by a
/// thread-local read cache never reach a stripe; they are added to both
/// `queries` and `hits` here so rates stay truthful.
pub fn solver_memo_stats() -> SolverMemoStats {
    let tls_hits = MEMO_TLS_HITS.load(Ordering::Relaxed);
    let mut stats = SolverMemoStats {
        queries: tls_hits,
        hits: tls_hits,
        capacity: MEMO_CAPACITY.load(Ordering::Relaxed),
        lock_waits: MEMO_LOCK_WAITS.load(Ordering::Relaxed),
        shards: MEMO_SHARDS,
        ..SolverMemoStats::default()
    };
    for i in 0..MEMO_SHARDS {
        let m = lock_memo(i);
        stats.queries += m.queries;
        stats.hits += m.hits;
        stats.misses += m.misses;
        stats.stale_dropped += m.stale_dropped;
        stats.evicted += m.evicted;
        stats.entries += m.entries.len();
    }
    stats
}

/// Cumulative count of contended memo-lock acquisitions (see
/// [`SolverMemoStats::lock_waits`]).
pub fn solver_memo_lock_waits() -> u64 {
    MEMO_LOCK_WAITS.load(Ordering::Relaxed)
}

/// Drop every memoized verdict: ids are arena references, so a retired
/// arena invalidates the whole table. Called by
/// [`crate::expr::retire_arena`]; counts the drops as stale.
pub(crate) fn reset_memo_for_new_epoch() {
    for i in 0..MEMO_SHARDS {
        let mut m = lock_memo(i);
        let dropped = m.entries.len();
        m.stale_dropped += dropped as u64;
        m.entries = MemoEntries::default();
        MEMO_TOTAL.fetch_sub(dropped, Ordering::Relaxed);
    }
}

/// A flat copy of the verdict memo for persistence: `(options tag,
/// canonical key indices, verdict)` triples, sorted for determinism.
#[derive(Clone, Default, Debug)]
pub struct MemoExport {
    /// The memo entries. Key ids are positions in the arena snapshot
    /// the memo was exported with; [`import_solver_memo`] remaps them.
    pub entries: Vec<(u64, Vec<u32>, Verdict)>,
}

/// Flatten the memo, translating each key id through `position` (the
/// live-index → snapshot-position map of the arena export taken under
/// the same shard guards — see [`crate::expr::export_all`]). Entries
/// with an untranslatable id are dropped rather than exported wrong.
pub(crate) fn export_memo_with(position: impl Fn(u32) -> Option<u32>) -> MemoExport {
    let mut entries: Vec<(u64, Vec<u32>, Verdict)> = Vec::new();
    for i in 0..MEMO_SHARDS {
        let m = lock_memo(i);
        'entry: for (key, (v, _)) in m.entries.iter() {
            let mut ids = Vec::with_capacity(key.ids.len());
            for e in key.ids.iter() {
                match position(e.index()) {
                    Some(p) => ids.push(p),
                    None => continue 'entry,
                }
            }
            entries.push((key.tag, ids, v.clone()));
        }
    }
    entries.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    MemoExport { entries }
}

/// What [`import_solver_memo`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoImportStats {
    /// Entries merged into the live memo.
    pub imported: usize,
    /// Entries dropped: a key id was outside the remap table, or the
    /// live memo already held a verdict for the remapped key.
    pub dropped: usize,
}

/// Merge a persisted verdict memo into the process-wide table,
/// remapping every key id through `remap` (the table returned by
/// [`crate::expr::import_arena`] for the snapshot the memo was saved
/// with). Entries that fail to remap are dropped and counted, never
/// trusted.
pub fn import_solver_memo(export: &MemoExport, remap: &[Expr]) -> MemoImportStats {
    let mut stats = MemoImportStats::default();
    'entry: for (tag, key, verdict) in &export.entries {
        let mut ids: Vec<Expr> = Vec::with_capacity(key.len());
        for &old in key {
            match remap.get(old as usize) {
                Some(&e) => ids.push(e),
                None => {
                    stats.dropped += 1;
                    let si = old as usize % MEMO_SHARDS;
                    lock_memo(si).stale_dropped += 1;
                    continue 'entry;
                }
            }
        }
        // Remapping does not preserve order: re-canonicalize.
        ids.sort_unstable();
        ids.dedup();
        let key = MemoKey::new(*tag, ids.into_boxed_slice());
        let si = key.shard();
        let stamp = next_tick();
        let mut m = lock_memo(si);
        match m.entries.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((verdict.clone(), stamp));
                MEMO_TOTAL.fetch_add(1, Ordering::Relaxed);
                stats.imported += 1;
            }
            std::collections::hash_map::Entry::Occupied(_) => stats.dropped += 1,
        }
    }
    // One batched pass: snapshot imports land in file order, so the
    // surviving tail under a tight cap is the most recently saved.
    enforce_capacity_global();
    stats
}

/// The solver. Stateless between queries apart from options.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    options: SolverOptions,
}

impl Solver {
    /// A solver with default options.
    pub fn new() -> Self {
        Solver::default()
    }

    /// A solver with explicit options.
    pub fn with_options(options: SolverOptions) -> Self {
        Solver { options }
    }

    /// Check whether all `constraints` (non-zero = true) are
    /// simultaneously satisfiable.
    ///
    /// Results are memoized process-wide per canonical constraint set
    /// (sorted, deduplicated ids) and options tag — solving is
    /// deterministic, and the same path conditions recur constantly
    /// across schedules, programs, and worker threads. See
    /// [`solver_memo_stats`].
    pub fn check(&self, constraints: &[Expr]) -> Verdict {
        let span = sct_telemetry::span_start();
        let key = MemoKey::new(self.options.tag(), canonical_key(constraints));
        // L0: the thread-local read cache — no shared lock on a hit.
        if let Some(v) = local_memo_get(&key) {
            MEMO_TLS_HITS.fetch_add(1, Ordering::Relaxed);
            TLS_MEMO_HITS.with(|h| h.set(h.get() + 1));
            if let Some(ns) = sct_telemetry::span_ns(span) {
                record_check_span(true, ns);
            }
            return v;
        }
        let si = key.shard();
        {
            let mut m = lock_memo(si);
            m.queries += 1;
            let stamp = next_tick();
            if let Some((v, hit)) = m.entries.get_mut(&key) {
                *hit = stamp;
                let v = v.clone();
                m.hits += 1;
                drop(m);
                local_memo_put(key, v.clone());
                if let Some(ns) = sct_telemetry::span_ns(span) {
                    record_check_span(true, ns);
                }
                return v;
            }
        }
        let verdict = self.check_uncached(constraints);
        {
            let mut m = lock_memo(si);
            m.misses += 1;
            let stamp = next_tick();
            // Two threads racing on the same uncached key both solve it
            // (deterministically, to the same verdict); only the first
            // insert grows the table.
            if m.entries.insert(key.clone(), (verdict.clone(), stamp)).is_none() {
                MEMO_TOTAL.fetch_add(1, Ordering::Relaxed);
            }
        }
        local_memo_put(key, verdict.clone());
        enforce_capacity_global();
        if let Some(ns) = sct_telemetry::span_ns(span) {
            record_check_span(false, ns);
        }
        verdict
    }

    /// The full solver pipeline, bypassing (and not populating) the
    /// verdict memo.
    pub fn check_uncached(&self, constraints: &[Expr]) -> Verdict {
        // A query-local node cache: every sub-step is read-only against
        // the arena, and each distinct node is fetched (one shard read
        // lock) at most once for the whole query.
        let mut view = LocalView::new();
        // 1. Constant and structural checks.
        let mut live: Vec<Expr> = Vec::new();
        for &c in constraints {
            match view.as_const(c) {
                Some(0) => return Verdict::Unsat,
                Some(_) => {}
                None => live.push(c),
            }
        }
        if live.is_empty() {
            return Verdict::Sat(Model::new());
        }
        // 2. Interval refutation: derive per-variable bounds from the
        // simple comparisons among the constraints, then re-check every
        // constraint under those assumptions.
        let assumptions = match derive_var_intervals(&mut view, &live) {
            Some(a) => a,
            None => return Verdict::Unsat, // contradictory bounds
        };
        if live
            .iter()
            .any(|&c| provably_false_in(&mut view, c, &assumptions))
        {
            return Verdict::Unsat;
        }
        // 3. Model search.
        match self.search(&mut view, &live) {
            Some(model) => Verdict::Sat(model),
            None => Verdict::Unknown,
        }
    }

    /// Find a model for `expr != 0` alone.
    pub fn check_one(&self, expr: &Expr) -> Verdict {
        self.check(std::slice::from_ref(expr))
    }

    /// Find a model and evaluate `expr` under it, preferring small
    /// values — the angr-style concretization used for addresses.
    /// Returns `None` when the constraints are unsatisfiable.
    pub fn concretize(&self, expr: &Expr, constraints: &[Expr]) -> Option<u64> {
        match self.check(constraints) {
            Verdict::Sat(m) => Some(expr.eval(&m)),
            Verdict::Unsat => None,
            // Unknown: fall back to the all-zero model — arbitrary but
            // deterministic, like angr's preferred-value concretization.
            Verdict::Unknown => Some(expr.eval(&Model::new())),
        }
    }

    fn candidate_values(&self, view: &mut LocalView, constraints: &[Expr]) -> Vec<u64> {
        let mut consts = BTreeSet::new();
        for &c in constraints {
            view.collect_consts(c, &mut consts);
        }
        let mut cands = BTreeSet::new();
        for v in [0u64, 1, 2, 3, 4, 8, 16, 255, u64::MAX] {
            cands.insert(v);
        }
        for &c in &consts {
            cands.insert(c);
            cands.insert(c.wrapping_add(1));
            cands.insert(c.wrapping_sub(1));
        }
        // Pairwise sums/differences catch derived values such as the `7`
        // in `x + 5 == 12` (capped: the grid must stay exhaustible).
        let consts: Vec<u64> = consts.into_iter().take(24).collect();
        for &a in &consts {
            for &b in &consts {
                cands.insert(a.wrapping_add(b));
                cands.insert(a.wrapping_sub(b));
            }
        }
        cands.into_iter().collect()
    }

    fn satisfied(view: &mut LocalView, model: &Model, constraints: &[Expr]) -> usize {
        constraints
            .iter()
            .filter(|&&c| view.eval(c, model) != 0)
            .count()
    }

    fn search(&self, view: &mut LocalView, constraints: &[Expr]) -> Option<Model> {
        let mut vars = BTreeSet::new();
        for &c in constraints {
            view.collect_vars(c, &mut vars);
        }
        let vars: Vec<VarId> = vars.into_iter().collect();
        let cands = self.candidate_values(view, constraints);
        let total = constraints.len();

        // Exhaustive product when affordable. When it finds nothing,
        // every point of the candidate grid is refuted.
        let mut grid_refuted = false;
        let combos = cands.len().checked_pow(vars.len() as u32);
        if combos.is_some_and(|n| n <= self.options.exhaustive_budget) {
            let mut model = Model::new();
            if self.exhaustive(view, &vars, &cands, constraints, &mut model, 0) {
                return Some(model);
            }
            grid_refuted = true;
        }

        let mut rng = SmallRng::seed_from_u64(self.options.seed);
        // Random probing with greedy repair.
        for _ in 0..self.options.random_probes {
            let mut off_grid = false;
            let mut model: Model = vars
                .iter()
                .map(|&v| {
                    let x = if rng.gen_bool(0.5) {
                        cands[rng.gen_range(0..cands.len())]
                    } else {
                        let x = rng.gen();
                        off_grid |= cands.binary_search(&x).is_err();
                        x
                    };
                    (v, x)
                })
                .collect();
            // The probe is drawn in full either way, so later probes see
            // the same random stream. A probe on the refuted grid fails,
            // and repair, which only moves variables onto the grid, never
            // leaves it.
            if grid_refuted && !off_grid {
                continue;
            }
            if Self::satisfied(view, &model, constraints) == total {
                return Some(model);
            }
            // Repairing the only variable lands it on the refuted grid
            // or leaves the probe unchanged.
            if grid_refuted && vars.len() == 1 {
                continue;
            }
            // Greedy repair: sweep variables, try every candidate.
            for _ in 0..self.options.repair_rounds {
                let mut improved = false;
                for &v in &vars {
                    let before = Self::satisfied(view, &model, constraints);
                    if before == total {
                        return Some(model);
                    }
                    let orig = model.get(v);
                    let mut best = (before, orig);
                    for &cand in &cands {
                        model.set(v, cand);
                        let score = Self::satisfied(view, &model, constraints);
                        if score > best.0 {
                            best = (score, cand);
                        }
                    }
                    model.set(v, best.1);
                    if best.1 != orig {
                        improved = true;
                    }
                }
                if Self::satisfied(view, &model, constraints) == total {
                    return Some(model);
                }
                if !improved {
                    break;
                }
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn exhaustive(
        &self,
        view: &mut LocalView,
        vars: &[VarId],
        cands: &[u64],
        constraints: &[Expr],
        model: &mut Model,
        depth: usize,
    ) -> bool {
        if depth == vars.len() {
            return Self::satisfied(view, model, constraints) == constraints.len();
        }
        for &c in cands {
            model.set(vars[depth], c);
            if self.exhaustive(view, vars, cands, constraints, model, depth + 1) {
                return true;
            }
        }
        false
    }
}

/// Extract `var ⋈ const` bounds from the constraints and intersect them
/// per variable; `None` means the bounds are contradictory.
fn derive_var_intervals(view: &mut LocalView, constraints: &[Expr]) -> Option<VarIntervals> {
    use crate::interval::Interval;
    use sct_core::op::OpCode::*;

    fn intersect(a: Interval, b: Interval) -> Option<Interval> {
        let lo = a.lo.max(b.lo);
        let hi = a.hi.min(b.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    let mut out = VarIntervals::new();
    let mut refine = |v: VarId, iv: Interval| -> bool {
        let cur = out.get(&v).copied().unwrap_or(Interval::TOP);
        match intersect(cur, iv) {
            Some(joined) => {
                out.insert(v, joined);
                true
            }
            None => false,
        }
    };

    for &c in constraints {
        let Some((op, args)) = view.as_app(c) else {
            continue;
        };
        if args.len() != 2 {
            continue;
        }
        // Normalize to (var ⋈ const).
        let (v, k, op) = match (view.as_var(args[0]), view.as_const(args[1])) {
            (Some(v), Some(k)) => (v, k, op),
            _ => match (view.as_const(args[0]), view.as_var(args[1])) {
                // Mirror: const ⋈ var  ⇒  var ⋈' const.
                (Some(k), Some(v)) => {
                    let mirrored = match op {
                        Lt => Gt,
                        Le => Ge,
                        Gt => Lt,
                        Ge => Le,
                        Eq => Eq,
                        other => {
                            let _ = other;
                            continue;
                        }
                    };
                    (v, k, mirrored)
                }
                _ => continue,
            },
        };
        let iv = match op {
            Eq => Interval::point(k),
            Lt => {
                if k == 0 {
                    return None;
                }
                Interval::new(0, k - 1)
            }
            Le => Interval::new(0, k),
            Gt => {
                if k == u64::MAX {
                    return None;
                }
                Interval::new(k + 1, u64::MAX)
            }
            Ge => Interval::new(k, u64::MAX),
            _ => continue,
        };
        if !refine(v, iv) {
            return None;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::op::OpCode;

    fn x() -> Expr {
        Expr::var(VarId(0))
    }

    fn y() -> Expr {
        Expr::var(VarId(1))
    }

    #[test]
    fn trivial_cases() {
        let s = Solver::new();
        assert_eq!(s.check(&[]), Verdict::Sat(Model::new()));
        assert_eq!(s.check(&[Expr::constant(1)]), Verdict::Sat(Model::new()));
        assert_eq!(s.check(&[Expr::constant(0)]), Verdict::Unsat);
    }

    #[test]
    fn finds_bound_satisfying_models() {
        let s = Solver::new();
        // x < 4 (Figure 1's in-bounds path)
        let c = Expr::app(OpCode::Gt, vec![Expr::constant(4), x()]);
        match s.check(std::slice::from_ref(&c)) {
            Verdict::Sat(m) => assert!(m.get(VarId(0)) < 4),
            other => panic!("expected sat, got {other:?}"),
        }
        // ¬(4 > x), i.e. x ≥ 4 (the out-of-bounds path)
        let neg = Expr::app(OpCode::Eq, vec![c, Expr::constant(0)]);
        match s.check(&[neg]) {
            Verdict::Sat(m) => assert!(m.get(VarId(0)) >= 4),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn refutes_contradictions() {
        let s = Solver::new();
        // x < 2 together with x > 5: the derived per-variable intervals
        // are disjoint, so this is proven Unsat.
        let a = Expr::app(OpCode::Lt, vec![x(), Expr::constant(2)]);
        let b = Expr::app(OpCode::Gt, vec![x(), Expr::constant(5)]);
        assert_eq!(s.check(&[a, b]), Verdict::Unsat);
        // Mirrored operand order is normalized: 2 > x ∧ 5 < x.
        let a = Expr::app(OpCode::Gt, vec![Expr::constant(2), x()]);
        let b = Expr::app(OpCode::Lt, vec![Expr::constant(5), x()]);
        assert_eq!(s.check(&[a, b]), Verdict::Unsat);
    }

    #[test]
    fn refutes_impossible_strict_bounds() {
        let s = Solver::new();
        // x < 0 is unsatisfiable for unsigned x.
        let c = Expr::app(OpCode::Lt, vec![x(), Expr::constant(0)]);
        assert_eq!(s.check(&[c]), Verdict::Unsat);
        // x > u64::MAX likewise.
        let c = Expr::app(OpCode::Gt, vec![x(), Expr::constant(u64::MAX)]);
        assert_eq!(s.check(&[c]), Verdict::Unsat);
    }

    #[test]
    fn refutes_reflexive_falsehood() {
        let s = Solver::new();
        let c = Expr::app(OpCode::Lt, vec![x(), x()]);
        assert_eq!(s.check(&[c]), Verdict::Unsat);
    }

    #[test]
    fn solves_equalities_on_two_vars() {
        let s = Solver::new();
        // x + 5 == y  ∧  y == 12
        let c1 = Expr::app(
            OpCode::Eq,
            vec![
                Expr::app(OpCode::Add, vec![x(), Expr::constant(5)]),
                y(),
            ],
        );
        let c2 = Expr::app(OpCode::Eq, vec![y(), Expr::constant(12)]);
        match s.check(&[c1, c2]) {
            Verdict::Sat(m) => {
                assert_eq!(m.get(VarId(0)), 7);
                assert_eq!(m.get(VarId(1)), 12);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn concretize_prefers_a_model() {
        let s = Solver::new();
        let c = Expr::app(OpCode::Gt, vec![Expr::constant(4), x()]);
        let addr = Expr::app(OpCode::Add, vec![Expr::constant(0x40), x()]);
        let a = s.concretize(&addr, &[c]).unwrap();
        assert!((0x40..0x44).contains(&a));
    }

    #[test]
    fn concretize_of_unsat_is_none() {
        let s = Solver::new();
        assert_eq!(s.concretize(&x(), &[Expr::constant(0)]), None);
    }

    #[test]
    fn deterministic_given_seed() {
        let s1 = Solver::new();
        let s2 = Solver::new();
        let c = Expr::app(OpCode::Gt, vec![x(), Expr::constant(1000)]);
        assert_eq!(s1.check(std::slice::from_ref(&c)), s2.check(&[c]));
    }

    #[test]
    fn concurrent_checks_agree() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let s = Solver::new();
                    let _ = t;
                    (0..16u64)
                        .map(|k| {
                            let c = Expr::app(
                                OpCode::Gt,
                                vec![Expr::var(VarId(400)), Expr::constant(0x7000 + k)],
                            );
                            s.check(&[c]).is_sat()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &results[1..] {
            assert_eq!(&results[0], other, "memo races must not change verdicts");
        }
    }

    /// The model search without the refuted-grid skips: every probe is
    /// evaluated and every failed probe repaired. Returns the model and
    /// whether the exhaustive pass refuted the whole grid.
    fn reference_search(
        s: &Solver,
        view: &mut LocalView,
        constraints: &[Expr],
    ) -> (Option<Model>, bool) {
        let mut vars = BTreeSet::new();
        for &c in constraints {
            view.collect_vars(c, &mut vars);
        }
        let vars: Vec<VarId> = vars.into_iter().collect();
        let cands = s.candidate_values(view, constraints);
        let total = constraints.len();
        let mut grid_refuted = false;
        let combos = cands.len().checked_pow(vars.len() as u32);
        if combos.is_some_and(|n| n <= s.options.exhaustive_budget) {
            let mut model = Model::new();
            if s.exhaustive(view, &vars, &cands, constraints, &mut model, 0) {
                return (Some(model), false);
            }
            grid_refuted = true;
        }
        let mut rng = SmallRng::seed_from_u64(s.options.seed);
        for _ in 0..s.options.random_probes {
            let mut model: Model = vars
                .iter()
                .map(|&v| {
                    let x = if rng.gen_bool(0.5) {
                        cands[rng.gen_range(0..cands.len())]
                    } else {
                        rng.gen()
                    };
                    (v, x)
                })
                .collect();
            if Solver::satisfied(view, &model, constraints) == total {
                return (Some(model), grid_refuted);
            }
            for _ in 0..s.options.repair_rounds {
                let mut improved = false;
                for &v in &vars {
                    let before = Solver::satisfied(view, &model, constraints);
                    if before == total {
                        return (Some(model), grid_refuted);
                    }
                    let orig = model.get(v);
                    let mut best = (before, orig);
                    for &cand in &cands {
                        model.set(v, cand);
                        let score = Solver::satisfied(view, &model, constraints);
                        if score > best.0 {
                            best = (score, cand);
                        }
                    }
                    model.set(v, best.1);
                    if best.1 != orig {
                        improved = true;
                    }
                }
                if Solver::satisfied(view, &model, constraints) == total {
                    return (Some(model), grid_refuted);
                }
                if !improved {
                    break;
                }
            }
        }
        (None, grid_refuted)
    }

    fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
        xs[rng.gen_range(0..xs.len())]
    }

    /// A random query over one to three variables, in the shapes the
    /// explorer issues: branch conditions wrapped as `ne(cmp, 0)` or
    /// `eq(cmp, 0)`, load-address probes `eq(add(v, c), k)`, and masked
    /// products `eq(and(mul(v, c), 0x1f), k)`, which can have models
    /// only off the candidate grid. Each variable gets one constraint,
    /// and one more may follow. The more variables, the fewer constants,
    /// so most grids stay small enough to search in full.
    fn random_query(rng: &mut SmallRng) -> Vec<Expr> {
        let vars = rng.gen_range(1..4u32);
        let pool: Vec<u64> = (0..rng.gen_range(1..5 - vars))
            .map(|_| pick(rng, &[3, 5, 7, 0x40, 0x44, 0x4b, 1000]))
            .collect();
        let var = |rng: &mut SmallRng| Expr::var(VarId(rng.gen_range(0..vars)));
        let konst = |rng: &mut SmallRng| Expr::constant(pick(rng, &pool));
        let term = |rng: &mut SmallRng| match rng.gen_range(0..3) {
            0 => var(rng),
            1 => konst(rng),
            _ => Expr::app(OpCode::Add, vec![var(rng), konst(rng)]),
        };
        let cmps = [
            OpCode::Lt,
            OpCode::Le,
            OpCode::Gt,
            OpCode::Ge,
            OpCode::Eq,
            OpCode::Ne,
        ];
        // A mask constant would push a three-variable grid past the
        // exhaustive budget, so only smaller queries get masked products.
        let shapes = if vars == 3 { 3 } else { 4 };
        let about = |rng: &mut SmallRng, v: Expr| match rng.gen_range(0..shapes) {
            0 | 1 => {
                let mut operands = vec![v, term(rng)];
                if rng.gen_bool(0.5) {
                    operands.reverse();
                }
                let cond = Expr::app(pick(rng, &cmps), operands);
                let wrap = pick(rng, &[OpCode::Ne, OpCode::Eq]);
                Expr::app(wrap, vec![cond, Expr::constant(0)])
            }
            2 => {
                let addr = Expr::app(OpCode::Add, vec![v, konst(rng)]);
                Expr::app(OpCode::Eq, vec![addr, konst(rng)])
            }
            _ => {
                let product = Expr::app(OpCode::Mul, vec![v, konst(rng)]);
                let low = Expr::app(OpCode::And, vec![product, Expr::constant(0x1f)]);
                Expr::app(
                    OpCode::Eq,
                    vec![low, Expr::constant(pick(rng, &pool) & 0x1f)],
                )
            }
        };
        let mut query: Vec<Expr> = (0..vars).map(|v| about(rng, Expr::var(VarId(v)))).collect();
        if rng.gen_bool(0.5) {
            let v = var(rng);
            query.push(about(rng, v));
        }
        query
    }

    /// The refuted-grid skips are exact: `search` returns the same
    /// `Option<Model>` as the search without them, on the Figure 1 probe
    /// and on seeded random queries. Only the two searches are compared,
    /// never a pinned verdict.
    #[test]
    fn search_matches_the_search_without_refuted_grid_skips() {
        // Figure 1, in-bounds path: can `0x40 + ra` hit secret cell 0x4b?
        let v0 = x();
        let figure1 = vec![
            Expr::app(
                OpCode::Ne,
                vec![
                    Expr::app(OpCode::Gt, vec![Expr::constant(4), v0]),
                    Expr::constant(0),
                ],
            ),
            Expr::app(
                OpCode::Eq,
                vec![
                    Expr::app(OpCode::Add, vec![v0, Expr::constant(0x40)]),
                    Expr::constant(0x4b),
                ],
            ),
        ];
        let mut rng = SmallRng::seed_from_u64(0xe8ac7);
        let mut queries = vec![(figure1, SolverOptions::default())];
        for _ in 0..2_000 {
            let options = SolverOptions {
                random_probes: pick(&mut rng, &[16, 64]),
                repair_rounds: pick(&mut rng, &[1, 4]),
                seed: rng.gen(),
                ..SolverOptions::default()
            };
            queries.push((random_query(&mut rng), options));
        }
        // Queries whose grid was refuted, by variable count, and how many
        // of those a probe still solved off the grid.
        let mut refuted = [0usize; 4];
        let mut solved_off_grid = 0;
        for (i, (constraints, options)) in queries.iter().enumerate() {
            let s = Solver::with_options(*options);
            let got = s.search(&mut LocalView::new(), constraints);
            let (want, grid_refuted) = reference_search(&s, &mut LocalView::new(), constraints);
            assert_eq!(got, want, "query {i}: {constraints:?}");
            assert!(
                i > 0 || grid_refuted,
                "the Figure 1 probe must reach the skips"
            );
            if grid_refuted {
                let vars: BTreeSet<VarId> = constraints.iter().flat_map(|c| c.vars()).collect();
                refuted[vars.len()] += 1;
                solved_off_grid += usize::from(want.is_some());
            }
        }
        assert!(
            refuted[1..].iter().all(|&n| n >= 50) && solved_off_grid >= 5,
            "the generator must reach the skips at every variable count: \
             {refuted:?} refuted, {solved_off_grid} solved off the grid"
        );
    }
}
