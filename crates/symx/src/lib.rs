//! # sct-symx
//!
//! The symbolic-execution substrate for Pitchfork, built around a
//! **hash-consed expression arena**:
//!
//! * [`ExprRef`] (alias [`Expr`]) — a `Copy` 32-bit id into a
//!   process-wide interner. Structural equality is id equality (O(1)),
//!   every distinct expression is stored once, and the simplifying
//!   constructor [`ExprRef::app`] is memoized, so re-deriving the same
//!   value along different schedules costs a hash lookup;
//! * [`simplify`](crate::simplify) — conservative algebraic rewrites
//!   applied at construction (each distinct application simplifies once
//!   per process, then lives in the cache);
//! * [`interval`](crate::interval) — unsigned interval analysis for
//!   cheap unsatisfiability proofs;
//! * [`solver`](crate::solver) — a heuristic model finder (interval
//!   refutation + candidate/model search) that answers
//!   [`Verdict::Unknown`] rather than missing models, sound for
//!   violation *detection*. Verdicts are memoized process-wide per
//!   canonical constraint set ([`solver_memo_stats`]) — the same path
//!   conditions recur constantly across schedules and programs;
//! * [`symmem`](crate::symmem) — labeled symbolic values ([`SymVal`] is
//!   two words and `Copy`), register files, and memories, all cheap to
//!   clone because contents are interned ids.
//!
//! The arena is shared by every analysis in the process — batch runs
//! over a corpus, and worker threads of one parallel exploration,
//! reuse each other's expressions; [`arena_stats`] reports the
//! sharing. Both the interner and the verdict memo are **lock-striped**
//! ([`NUM_SHARDS`] / [`MEMO_SHARDS`] shards keyed by structural hash),
//! so concurrent interning and memo probes from many threads contend
//! only within a stripe. In front of the stripes each thread keeps
//! small direct-mapped **L1 caches** — interned constants and
//! applications, and memoized solver verdicts — so the dominant hit
//! path touches no shared lock at all; the caches are flushed on epoch
//! retirement. The arena also outlives the process: [`export_all`] /
//! [`import_arena`] flatten and re-intern it with id remapping (the
//! `sct-cache` crate persists both the arena and the verdict memo to
//! disk), and [`retire_arena`] gives
//! long-lived processes an epoch lifecycle — the whole arena is
//! dropped, and any `ExprRef` that outlives the reset is detectably
//! stale (its packed epoch tag no longer matches, so use panics
//! instead of aliasing a new node).
//!
//! The paper builds its tool on angr's symbolic
//! execution (citation 30); this crate is the from-scratch substitute.
//! Like angr, it concretizes memory addresses and over-approximates
//! path feasibility, which is sound for violation detection.
//!
//! # Example
//!
//! ```
//! use sct_symx::expr::{Expr, VarPool};
//! use sct_symx::solver::{Solver, Verdict};
//! use sct_core::OpCode;
//!
//! let mut pool = VarPool::new();
//! let idx = pool.fresh("idx");
//! // The Figure 1 bounds check: 4 > idx.
//! let in_bounds = Expr::app(OpCode::Gt, vec![Expr::constant(4), Expr::var(idx)]);
//! // Interning is structural: rebuilding yields the same id.
//! assert_eq!(
//!     in_bounds,
//!     Expr::app(OpCode::Gt, vec![Expr::constant(4), Expr::var(idx)]),
//! );
//! // Is the out-of-bounds (mispredicted) path feasible? ¬(4 > idx).
//! let oob = Expr::app(OpCode::Eq, vec![in_bounds, Expr::constant(0)]);
//! let verdict = Solver::new().check(&[oob]);
//! assert!(matches!(verdict, Verdict::Sat(_)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expr;
pub mod interval;
pub mod simplify;
pub mod solver;
pub mod symmem;

pub use expr::{
    arena_epoch, arena_stats, export_all, export_all_rooted, export_arena, import_arena,
    retire_arena, ArenaExport, ArenaImportError, ArenaImportStats, ArenaStats, ExportedNode, Expr,
    ExprKind, ExprRef, Model, VarId, VarPool, NUM_SHARDS,
};
pub use interval::{interval_of, Interval};
pub use solver::{
    import_solver_memo, set_solver_memo_capacity, solver_memo_capacity, solver_memo_stats,
    MemoExport, MemoImportStats, Solver, SolverMemoStats, SolverOptions, Verdict,
    DEFAULT_MEMO_CAPACITY, MEMO_SHARDS,
};
pub use symmem::{SymMemory, SymRegFile, SymVal};

/// Drop the calling thread's L1 caches (intern + verdict). The shared
/// arena and memo are untouched; subsequent hits simply go back through
/// the stripes. For tests that pin shared-level behavior (LRU
/// eviction, shard hit counters) and benchmarks measuring cold paths.
pub fn flush_thread_caches() {
    expr::flush_local_caches();
    solver::flush_local_memo();
    flush_thread_telemetry();
}

/// Publish the calling thread's buffered telemetry (check-latency
/// spans) to the process-wide `sct-telemetry` histograms. Buffers also
/// publish on their auto-flush threshold and when the thread exits;
/// this makes a just-finished job's spans visible to a concurrent
/// metrics scrape immediately.
pub fn flush_thread_telemetry() {
    solver::flush_check_spans();
}
