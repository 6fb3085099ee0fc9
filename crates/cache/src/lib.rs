//! # sct-cache
//!
//! Warm-start persistence for the symbolic substrate: expression-arena
//! snapshots and memoized solver verdicts, saved to disk between runs
//! so repeated CLI/CI invocations over the same corpus do not rebuild
//! the arena or re-solve recurring path conditions from nothing.
//!
//! Three cooperating layers:
//!
//! * **Arena snapshots** — the process-wide interner flattened to a
//!   table of `(op, child-indices)` triples plus the memoized
//!   application-constructor cache ([`sct_symx::export_arena`]),
//!   serialized with a hand-rolled binary codec (see [`snapshot`]).
//!   Loading re-interns every node structurally, so a snapshot can
//!   hydrate a **non-empty** arena: ids are remapped, shared structure
//!   lands on existing ids, and snapshots from different processes
//!   compose.
//! * **Solver verdict memoization** — `Solver::check` results keyed by
//!   the canonical sorted constraint-id vector and the solver-options
//!   tag ([`sct_symx::export_all`]), persisted alongside the
//!   arena and remapped through the same table on load.
//! * **Epoch lifecycle** — [`sct_symx::retire_arena`] lets a long-lived
//!   process drop the whole arena (and the verdict memo with it)
//!   between batches; stale `ExprRef`s are detected by an epoch tag and
//!   panic instead of aliasing nodes of the new epoch. Snapshots are
//!   epoch-agnostic: they store indices, never raw tagged ids.
//!
//! # On-disk format
//!
//! A snapshot file is `magic ∥ version ∥ arena ∥ app-cache ∥ memo ∥
//! checksum` (all integers little-endian; see [`snapshot`] for the
//! exact field layout). **Versioning and invalidation rules:**
//!
//! * the 8-byte magic `SCTCACHE` and a `u32` format version head the
//!   file; an unknown version is rejected outright — there is no
//!   cross-version migration, a stale cache is simply rebuilt;
//! * the trailing FNV-1a 64 checksum covers every preceding byte;
//!   truncated or bit-flipped files are rejected before anything is
//!   imported;
//! * every structural invariant is re-validated on load (child indices
//!   strictly below their parent, opcode bytes in range, arities
//!   respected, cache and memo indices inside the node table) — a
//!   snapshot is untrusted input, and a malformed one leaves the
//!   process arena untouched;
//! * memoized verdicts carry the solver-options tag they were computed
//!   under; a solver running with different options never reads them
//!   (they stay in the table keyed under their own tag);
//! * a load **merges**: nodes already interned count as `preexisting`
//!   (the disk hit), verdicts already memoized keep the live entry.
//!
//! Failure of [`load`] is always safe to ignore — the caller falls back
//! to a cold start and the next [`save`] rewrites the file.
//!
//! # Example
//!
//! ```no_run
//! use sct_cache::{load_if_exists, save};
//!
//! let path = std::path::Path::new("target/sct.cache");
//! if let Ok(Some(stats)) = load_if_exists(path) {
//!     eprintln!("warm start: {} nodes ({} new)", stats.snapshot_nodes, stats.added);
//! }
//! // ... run analyses; the arena and verdict memo fill up ...
//! save(path).expect("persist warm-start cache");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod snapshot;
mod store;

pub use snapshot::{HydrateStats, PruneStats, Snapshot, SnapshotError, FORMAT_VERSION};
pub use store::{
    load, load_if_exists, quarantine, save, save_rooted, CacheError, LoadStats, SaveStats,
};
