//! High-level cache files: capture/save and load/hydrate the
//! process-wide symbolic state with one call each, reporting what was
//! transferred.

use crate::snapshot::{Snapshot, SnapshotError};
use sct_symx::ArenaImportError;
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// Why a cache file could not be saved or loaded.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file decoded to garbage (corruption, truncation, version
    /// skew).
    Format(SnapshotError),
    /// The file decoded but violated a structural invariant during
    /// import.
    Import(ArenaImportError),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache io error: {e}"),
            CacheError::Format(e) => write!(f, "cache format error: {e}"),
            CacheError::Import(e) => write!(f, "cache import error: {e}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<SnapshotError> for CacheError {
    fn from(e: SnapshotError) -> Self {
        CacheError::Format(e)
    }
}

impl From<ArenaImportError> for CacheError {
    fn from(e: ArenaImportError) -> Self {
        CacheError::Import(e)
    }
}

/// What a [`load`] transferred into the process.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadStats {
    /// Nodes in the snapshot file.
    pub snapshot_nodes: usize,
    /// Snapshot nodes the live arena already had.
    pub preexisting: usize,
    /// Snapshot nodes newly interned.
    pub added: usize,
    /// Application-cache pairs merged.
    pub app_cache_merged: usize,
    /// Solver verdicts merged into the memo.
    pub verdicts_imported: usize,
    /// Solver verdicts dropped (unmappable or already memoized).
    pub verdicts_dropped: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: usize,
    /// Wall-clock time for read + decode + hydrate.
    pub load_time: Duration,
}

impl fmt::Display for LoadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes ({} new, {} shared), {} verdicts, {} bytes in {:.1?}",
            self.snapshot_nodes,
            self.added,
            self.preexisting,
            self.verdicts_imported,
            self.bytes,
            self.load_time,
        )
    }
}

/// What a [`save`] or [`save_rooted`] wrote.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SaveStats {
    /// Nodes written.
    pub nodes: usize,
    /// Solver verdicts written.
    pub verdicts: usize,
    /// Verdicts the capacity guard evicted from the live memo before
    /// this save (cumulative for the process; see
    /// [`sct_symx::set_solver_memo_capacity`]) — what the snapshot does
    /// *not* carry because the LRU cap dropped it first.
    pub verdicts_evicted: u64,
    /// File size in bytes as written (post-pruning for
    /// [`save_rooted`]).
    pub bytes: usize,
    /// Unreachable nodes dropped by reachability pruning (0 for the
    /// unpruned [`save`]).
    pub pruned_nodes: usize,
    /// Encoded size the snapshot would have had without pruning: the
    /// on-disk win is `unpruned_bytes - bytes`. Equal to `bytes` for
    /// the unpruned [`save`].
    pub unpruned_bytes: usize,
}

impl fmt::Display for SaveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} verdicts ({} evicted), {} bytes",
            self.nodes, self.verdicts, self.verdicts_evicted, self.bytes
        )?;
        if self.pruned_nodes > 0 {
            write!(
                f,
                " [pruned {} unreachable nodes, {} bytes unpruned]",
                self.pruned_nodes, self.unpruned_bytes
            )?;
        }
        Ok(())
    }
}

/// Load a snapshot file and hydrate the process-wide arena and verdict
/// memo (id-remapped; the arena need not be empty).
///
/// On any error the process state is untouched; treating the error as
/// "cold start" is always sound.
pub fn load(path: &Path) -> Result<LoadStats, CacheError> {
    let start = Instant::now();
    let mut bytes = std::fs::read(path)?;
    if sct_faults::enabled() && sct_faults::should_fire(sct_faults::FaultPoint::SnapshotBitFlip) {
        sct_faults::flip_bit(&mut bytes);
    }
    let snapshot = Snapshot::decode(&bytes)?;
    let stats = snapshot.hydrate()?;
    Ok(LoadStats {
        snapshot_nodes: stats.arena.snapshot_nodes,
        preexisting: stats.arena.preexisting,
        added: stats.arena.added,
        app_cache_merged: stats.arena.app_cache_merged,
        verdicts_imported: stats.memo.imported,
        verdicts_dropped: stats.memo.dropped,
        bytes: bytes.len(),
        load_time: start.elapsed(),
    })
}

/// [`load`], but a missing file is `Ok(None)` (the cold-start case)
/// rather than an error.
pub fn load_if_exists(path: &Path) -> Result<Option<LoadStats>, CacheError> {
    match load(path) {
        Ok(stats) => Ok(Some(stats)),
        Err(CacheError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Move a bad cache file aside to `PATH.bad` (overwriting any previous
/// quarantine of the same path). Returns the destination on success;
/// `None` if the rename failed (e.g. a read-only directory), in which
/// case the file is left in place. Bumps the `cache_quarantined_total`
/// telemetry counter either way — the corruption happened even if the
/// evidence could not be preserved.
pub fn quarantine(path: &Path) -> Option<std::path::PathBuf> {
    if sct_telemetry::enabled() {
        sct_telemetry::counter(sct_telemetry::names::CACHE_QUARANTINED).inc();
    }
    let mut bad = path.as_os_str().to_owned();
    bad.push(".bad");
    let bad = std::path::PathBuf::from(bad);
    match std::fs::rename(path, &bad) {
        Ok(()) => Some(bad),
        Err(_) => None,
    }
}

/// Capture the process-wide arena and verdict memo and write them to
/// `path`, atomically: the bytes land in a uniquely named temporary
/// sibling first (per-process, so concurrent savers to the same path
/// do not clobber each other's half-written bytes) and are renamed
/// over the target, so a crashed writer never leaves a torn cache for
/// the next run to trip on.
pub fn save(path: &Path) -> Result<SaveStats, CacheError> {
    let snapshot = Snapshot::capture();
    let bytes = snapshot.encode();
    write_atomic(path, &bytes)?;
    Ok(SaveStats {
        nodes: snapshot.arena.nodes.len(),
        verdicts: snapshot.memo.entries.len(),
        verdicts_evicted: sct_symx::solver_memo_stats().evicted,
        bytes: bytes.len(),
        pruned_nodes: 0,
        unpruned_bytes: bytes.len(),
    })
}

/// [`save`], but through [`Snapshot::capture_rooted`]: only nodes
/// reachable from the memoized verdicts' keys and the caller's live
/// `roots` are written. The returned [`SaveStats`] reports both the
/// pruned size actually on disk and the size the unpruned snapshot
/// would have encoded to, so the win is visible in stats output and
/// bench artifacts.
pub fn save_rooted(path: &Path, roots: &[sct_symx::ExprRef]) -> Result<SaveStats, CacheError> {
    let (snapshot, prune) = Snapshot::capture_rooted(roots);
    let bytes = snapshot.encode();
    // Pricing the win needs the unpruned encoding too; encoding is
    // linear and saves are rare (retirement / shutdown), so just
    // capture and encode the full snapshot when anything was pruned.
    let unpruned_bytes = if prune.pruned_nodes == 0 {
        bytes.len()
    } else {
        Snapshot::capture().encode().len()
    };
    write_atomic(path, &bytes)?;
    Ok(SaveStats {
        nodes: snapshot.arena.nodes.len(),
        verdicts: snapshot.memo.entries.len(),
        verdicts_evicted: sct_symx::solver_memo_stats().evicted,
        bytes: bytes.len(),
        pruned_nodes: prune.pruned_nodes,
        unpruned_bytes,
    })
}

/// Write `bytes` to `path` atomically: a uniquely named temporary
/// sibling first (per-process, so concurrent savers to the same path
/// do not clobber each other's half-written bytes), renamed over the
/// target, so a crashed writer never leaves a torn cache behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CacheError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&tmp, bytes)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}
