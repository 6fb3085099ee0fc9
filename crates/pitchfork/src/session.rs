//! The unified analysis session: one entry point owning options,
//! search strategy, warm-start cache, observers, and the arena epoch
//! lifecycle.
//!
//! Everything the crate can do — single-program analysis, symbolic
//! inputs, corpus batches, warm-start persistence, epoch retirement —
//! goes through [`AnalysisSession`], configured once via
//! [`SessionBuilder`].
//!
//! ```
//! use pitchfork::{AnalysisSession, StrategyKind};
//! use sct_core::examples::fig1;
//!
//! let (program, config) = fig1();
//! let mut session = AnalysisSession::builder()
//!     .v1_mode(20)
//!     .strategy(StrategyKind::Fifo)
//!     .build()
//!     .unwrap();
//! let report = session.analyze(&program, &config);
//! assert!(report.verdict().is_insecure());
//! ```

use crate::batch::{BatchItem, BatchOutcome, BatchReport, BatchTotals};
use crate::detector::DetectorOptions;
use crate::explorer::Explorer;
use crate::incremental::{BaselineManifest, IncrementalGate, IncrementalReport};
use crate::observe::{emit, BoxObserver, Event};
use crate::report::Report;
use crate::state::SymState;
use crate::strategy::StrategyKind;
use sct_core::{Config, Program, Reg};
use sct_symx::arena_stats;
use std::path::PathBuf;
use std::time::Instant;

/// Builder for [`AnalysisSession`]: detector mode, bounds, dedup,
/// search strategy, cache path, default symbolized registers, and
/// observers.
#[derive(Default)]
pub struct SessionBuilder {
    options: DetectorOptions,
    cache: Option<PathBuf>,
    symbolic: Vec<Reg>,
    observers: Vec<BoxObserver>,
}

impl SessionBuilder {
    /// A builder with default options (v1-style exploration, LIFO
    /// frontier, no cache).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Replace the full detector options.
    pub fn options(mut self, options: DetectorOptions) -> Self {
        self.options = options;
        self
    }

    /// The paper's Spectre v1/v1.1 mode at `bound` (keeps the already
    /// configured strategy and dedup setting).
    pub fn v1_mode(self, bound: usize) -> Self {
        self.mode(DetectorOptions::v1_mode(bound))
    }

    /// The paper's Spectre v4 mode at `bound`.
    pub fn v4_mode(self, bound: usize) -> Self {
        self.mode(DetectorOptions::v4_mode(bound))
    }

    /// Aliasing-predictor extension mode at `bound`.
    pub fn alias_mode(self, bound: usize) -> Self {
        self.mode(DetectorOptions::alias_mode(bound))
    }

    /// Spectre v2 (mistrained indirect jumps) extension mode at `bound`.
    pub fn v2_mode(self, bound: usize) -> Self {
        self.mode(DetectorOptions::v2_mode(bound))
    }

    fn mode(mut self, mode: DetectorOptions) -> Self {
        let strategy = self.options.explorer.strategy;
        let dedup = self.options.explorer.dedup_states;
        let threads = self.options.explorer.threads;
        self.options = mode;
        self.options.explorer.strategy = strategy;
        self.options.explorer.dedup_states = dedup;
        self.options.explorer.threads = threads;
        self
    }

    /// Override the speculation bound.
    pub fn bound(mut self, bound: usize) -> Self {
        self.options.explorer.spec_bound = bound;
        self
    }

    /// Toggle fingerprint deduplication.
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.options.explorer.dedup_states = dedup;
        self
    }

    /// Override the state-expansion budget.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.options.explorer.max_states = max_states;
        self
    }

    /// Select the frontier order.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.options.explorer.strategy = strategy;
        self
    }

    /// Worker threads per exploration: `1` (the default) is the serial
    /// engine, byte-identical to previous releases; `n > 1` explores
    /// each program's frontier on `n` threads; `0` means one worker
    /// per available core. Verdicts and witness sets are unchanged —
    /// see the crate-level "Parallel exploration" section for the
    /// determinism contract.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.options.explorer.threads = threads;
        self
    }

    /// Attach a warm-start cache file. [`SessionBuilder::build`] will
    /// hydrate the expression arena and solver-verdict memo from it (a
    /// missing file is a cold start, not an error), and
    /// [`AnalysisSession::save`] / [`AnalysisSession::retire`] persist
    /// back to the same path.
    pub fn cache(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache = Some(path.into());
        self
    }

    /// Registers to symbolize by default in [`AnalysisSession::analyze`]
    /// (covering all attacker-chosen values instead of the concrete
    /// configuration's).
    pub fn symbolize(mut self, regs: impl IntoIterator<Item = Reg>) -> Self {
        self.symbolic = regs.into_iter().collect();
        self
    }

    /// Register an event observer (may be called repeatedly; events fan
    /// out to all observers in registration order).
    pub fn observer(mut self, observer: BoxObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Build the session, hydrating the cache if one is attached and
    /// present on disk. The only error source is a corrupt or unreadable
    /// cache file; callers that prefer degrading to a cold start can
    /// drop the cache path and rebuild.
    pub fn build(self) -> Result<AnalysisSession, sct_cache::CacheError> {
        let cache_load = match &self.cache {
            Some(path) => sct_cache::load_if_exists(path)?,
            None => None,
        };
        Ok(AnalysisSession {
            options: self.options,
            symbolic: self.symbolic,
            cache_path: self.cache,
            cache_load,
            observers: self.observers,
            epochs_retired: 0,
        })
    }
}

/// The unified entry point: owns detector options, the search
/// strategy, the warm-start cache binding, registered observers, and
/// the process-arena epoch lifecycle.
///
/// A session is the *only* place the crate wires solver state, cache
/// files, and epochs together; the CLI, the litmus harness, the Table 2
/// driver, and the examples all construct one.
pub struct AnalysisSession {
    options: DetectorOptions,
    symbolic: Vec<Reg>,
    cache_path: Option<PathBuf>,
    cache_load: Option<sct_cache::LoadStats>,
    observers: Vec<BoxObserver>,
    epochs_retired: usize,
}

impl AnalysisSession {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// An uncached session over `options` (infallible, unlike
    /// [`SessionBuilder::build`], which may load a cache).
    pub fn with_options(options: DetectorOptions) -> Self {
        AnalysisSession {
            options,
            symbolic: Vec::new(),
            cache_path: None,
            cache_load: None,
            observers: Vec::new(),
            epochs_retired: 0,
        }
    }

    /// The current detector options.
    pub fn options(&self) -> &DetectorOptions {
        &self.options
    }

    /// Swap detector options mid-session: mode changes between batches
    /// reuse the session's cache/epoch state. The session's sticky
    /// knobs — search strategy, deduplication, and parallelism —
    /// survive the swap, mirroring the builder's mode setters.
    pub fn set_options(&mut self, options: DetectorOptions) {
        let strategy = self.options.explorer.strategy;
        let dedup = self.options.explorer.dedup_states;
        let threads = self.options.explorer.threads;
        self.options = options;
        self.options.explorer.strategy = strategy;
        self.options.explorer.dedup_states = dedup;
        self.options.explorer.threads = threads;
    }

    /// The active frontier order.
    pub fn strategy(&self) -> StrategyKind {
        self.options.explorer.strategy
    }

    /// The configured worker-thread count (see
    /// [`SessionBuilder::parallelism`]).
    pub fn parallelism(&self) -> usize {
        self.options.explorer.threads
    }

    /// What the warm-start load transferred (`None` without a cache, or
    /// when the file did not exist).
    pub fn cache_load(&self) -> Option<&sct_cache::LoadStats> {
        self.cache_load.as_ref()
    }

    /// Bind a cache path **without** loading from it: subsequent
    /// [`AnalysisSession::save`] / [`AnalysisSession::retire`] calls
    /// persist there. This is the cold-start recovery path after a
    /// failed [`SessionBuilder::build`] — the unreadable snapshot is
    /// left untouched until a successful save rewrites it.
    pub fn attach_cache(&mut self, path: impl Into<PathBuf>) {
        self.cache_path = Some(path.into());
    }

    /// Epochs retired by this session so far.
    pub fn epochs_retired(&self) -> usize {
        self.epochs_retired
    }

    /// Register an observer on a built session.
    pub fn observe(&mut self, observer: BoxObserver) {
        self.observers.push(observer);
    }

    /// Analyze one program, symbolizing the session's default register
    /// set (none unless [`SessionBuilder::symbolize`] was given).
    pub fn analyze(&mut self, program: &Program, config: &Config) -> Report {
        let regs = std::mem::take(&mut self.symbolic);
        let report = self.analyze_symbolic(program, config, &regs);
        self.symbolic = regs;
        report
    }

    /// Analyze one program with an explicit symbolized-register set
    /// (empty = fully concrete).
    pub fn analyze_symbolic(
        &mut self,
        program: &Program,
        config: &Config,
        symbolic: &[Reg],
    ) -> Report {
        let explorer = Explorer::with_params(program, self.options.params, self.options.explorer);
        let initial = if symbolic.is_empty() {
            SymState::from_config(config)
        } else {
            SymState::from_config_symbolizing(config, symbolic)
        };
        explorer.explore_observed(initial, &mut self.observers)
    }

    /// Analyze every item in order, accumulating totals and arena
    /// deltas and streaming an [`Event::ItemFinished`] per item.
    ///
    /// Per-item `bound` and `symbolic` settings override the session's;
    /// the expression arena is shared across items (and, with a cache,
    /// across processes).
    pub fn run_batch(&mut self, items: impl IntoIterator<Item = BatchItem>) -> BatchReport {
        let arena_before = arena_stats();
        let start = Instant::now();
        let strategy = self.strategy().name();
        let mut outcomes = Vec::new();
        let mut totals = BatchTotals::default();
        let saved_bound = self.options.explorer.spec_bound;
        for item in items {
            if let Some(bound) = item.bound {
                self.options.explorer.spec_bound = bound;
            }
            let report = self.analyze_symbolic(&item.program, &item.config, &item.symbolic);
            self.options.explorer.spec_bound = saved_bound;
            totals.programs += 1;
            totals.flagged += usize::from(report.has_violations());
            totals.states += report.stats.states;
            totals.deduped += report.stats.deduped;
            totals.steps += report.stats.steps;
            totals.violations += report.violations.len();
            totals.truncated += usize::from(report.stats.truncated);
            totals.solver_queries += report.stats.solver_queries;
            totals.solver_memo_hits += report.stats.solver_memo_hits;
            totals.solver_memo_misses += report.stats.solver_memo_misses;
            totals.solver_memo_evicted += report.stats.solver_memo_evicted;
            emit(
                &mut self.observers,
                Event::ItemFinished {
                    name: &item.name,
                    flagged: report.has_violations(),
                    states: report.stats.states,
                },
            );
            outcomes.push(BatchOutcome {
                name: item.name,
                report,
            });
        }
        BatchReport {
            outcomes,
            totals,
            strategy,
            arena_before,
            arena_after: arena_stats(),
            cache_load: self.cache_load,
            wall: start.elapsed(),
        }
    }

    /// Diff-aware re-analysis: run a batch against a
    /// [`BaselineManifest`], replaying the recorded verdict for every
    /// entry whose fingerprint is unchanged (zero exploration) and
    /// re-exploring only dirty or new entries, through
    /// [`AnalysisSession::run_batch`] — typically against the warm memo
    /// hydrated from the baseline's pruned snapshot. This is the
    /// [`IncrementalGate`] with this session as its analyser, planning
    /// assembled items by fingerprint.
    ///
    /// The returned report carries the refreshed manifest (see
    /// [`crate::incremental::save_baseline`]) and flags verdict flips;
    /// the `ci-gate` CLI verb exits nonzero on any flip to insecure.
    /// Replayed report lines are byte-identical to the baseline's, so
    /// untouched entries diff clean across runs.
    pub fn analyze_incremental(
        &mut self,
        items: impl IntoIterator<Item = BatchItem>,
        baseline: &BaselineManifest,
    ) -> IncrementalReport {
        let mut gate = IncrementalGate::new(baseline, &self.options);
        let fresh: Vec<BatchItem> = items
            .into_iter()
            .filter_map(|item| gate.plan_item(item))
            .collect();
        self.finish_gate(gate, fresh)
    }

    /// Analyse the dirty and new items `gate` handed back, in the order
    /// it handed them back, and finish its report. The gate must plan
    /// under this session's options; `pitchfork ci-gate` plans each
    /// entry's source text ([`IncrementalGate::plan`]) and ends here.
    pub fn finish_gate(
        &mut self,
        gate: IncrementalGate<'_>,
        fresh: Vec<BatchItem>,
    ) -> IncrementalReport {
        let results = self.run_batch(fresh).outcomes.into_iter();
        gate.finish(results.map(|o| (o.report.verdict(), o.report.stats, false)))
    }

    /// Persist the process-wide arena and verdict memo to the attached
    /// cache path. `Ok(None)` when the session has no cache.
    pub fn save(&self) -> Result<Option<sct_cache::SaveStats>, sct_cache::CacheError> {
        match &self.cache_path {
            Some(path) => sct_cache::save(path).map(Some),
            None => Ok(None),
        }
    }

    /// Retire the current arena epoch and warm-start the next one.
    ///
    /// With a cache attached: save the current arena + memo, retire the
    /// epoch (old `ExprRef`s become detectably stale), and hydrate the
    /// fresh epoch from the snapshot just written — the long-running
    /// server loop from the ROADMAP's daemon item. Without a cache the
    /// next epoch starts cold. Returns what the warm start transferred.
    pub fn retire(
        &mut self,
    ) -> Result<Option<sct_cache::LoadStats>, sct_cache::CacheError> {
        self.save()?;
        let epoch = sct_symx::retire_arena();
        // The epoch is gone whatever the reload says: keep the
        // bookkeeping (count, event, cache_load) consistent even when
        // hydration fails — the next epoch is then simply cold.
        self.epochs_retired += 1;
        let reload = match &self.cache_path {
            Some(path) => sct_cache::load_if_exists(path),
            None => Ok(None),
        };
        self.cache_load = reload.as_ref().ok().copied().flatten();
        let rehydrated = self.cache_load.as_ref().map_or(0, |l| l.added);
        emit(
            &mut self.observers,
            Event::EpochRetired { epoch, rehydrated },
        );
        reload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::EntryPlan;
    use crate::observe::{EventLog, Observer};
    use crate::report::Verdict;
    use sct_core::examples::fig1;
    use std::sync::{Arc, Mutex};

    #[test]
    fn session_matches_detector() {
        // The builder's mode setter and the bare detector options
        // bundle configure the same analysis.
        let (p, cfg) = fig1();
        let mut session = AnalysisSession::builder().v1_mode(16).build().unwrap();
        let from_session = session.analyze(&p, &cfg);
        let from_detector =
            AnalysisSession::with_options(DetectorOptions::v1_mode(16)).analyze(&p, &cfg);
        assert_eq!(from_session.verdict(), from_detector.verdict());
        assert_eq!(from_session.stats.states, from_detector.stats.states);
    }

    #[test]
    fn builder_configures_strategy_and_symbolic() {
        let (p, cfg) = fig1();
        let mut session = AnalysisSession::builder()
            .v1_mode(16)
            .strategy(StrategyKind::Fifo)
            .symbolize([sct_core::reg::names::RA])
            .build()
            .unwrap();
        assert_eq!(session.strategy(), StrategyKind::Fifo);
        let report = session.analyze(&p, &cfg);
        assert_eq!(report.stats.strategy, "fifo");
        assert!(report.verdict().is_insecure());
    }

    #[test]
    fn observers_stream_events() {
        // Shared handle: the session owns the observer (observers are
        // `Send`, hence the mutex), the test reads the aggregate
        // through the Arc after analysis.
        let log = Arc::new(Mutex::new(EventLog::default()));
        let handle = Arc::clone(&log);
        let (p, cfg) = fig1();
        let mut session = AnalysisSession::builder()
            .v1_mode(16)
            .observer(Box::new(move |e: &Event<'_>| {
                handle.lock().unwrap().on_event(e)
            }))
            .build()
            .unwrap();
        let report = session.run_batch(vec![BatchItem::new("fig1", p, cfg)]);
        let log = log.lock().unwrap();
        assert_eq!(log.states_expanded, report.totals.states);
        assert!(log.violations_found >= 1);
        assert_eq!(log.items_finished, 1);
        assert_eq!(
            log.first_witness_states,
            report.outcomes[0].report.stats.first_witness_states
        );
    }

    // Epoch retirement (`retire_starts_a_new_epoch`) is covered in
    // `tests/serve_e2e.rs`: retiring invalidates the process-wide
    // arena, so it must not race the other unit tests in this binary.

    #[test]
    fn incremental_replays_unchanged_and_dirties_config_changes() {
        let (p, cfg) = fig1();
        let mut session = AnalysisSession::builder().v1_mode(16).build().unwrap();
        let items = || vec![BatchItem::new("fig1", p.clone(), cfg.clone())];
        let cold = session.analyze_incremental(items(), &BaselineManifest::empty());
        assert_eq!(cold.reanalyzed, 1);
        assert_eq!(cold.outcomes[0].plan, EntryPlan::New);
        assert!(cold.states_explored > 0);

        // Same corpus, same config: everything replays, nothing explores,
        // and the report line is byte-identical.
        let warm = session.analyze_incremental(items(), &cold.manifest);
        assert_eq!(warm.reused, 1);
        assert_eq!(warm.reanalyzed, 0);
        assert_eq!(warm.states_explored, 0);
        assert_eq!(warm.states_skipped, cold.states_explored);
        assert_eq!(warm.outcomes[0].line, cold.outcomes[0].line);
        assert!(warm.regressions().is_empty());

        // A per-item bound change moves the config tag: dirty, re-run.
        let rebound = vec![BatchItem::with_bound("fig1", p.clone(), cfg.clone(), 4)];
        let dirty = session.analyze_incremental(rebound, &warm.manifest);
        assert_eq!(dirty.reanalyzed, 1);
        assert!(matches!(dirty.outcomes[0].plan, EntryPlan::Dirty));
    }

    #[test]
    fn unknown_verdict_on_tiny_budget() {
        let (p, cfg) = fig1();
        let mut session = AnalysisSession::builder()
            .v1_mode(16)
            .max_states(1)
            .build()
            .unwrap();
        let report = session.analyze(&p, &cfg);
        assert!(matches!(report.verdict(), Verdict::Unknown { .. }));
    }
}
