//! Batch analysis: many programs through one detector configuration and
//! one shared expression arena.
//!
//! [`crate::AnalysisSession::run_batch`] is the batch engine; the types
//! here ([`BatchItem`], [`BatchReport`], [`BatchTotals`]) are its
//! vocabulary.
//!
//! The hash-consed arena (see [`sct_symx::arena_stats`]) is
//! process-wide, so analyzing a whole corpus in one batch lets later
//! programs hit the expression and simplification caches warmed by
//! earlier ones; [`BatchReport`] surfaces exactly how much structure
//! was shared, along with aggregate exploration statistics.

use crate::report::Report;
use sct_core::{Config, Program, Reg};
use sct_symx::ArenaStats;
use std::fmt;
use std::time::Duration;

/// One program to analyze.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Display name (e.g. the litmus case or case-study name).
    pub name: String,
    /// The program.
    pub program: Program,
    /// The initial configuration.
    pub config: Config,
    /// Per-item speculation-bound override (`None` uses the batch
    /// options' bound).
    pub bound: Option<usize>,
    /// Registers replaced by fresh symbolic inputs (covering every
    /// value of those registers instead of the one in `config`); empty
    /// means fully concrete analysis.
    pub symbolic: Vec<Reg>,
}

impl BatchItem {
    /// An item analyzed at the batch-wide bound.
    pub fn new(name: impl Into<String>, program: Program, config: Config) -> Self {
        BatchItem {
            name: name.into(),
            program,
            config,
            bound: None,
            symbolic: Vec::new(),
        }
    }

    /// An item with its own speculation bound.
    pub fn with_bound(name: impl Into<String>, program: Program, config: Config, bound: usize) -> Self {
        BatchItem {
            name: name.into(),
            program,
            config,
            bound: Some(bound),
            symbolic: Vec::new(),
        }
    }

    /// The same item with `regs` symbolized (the batch equivalent of
    /// [`crate::AnalysisSession::analyze_symbolic`]); symbolic analyses exercise the
    /// constraint solver, so these items populate — and profit from —
    /// the verdict memo.
    pub fn symbolize(mut self, regs: impl IntoIterator<Item = Reg>) -> Self {
        self.symbolic = regs.into_iter().collect();
        self
    }
}

/// The analysis result for one batch item.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The item's name.
    pub name: String,
    /// Its full report.
    pub report: Report,
}

/// Aggregate statistics over a whole batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTotals {
    /// Programs analyzed.
    pub programs: usize,
    /// Programs with at least one violation.
    pub flagged: usize,
    /// States expanded across all programs.
    pub states: usize,
    /// Duplicate states pruned across all programs.
    pub deduped: usize,
    /// Machine steps across all programs.
    pub steps: usize,
    /// Violations found across all programs.
    pub violations: usize,
    /// Programs whose exploration hit a budget.
    pub truncated: usize,
    /// Solver feasibility queries across all programs.
    pub solver_queries: usize,
    /// Queries answered from the verdict memo across all programs.
    pub solver_memo_hits: usize,
    /// Queries that ran the full solver pipeline.
    pub solver_memo_misses: usize,
    /// Memoized verdicts evicted by the capacity guard during the
    /// batch (see [`sct_symx::set_solver_memo_capacity`]).
    pub solver_memo_evicted: usize,
}

impl BatchTotals {
    /// Fraction of solver queries answered from the verdict memo.
    pub fn solver_memo_hit_rate(&self) -> f64 {
        if self.solver_queries == 0 {
            0.0
        } else {
            self.solver_memo_hits as f64 / self.solver_queries as f64
        }
    }
}

/// The result of [`crate::AnalysisSession::run_batch`].
///
/// # Examples
///
/// ```
/// use pitchfork::{AnalysisSession, BatchItem, DetectorOptions};
/// use sct_core::examples::fig1;
///
/// let (program, config) = fig1();
/// let batch = AnalysisSession::with_options(DetectorOptions::v1_mode(16))
///     .run_batch(vec![BatchItem::new("fig1", program, config)]);
/// assert_eq!(batch.totals.programs, 1);
/// assert_eq!(batch.totals.flagged, 1);
/// ```
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-item outcomes, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregate exploration statistics.
    pub totals: BatchTotals,
    /// The frontier order the batch ran under (see
    /// [`crate::StrategyKind::name`]).
    pub strategy: &'static str,
    /// Arena counters when the batch started.
    pub arena_before: ArenaStats,
    /// Arena counters when the batch finished.
    pub arena_after: ArenaStats,
    /// What the warm-start cache load transferred, when the session
    /// was built with [`crate::SessionBuilder::cache`] and the file
    /// existed.
    pub cache_load: Option<sct_cache::LoadStats>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Expression nodes interned during this batch (new structure that
    /// no earlier program — in or before the batch — had built).
    pub fn fresh_nodes(&self) -> usize {
        self.arena_after.nodes - self.arena_before.nodes
    }

    /// States per second over the whole batch.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.totals.states as f64 / secs
        }
    }

    /// The outcome for a named item, if present.
    pub fn outcome(&self, name: &str) -> Option<&BatchOutcome> {
        self.outcomes.iter().find(|o| o.name == name)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch[{}]: {} programs, {} flagged; {} states ({} deduped), {} steps in {:.1?} ({:.0} states/s)",
            self.strategy,
            self.totals.programs,
            self.totals.flagged,
            self.totals.states,
            self.totals.deduped,
            self.totals.steps,
            self.wall,
            self.states_per_sec(),
        )?;
        writeln!(
            f,
            "arena: {} nodes (+{} this batch), app cache {} hits / {} misses",
            self.arena_after.nodes,
            self.fresh_nodes(),
            self.arena_after.app_cache_hits,
            self.arena_after.app_cache_misses,
        )?;
        writeln!(
            f,
            "solver: {} queries, {} memo hits / {} misses ({:.1}% hit rate), {} evicted",
            self.totals.solver_queries,
            self.totals.solver_memo_hits,
            self.totals.solver_memo_misses,
            100.0 * self.totals.solver_memo_hit_rate(),
            self.totals.solver_memo_evicted,
        )?;
        if let Some(load) = &self.cache_load {
            writeln!(f, "cache: warm start — {load}")?;
        }
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:<32} {:<24} {:>6} states {:>6} deduped{}",
                o.name,
                o.report.verdict(),
                o.report.stats.states,
                o.report.stats.deduped,
                if o.report.stats.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorOptions;
    use crate::session::AnalysisSession;
    use sct_core::examples::fig1;

    #[test]
    fn batch_aggregates_and_matches_single_runs() {
        let (p, cfg) = fig1();
        let items = vec![
            BatchItem::new("fig1-a", p.clone(), cfg.clone()),
            BatchItem::with_bound("fig1-b", p.clone(), cfg.clone(), 4),
        ];
        let batch = AnalysisSession::with_options(DetectorOptions::v1_mode(16)).run_batch(items);
        assert_eq!(batch.totals.programs, 2);
        assert_eq!(batch.totals.flagged, 2);
        let single = AnalysisSession::with_options(DetectorOptions::v1_mode(16)).analyze(&p, &cfg);
        let in_batch = &batch.outcome("fig1-a").unwrap().report;
        assert_eq!(in_batch.has_violations(), single.has_violations());
        assert_eq!(in_batch.stats.states, single.stats.states);
    }

    #[test]
    fn display_summarizes() {
        let (p, cfg) = fig1();
        let batch = AnalysisSession::with_options(DetectorOptions::v1_mode(8))
            .run_batch(vec![BatchItem::new("fig1", p, cfg)]);
        let text = batch.to_string();
        assert!(text.contains("batch[lifo]: 1 programs"));
        assert!(text.contains("arena:"));
        assert!(text.contains("fig1"));
    }
}
