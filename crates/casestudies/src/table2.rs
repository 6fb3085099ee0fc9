//! Table 2: run Pitchfork over every case study in both modes and
//! render the paper's detection matrix.

use crate::common::{CaseStudy, Variant};
use crate::{donna, meecbc, secretbox, ssl3};
use pitchfork::{AnalysisSession, BatchItem, BatchReport, DetectorOptions, StrategyKind};
use std::fmt;

/// The verdicts for one build of one case study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Flagged in v1/v1.1 mode (no forwarding hazards).
    pub v1: bool,
    /// Flagged in v4 mode (with forwarding hazards).
    pub v4: bool,
    /// The v1-mode run stopped at its state budget.
    pub v1_truncated: bool,
    /// The v4-mode run stopped at its state budget.
    pub v4_truncated: bool,
}

impl Cell {
    /// The paper's notation: `✗` = violation found in v1 mode, `f` =
    /// found only with forwarding-hazard detection, `✓` = no violation.
    /// A symbol that rests on a run which found nothing and truncated
    /// is `?` instead: that run's silence is not a verdict.
    pub fn symbol(&self) -> &'static str {
        if self.v1 {
            "✗"
        } else if self.v1_truncated {
            "?"
        } else if self.v4 {
            "f"
        } else if self.v4_truncated {
            "?"
        } else {
            "✓"
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Row {
    /// Case-study name.
    pub name: &'static str,
    /// The C build's verdicts.
    pub c: Cell,
    /// The FaCT build's verdicts.
    pub fact: Cell,
}

/// The whole table, with the bounds used.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Rows in paper order.
    pub rows: Vec<Row>,
    /// Speculation bound used in v1 mode.
    pub v1_bound: usize,
    /// Speculation bound used in v4 mode.
    pub v4_bound: usize,
}

/// All eight case-study builds (four studies × two variants).
pub fn all_studies() -> Vec<CaseStudy> {
    vec![
        donna::c_variant(),
        donna::fact_variant(),
        secretbox::c_variant(),
        secretbox::fact_variant(),
        ssl3::c_variant(),
        ssl3::fact_variant(),
        meecbc::c_variant(),
        meecbc::fact_variant(),
    ]
}

/// The key a study gets inside the Table 2 batches.
fn item_name(study: &CaseStudy) -> String {
    format!(
        "{}/{}",
        study.name,
        match study.variant {
            Variant::C => "c",
            Variant::Fact => "fact",
        }
    )
}

/// All eight builds as batch items.
pub fn batch_items() -> Vec<BatchItem> {
    all_studies()
        .into_iter()
        .map(|s| BatchItem::new(item_name(&s), s.program, s.config))
        .collect()
}

/// Run the full Table 2 experiment under the given frontier order,
/// mirroring §4.2.1's procedure: v1 mode with a deep bound first; v4
/// mode with a reduced bound. Both passes run through one
/// [`AnalysisSession`], so all eight builds share the expression arena
/// and the aggregate statistics cover the whole matrix.
pub fn run_with_strategy(v1_bound: usize, v4_bound: usize, strategy: StrategyKind) -> Table2 {
    // threads = 1 is the serial engine, byte-identical by contract.
    run_parallel(v1_bound, v4_bound, strategy, 1)
}

/// [`run_with_strategy`] under the default (LIFO) order.
pub fn run(v1_bound: usize, v4_bound: usize) -> Table2 {
    run_with_strategy(v1_bound, v4_bound, StrategyKind::Lifo)
}

/// [`run_with_strategy`] on a multi-threaded frontier: every case
/// study explored by `threads` workers. Detection symbols must match
/// the serial table — the parallel-equivalence suite pins it.
pub fn run_parallel(
    v1_bound: usize,
    v4_bound: usize,
    strategy: StrategyKind,
    threads: usize,
) -> Table2 {
    let mut session = AnalysisSession::builder()
        .v1_mode(v1_bound)
        .strategy(strategy)
        .parallelism(threads)
        .build()
        .expect("uncached session");
    let v1 = session.run_batch(batch_items());
    session.set_options(DetectorOptions::v4_mode(v4_bound));
    let v4 = session.run_batch(batch_items());
    from_batches(&v1, &v4, v1_bound, v4_bound)
}

/// [`run`], warm-started from (and saved back to) a `sct-cache`
/// snapshot through one [`AnalysisSession`]: the v1 batch hydrates the
/// arena and verdict memo from `cache`, both batch reports carry
/// solver-memo statistics, and the state after both passes is
/// persisted for the next invocation. Returns the per-mode batch
/// reports alongside the rendered table.
pub fn run_cached(
    v1_bound: usize,
    v4_bound: usize,
    cache: &std::path::Path,
) -> Result<(Table2, BatchReport, BatchReport), sct_cache::CacheError> {
    let mut session = AnalysisSession::builder()
        .v1_mode(v1_bound)
        .cache(cache)
        .build()?;
    let v1 = session.run_batch(batch_items());
    session.set_options(DetectorOptions::v4_mode(v4_bound));
    let v4 = session.run_batch(batch_items());
    session.save()?;
    Ok((from_batches(&v1, &v4, v1_bound, v4_bound), v1, v4))
}

/// Assemble the detection matrix from one batch per mode (exposed so
/// callers holding their own batch reports, such as `perfbench`, can
/// render the paper's table without re-running).
pub fn from_batches(v1: &BatchReport, v4: &BatchReport, v1_bound: usize, v4_bound: usize) -> Table2 {
    let names = [
        "curve25519-donna",
        "libsodium secretbox",
        "OpenSSL ssl3 record validate",
        "OpenSSL MEE-CBC",
    ];
    // (flagged, truncated) for one build's run in one mode.
    let result = |batch: &BatchReport, key: &str| {
        batch.outcome(key).map_or((false, false), |o| {
            (o.report.has_violations(), o.report.stats.truncated)
        })
    };
    let rows = names
        .into_iter()
        .map(|name| {
            let cell = |variant: &str| {
                let key = format!("{name}/{variant}");
                let (v1_flagged, v1_truncated) = result(v1, &key);
                let (v4_flagged, v4_truncated) = result(v4, &key);
                Cell {
                    v1: v1_flagged,
                    v4: v4_flagged,
                    v1_truncated,
                    v4_truncated,
                }
            };
            Row {
                name,
                c: cell("c"),
                fact: cell("fact"),
            }
        })
        .collect();
    Table2 {
        rows,
        v1_bound,
        v4_bound,
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: ✗ = SCT violation; f = violation only with forwarding"
        )?;
        writeln!(
            f,
            "hazard detection; ✓ = no violation (bounds: v1 {}, v4 {})",
            self.v1_bound, self.v4_bound
        )?;
        if self
            .rows
            .iter()
            .any(|r| r.c.symbol() == "?" || r.fact.symbol() == "?")
        {
            writeln!(
                f,
                "? = no violation found before the search hit its state budget"
            )?;
        }
        writeln!(f)?;
        writeln!(f, "{:<32} {:>4} {:>5}", "Case Study", "C", "FaCT")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<32} {:>4} {:>5}",
                row.name,
                row.c.symbol(),
                row.fact.symbol()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_symbols() {
        let cell = |v1, v1_truncated, v4, v4_truncated| Cell {
            v1,
            v4,
            v1_truncated,
            v4_truncated,
        };
        // Complete runs: the paper's notation.
        assert_eq!(cell(true, false, true, false).symbol(), "✗");
        assert_eq!(cell(false, false, true, false).symbol(), "f");
        assert_eq!(cell(false, false, false, false).symbol(), "✓");
        // A violation found stands, whatever else truncated.
        assert_eq!(cell(true, true, false, true).symbol(), "✗");
        assert_eq!(cell(false, false, true, true).symbol(), "f");
        // A run that found nothing before truncating decides nothing.
        assert_eq!(cell(false, true, true, false).symbol(), "?");
        assert_eq!(cell(false, true, false, false).symbol(), "?");
        assert_eq!(cell(false, false, false, true).symbol(), "?");
    }
}
