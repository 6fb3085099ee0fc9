//! The warm-start acceptance run: a second batch pass over the
//! litmus corpus + Table 2 with a cache file must hydrate ≥80% of its
//! interned nodes and ≥50% of its `Solver::check` calls from the
//! persisted snapshot, and an epoch reset followed by re-analysis must
//! produce verdicts identical to a fresh-arena run.
//!
//! The cold and warm "processes" are simulated with
//! [`spectre_ct::symx::retire_arena`]: each phase starts from an empty
//! epoch, exactly like a fresh CLI invocation. Everything lives in one
//! `#[test]` because the phases share (and retire) the process-wide
//! arena.

use spectre_ct::casestudies::table2;
use spectre_ct::litmus;
use spectre_ct::pitchfork::BatchReport;
use spectre_ct::symx::{arena_stats, retire_arena};

const V1_BOUND: usize = 40;
const V4_BOUND: usize = 20;

/// Per-item verdicts of a batch, for cold/warm comparison.
fn verdicts(report: &BatchReport) -> Vec<(String, bool)> {
    report
        .outcomes
        .iter()
        .map(|o| (o.name.clone(), o.report.has_violations()))
        .collect()
}

fn solver_counts(reports: &[&BatchReport]) -> (usize, usize) {
    let queries = reports.iter().map(|r| r.totals.solver_queries).sum();
    let hits = reports.iter().map(|r| r.totals.solver_memo_hits).sum();
    (queries, hits)
}

#[test]
fn warm_start_meets_the_acceptance_thresholds() {
    let path = std::env::temp_dir().join(format!(
        "sct_cache_warm_acceptance_{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let cases = litmus::all_cases();

    // --- Cold phase: empty epoch, no cache file. -------------------------
    retire_arena();
    let cold_corpus = litmus::harness::run_corpus_cached(&cases, &path).expect("cold corpus");
    assert!(
        cold_corpus.verdicts.v1.cache_load.is_none(),
        "no cache file yet: the cold run must start cold"
    );
    let (cold_table, cold_t2_v1, cold_t2_v4) =
        table2::run_cached(V1_BOUND, V4_BOUND, &path).expect("cold table2");
    let cold_nodes = arena_stats().nodes;
    let (cold_queries, _) = solver_counts(&[
        &cold_corpus.verdicts.v1,
        &cold_corpus.verdicts.v4,
        cold_corpus.v1_symbolic(),
        &cold_t2_v1,
        &cold_t2_v4,
    ]);
    assert!(cold_nodes > 0 && cold_queries > 0, "workload is non-trivial");

    // --- Warm phase: empty epoch again, hydrate from the snapshot. -------
    retire_arena();
    let warm_corpus = litmus::harness::run_corpus_cached(&cases, &path).expect("warm corpus");
    let load = warm_corpus
        .verdicts
        .v1
        .cache_load
        .expect("second run must warm-start from the snapshot");
    assert!(load.snapshot_nodes > 0, "snapshot must not be empty");
    assert!(load.verdicts_imported > 0, "snapshot must carry verdicts");
    let loaded_nodes = load.added; // into an empty epoch, added == hydrated
    let (warm_table, warm_t2_v1, warm_t2_v4) =
        table2::run_cached(V1_BOUND, V4_BOUND, &path).expect("warm table2");

    // ≥80% of the warm run's interned nodes came from the snapshot.
    let warm_nodes = arena_stats().nodes;
    let fresh = warm_nodes.saturating_sub(loaded_nodes);
    let node_hit_rate = 1.0 - fresh as f64 / cold_nodes as f64;
    assert!(
        node_hit_rate >= 0.8,
        "node disk-hit rate {node_hit_rate:.3} below 0.8 \
         (cold {cold_nodes} nodes, hydrated {loaded_nodes}, fresh {fresh})"
    );

    // ≥50% of the warm run's Solver::check calls answered by the memo.
    let (warm_queries, warm_hits) = solver_counts(&[
        &warm_corpus.verdicts.v1,
        &warm_corpus.verdicts.v4,
        warm_corpus.v1_symbolic(),
        &warm_t2_v1,
        &warm_t2_v4,
    ]);
    let memo_hit_rate = warm_hits as f64 / warm_queries.max(1) as f64;
    assert!(
        memo_hit_rate >= 0.5,
        "solver memo hit rate {memo_hit_rate:.3} below 0.5 \
         ({warm_hits}/{warm_queries})"
    );

    // Epoch reset + re-analysis reproduces every fresh-arena verdict.
    assert_eq!(
        verdicts(&cold_corpus.verdicts.v1),
        verdicts(&warm_corpus.verdicts.v1)
    );
    assert_eq!(
        verdicts(&cold_corpus.verdicts.v4),
        verdicts(&warm_corpus.verdicts.v4)
    );
    assert_eq!(
        verdicts(cold_corpus.v1_symbolic()),
        verdicts(warm_corpus.v1_symbolic())
    );
    assert_eq!(cold_table.rows.len(), warm_table.rows.len());
    for (c, w) in cold_table.rows.iter().zip(&warm_table.rows) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.c, w.c, "{}: C-build verdict changed", c.name);
        assert_eq!(c.fact, w.fact, "{}: FaCT-build verdict changed", c.name);
    }

    let _ = std::fs::remove_file(&path);
}
