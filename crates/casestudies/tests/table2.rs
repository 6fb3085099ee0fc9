//! The Table 2 reproduction: the detection matrix must match the
//! paper's prose —
//!
//! * curve25519-donna: no violations in either build;
//! * libsodium secretbox: violation in the C build only (v1 mode);
//! * OpenSSL ssl3 record validate: C flagged in v1 mode, FaCT only
//!   with forwarding-hazard detection;
//! * OpenSSL MEE-CBC: C flagged in v1 mode, FaCT only with
//!   forwarding-hazard detection.

use sct_casestudies::table2::{self, Cell};
use sct_core::sched::sequential::run_sequential;
use sct_core::Params;

/// Reduced bounds keep the test quick; the bench sweeps the paper's
/// 250/20 configuration.
const V1_BOUND: usize = 40;
const V4_BOUND: usize = 20;

/// A cell whose runs both completed within their state budgets.
fn complete(v1: bool, v4: bool) -> Cell {
    Cell {
        v1,
        v4,
        v1_truncated: false,
        v4_truncated: false,
    }
}

#[test]
fn table2_matrix_matches_paper() {
    let table = table2::run(V1_BOUND, V4_BOUND);
    let expect = [
        ("curve25519-donna", complete(false, false), complete(false, false)),
        ("libsodium secretbox", complete(true, true), complete(false, false)),
        ("OpenSSL ssl3 record validate", complete(true, true), complete(false, true)),
        ("OpenSSL MEE-CBC", complete(true, true), complete(false, true)),
    ];
    assert_eq!(table.rows.len(), expect.len());
    for (row, (name, c, fact)) in table.rows.iter().zip(expect) {
        assert_eq!(row.name, name);
        assert_eq!(row.c, c, "{name} (C): got {:?}", row.c);
        assert_eq!(row.fact, fact, "{name} (FaCT): got {:?}", row.fact);
    }
    // The rendered table shows the paper's symbols.
    let text = table.to_string();
    assert!(text.contains("curve25519-donna"), "{text}");
    assert!(text.contains('✗'));
    assert!(text.contains('f'));
    assert!(!text.contains('?'), "{text}");
}

/// A search that gives up is not a clean bill: with a state budget too
/// small for curve25519-donna, both of its cells render `?` (never the
/// `✓` of a completed search) and the table explains the symbol.
#[test]
fn truncated_runs_render_as_unknown() {
    use pitchfork::{AnalysisSession, DetectorOptions};
    let run = |mut options: DetectorOptions| {
        options.explorer.max_states = 50;
        AnalysisSession::with_options(options).run_batch(table2::batch_items())
    };
    let v1 = run(DetectorOptions::v1_mode(V1_BOUND));
    let v4 = run(DetectorOptions::v4_mode(V4_BOUND));
    let table = table2::from_batches(&v1, &v4, V1_BOUND, V4_BOUND);
    let donna = &table.rows[0];
    assert_eq!(donna.name, "curve25519-donna");
    for cell in [donna.c, donna.fact] {
        assert!(!cell.v1 && cell.v1_truncated, "{cell:?}");
        assert_eq!(cell.symbol(), "?");
    }
    let text = table.to_string();
    assert!(
        text.lines().any(|l| l.starts_with("? = ")),
        "no legend for `?`:\n{text}"
    );
    let donna_line = text
        .lines()
        .find(|l| l.starts_with("curve25519-donna"))
        .expect("donna row");
    assert_eq!(donna_line.matches('?').count(), 2, "{donna_line}");
}

/// Every case study is sequentially constant-time — the violations the
/// detector finds are speculative-only, as in the paper (the case
/// studies were verified sequentially CT by FaCT's authors).
#[test]
fn case_studies_are_sequentially_constant_time() {
    for study in table2::all_studies() {
        let out = run_sequential(
            &study.program,
            study.config.clone(),
            Params::paper(),
            500_000,
        )
        .unwrap_or_else(|e| panic!("{} ({}): {e}", study.name, study.variant.name()));
        assert!(
            out.terminal,
            "{} ({}) did not run to completion",
            study.name,
            study.variant.name()
        );
        assert!(
            out.outcome.trace.is_public(),
            "{} ({}) leaks sequentially",
            study.name,
            study.variant.name()
        );
    }
}

/// The multi-threaded frontier reproduces Table 2 cell for cell: for
/// every strategy and threads ∈ {2, 4, 8}, the detection matrix equals
/// the serial one. Worker timing moves *when* each witness is found,
/// never *whether* — the parallel determinism contract at case-study
/// scale.
#[test]
fn parallel_exploration_reproduces_the_table2_matrix() {
    use pitchfork::StrategyKind;
    let baseline = table2::run(V1_BOUND, V4_BOUND);
    for strategy in StrategyKind::ALL {
        for threads in [2usize, 4, 8] {
            let table = table2::run_parallel(V1_BOUND, V4_BOUND, strategy, threads);
            for (row, base) in table.rows.iter().zip(baseline.rows.iter()) {
                assert_eq!(
                    (row.c, row.fact),
                    (base.c, base.fact),
                    "{} matrix cell differs at {} threads under `{}`",
                    row.name,
                    threads,
                    strategy.name()
                );
            }
        }
    }
}

/// Strategy equivalence on Table 2: the full detection matrix is
/// identical under every frontier order — the search strategy may
/// change how fast a witness is found, never whether one is found.
#[test]
fn every_strategy_reproduces_the_table2_matrix() {
    use pitchfork::StrategyKind;
    let baseline = table2::run(V1_BOUND, V4_BOUND);
    for strategy in StrategyKind::ALL {
        let table = table2::run_with_strategy(V1_BOUND, V4_BOUND, strategy);
        for (row, base) in table.rows.iter().zip(baseline.rows.iter()) {
            assert_eq!(
                (row.c, row.fact),
                (base.c, base.fact),
                "{} matrix cell differs under `{}`",
                row.name,
                strategy.name()
            );
        }
    }
}

/// Deduplication must not change any Table 2 verdict, only shrink the
/// exploration (drastically, in v4 mode — the seed's duplicate-blind
/// engine hit its state budget on half the builds).
#[test]
fn dedup_preserves_every_table2_verdict() {
    use pitchfork::{AnalysisSession, DetectorOptions};
    for study in table2::all_studies() {
        for (v4, bound) in [(false, V1_BOUND), (true, V4_BOUND)] {
            let mk = |dedup: bool| {
                if v4 {
                    DetectorOptions::v4_mode(bound)
                } else {
                    DetectorOptions::v1_mode(bound)
                }
                .dedup(dedup)
            };
            let on = AnalysisSession::with_options(mk(true)).analyze(&study.program, &study.config);
            let off =
                AnalysisSession::with_options(mk(false)).analyze(&study.program, &study.config);
            // A truncated run's verdict is budget-dependent (the
            // duplicate-blind engine exceeds its budget on some v4
            // builds); only complete explorations are comparable.
            if on.stats.truncated || off.stats.truncated {
                continue;
            }
            assert_eq!(
                on.has_violations(),
                off.has_violations(),
                "{} ({}) v4={v4}: dedup changed the verdict",
                study.name,
                study.variant.name()
            );
            assert!(
                on.stats.states <= off.stats.states,
                "{} ({}) v4={v4}: dedup explored more states",
                study.name,
                study.variant.name()
            );
        }
    }
}
