//! Strategy equivalence over the textual corpus: every frontier order
//! must reach the same verdict on every case — exploration *order* is a
//! performance knob, never a soundness knob. The visited-set argument:
//! any order expands exactly the set of states reachable under
//! deduplication, so a witness exists in one order iff it exists in
//! all (the budget is the only order-sensitive cutoff, and the corpus
//! runs far below it).

use pitchfork::StrategyKind;
use sct_litmus::corpus;
use sct_litmus::harness::{self, run_corpus_with_strategy};

/// All 23 textual corpus entries: both strategies agree with the
/// LIFO baseline (and hence the recorded expectations) in both modes.
#[test]
fn all_strategies_agree_on_the_corpus() {
    let cases = corpus::cases();
    assert!(cases.len() >= 23, "corpus shrank to {}", cases.len());
    let baseline = run_corpus_with_strategy(&cases, StrategyKind::Lifo);
    for strategy in StrategyKind::ALL {
        let got = run_corpus_with_strategy(&cases, strategy);
        for case in &cases {
            let want = baseline.violations(case.name).expect("baseline ran case");
            let have = got.violations(case.name).expect("strategy ran case");
            assert_eq!(
                have,
                want,
                "{}: verdicts differ under `{}` (v1, v4)",
                case.name,
                strategy.name()
            );
            // The corpus expectations pin the baseline itself.
            assert_eq!(
                have,
                (case.expect.v1_violation, case.expect.v4_violation),
                "{}: `{}` disagrees with the recorded expectation",
                case.name,
                strategy.name()
            );
        }
        // The strategy actually ran (reports are tagged with its name).
        assert_eq!(got.v1.strategy, strategy.name());
        assert_eq!(got.v4.strategy, strategy.name());
    }
}

/// Insecure cases record where the first witness appeared; secure ones
/// don't. The *values* differ per strategy (that is the point of the
/// strategies); their presence must not.
#[test]
fn first_witness_metrics_track_verdicts() {
    let cases = corpus::cases();
    for strategy in [StrategyKind::Lifo, StrategyKind::Fifo] {
        let got = run_corpus_with_strategy(&cases, strategy);
        for outcome in got.v1.outcomes.iter().chain(got.v4.outcomes.iter()) {
            let stats = outcome.report.stats;
            assert_eq!(
                stats.first_witness_states.is_some(),
                outcome.report.has_violations(),
                "{}: first-witness states vs verdict ({})",
                outcome.name,
                strategy.name()
            );
            assert_eq!(
                stats.first_witness_depth.is_some(),
                outcome.report.has_violations(),
                "{}: first-witness depth vs verdict ({})",
                outcome.name,
                strategy.name()
            );
            if let Some(states) = stats.first_witness_states {
                assert!(states <= stats.states, "{}", outcome.name);
            }
        }
    }
}

/// Every strategy is deterministic: two identical runs produce
/// identical exploration statistics, including the order-sensitive
/// first-witness metrics.
#[test]
fn strategies_are_deterministic() {
    let cases = corpus::cases();
    for strategy in StrategyKind::ALL {
        let a = run_corpus_with_strategy(&cases, strategy);
        let b = run_corpus_with_strategy(&cases, strategy);
        for (x, y) in a.v1.outcomes.iter().zip(b.v1.outcomes.iter()) {
            // Solver-memo counters legitimately differ between the two
            // runs (the first warms the process-wide memo); everything
            // order-determined must not.
            let key = |s: &pitchfork::ExploreStats| {
                (
                    s.states,
                    s.deduped,
                    s.frontier_peak,
                    s.schedules,
                    s.steps,
                    s.first_witness_states,
                    s.first_witness_depth,
                    s.truncated,
                )
            };
            assert_eq!(
                key(&x.report.stats),
                key(&y.report.stats),
                "{}: non-deterministic exploration under `{}`",
                x.name,
                strategy.name()
            );
        }
    }
}

/// The per-case attacker-register sweep: derived register sets are
/// sane (public-only, present in the program), `ra`-style index
/// registers are found where expected, and the sweep's verdicts are
/// strategy-independent like every other pass.
#[test]
fn symbolic_sweep_registers_and_verdicts() {
    let cases = corpus::cases();
    let mut widened = 0usize;
    for case in &cases {
        let regs = harness::attacker_regs(case);
        for &r in &regs {
            assert!(
                case.config.regs.read(r).label.is_public(),
                "{}: {} symbolized but secret",
                case.name,
                r.name()
            );
        }
        if regs.len() > 1 {
            widened += 1;
        }
    }
    // The corpus is index-driven: the sweep must widen coverage beyond
    // a single register somewhere, or it is not a sweep.
    assert!(widened > 0, "no case has more than one attacker register");

    // Verdict equivalence of the sweep pass across two orders.
    let items = harness::sweep_batch_items(&cases);
    let run = |strategy: StrategyKind| {
        pitchfork::AnalysisSession::builder()
            .v1_mode(16)
            .strategy(strategy)
            .build()
            .unwrap()
            .run_batch(items.clone())
    };
    let lifo = run(StrategyKind::Lifo);
    let fifo = run(StrategyKind::Fifo);
    for outcome in &lifo.outcomes {
        let other = fifo.outcome(&outcome.name).expect("same items");
        assert_eq!(
            outcome.report.has_violations(),
            other.report.has_violations(),
            "{}: sweep verdict differs across strategies",
            outcome.name
        );
    }
}
