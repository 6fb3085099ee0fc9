//! Parallel-vs-serial equivalence over the textual corpus: the
//! multi-threaded frontier (`threads > 1`) must reach the same verdict
//! as the serial engine on every case, in both detector modes, under
//! every search strategy, at every tested worker count.
//!
//! The soundness argument mirrors the strategy-equivalence suite: with
//! deduplication on and the budget not hit, any expansion order —
//! including a timing-dependent parallel one — expands exactly the set
//! of distinct reachable states, so a witness exists in one order iff
//! it exists in all. Parallelism adds only *which worker gets there
//! first*, never *whether anyone does*.

use pitchfork::StrategyKind;
use sct_litmus::corpus;
use sct_litmus::harness::{run_corpus_parallel, run_corpus_with_strategy};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// All 23 textual corpus entries × all four strategies × threads ∈
/// {2, 4, 8}: verdicts identical to the serial baseline, case for
/// case, in both modes. Exhaustive state counts must match too — the
/// parallel engine expands the same distinct-state set, not merely an
/// equally-flagged one.
#[test]
fn parallel_verdicts_match_serial_for_every_strategy() {
    let cases = corpus::cases();
    assert!(cases.len() >= 23, "corpus shrank to {}", cases.len());
    for strategy in StrategyKind::ALL {
        let serial = run_corpus_with_strategy(&cases, strategy);
        for threads in THREAD_COUNTS {
            let par = run_corpus_parallel(&cases, strategy, threads);
            for case in &cases {
                let want = serial.violations(case.name).expect("serial ran case");
                let have = par.violations(case.name).expect("parallel ran case");
                assert_eq!(
                    have,
                    want,
                    "{}: verdicts differ at {} threads under `{}` (v1, v4)",
                    case.name,
                    threads,
                    strategy.name()
                );
                // And with the recorded expectations, transitively.
                assert_eq!(
                    have,
                    (case.expect.v1_violation, case.expect.v4_violation),
                    "{}: parallel disagrees with the expectation",
                    case.name
                );
            }
            for (s, p) in serial
                .v1
                .outcomes
                .iter()
                .chain(serial.v4.outcomes.iter())
                .zip(par.v1.outcomes.iter().chain(par.v4.outcomes.iter()))
            {
                assert_eq!(s.name, p.name);
                assert!(
                    !p.report.stats.truncated,
                    "{}: corpus must run below the budget for the \
                     state-count comparison to be meaningful",
                    p.name
                );
                assert_eq!(
                    p.report.stats.states,
                    s.report.stats.states,
                    "{}: distinct-state count differs at {} threads ({})",
                    p.name,
                    threads,
                    strategy.name()
                );
                assert_eq!(
                    p.report.stats.steps, s.report.stats.steps,
                    "{}: step count differs",
                    p.name
                );
                assert_eq!(p.report.stats.threads, threads);
                // Witness *sets* agree: same flagged program points.
                assert_eq!(
                    p.report.flagged_pcs(),
                    s.report.flagged_pcs(),
                    "{}: flagged program points differ at {} threads",
                    p.name,
                    threads
                );
            }
        }
    }
}

/// Each case gets what the determinism contract promises for
/// `threads > 1` with dedup on and no truncation: the serial verdict,
/// the serial witness multiset (every violation's (pc, observation)
/// pair with its multiplicity) and the serial `states`, `steps` and
/// `deduped`. Schedules are left out: the schedule prefix that names a
/// witness reachable along several schedules depends on which worker
/// gets there first.
#[test]
fn parallel_witness_sets_match_serial() {
    let cases = corpus::cases();
    let serial = run_corpus_with_strategy(&cases, StrategyKind::Lifo);
    let par = run_corpus_parallel(&cases, StrategyKind::Lifo, 4);
    let witnesses = |r: &pitchfork::Report| -> Vec<(u64, String)> {
        let mut keys: Vec<(u64, String)> = r
            .violations
            .iter()
            .map(|v| (v.pc, v.observation.to_string()))
            .collect();
        keys.sort();
        keys
    };
    for (s, p) in serial
        .v1
        .outcomes
        .iter()
        .chain(serial.v4.outcomes.iter())
        .zip(par.v1.outcomes.iter().chain(par.v4.outcomes.iter()))
    {
        let (s, p, name) = (&s.report, &p.report, &s.name);
        assert!(
            !p.stats.truncated,
            "{name}: the contract needs an untruncated run"
        );
        assert_eq!(p.verdict(), s.verdict(), "{name}: verdicts differ");
        assert_eq!(
            witnesses(p),
            witnesses(s),
            "{name}: witness multisets differ between serial and 4 threads"
        );
        assert_eq!(p.stats.states, s.stats.states, "{name}: states differ");
        assert_eq!(p.stats.steps, s.stats.steps, "{name}: steps differ");
        assert_eq!(p.stats.deduped, s.stats.deduped, "{name}: deduped differ");
    }
}

/// Two parallel runs of the same workload agree with each other on
/// everything order-insensitive (states, steps, verdicts) even though
/// their internal schedules differ — the merge step's canonical
/// ordering also makes the violation lists identical.
#[test]
fn parallel_runs_are_reproducible_where_promised() {
    let cases = corpus::cases();
    let a = run_corpus_parallel(&cases, StrategyKind::ViolationLikely, 4);
    let b = run_corpus_parallel(&cases, StrategyKind::ViolationLikely, 4);
    for (x, y) in a.v1.outcomes.iter().zip(b.v1.outcomes.iter()) {
        assert_eq!(x.report.stats.states, y.report.stats.states, "{}", x.name);
        assert_eq!(x.report.stats.steps, y.report.stats.steps, "{}", x.name);
        let render = |r: &pitchfork::Report| {
            r.violations
                .iter()
                .map(|v| format!("{} {} {}", v.pc, v.schedule, v.observation))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&x.report),
            render(&y.report),
            "{}: canonical violation order is not reproducible",
            x.name
        );
    }
}
