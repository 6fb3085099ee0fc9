//! The batch engine against the whole litmus corpus: one shared-arena
//! pass per mode must reproduce every per-case verdict — and with
//! deduplication on, never explore more states than the seed's
//! duplicate-blind engine would.

use pitchfork::{AnalysisSession, DetectorOptions};
use sct_litmus::{all_cases, harness};

#[test]
fn batch_verdicts_match_per_case_detectors() {
    let cases = all_cases();
    let verdicts = harness::run_corpus(&cases);
    for case in &cases {
        let (v1, v4) = verdicts
            .violations(case.name)
            .unwrap_or_else(|| panic!("{} missing from batch", case.name));
        assert_eq!(v1, case.expect.v1_violation, "{}: v1 (batch)", case.name);
        assert_eq!(v4, case.expect.v4_violation, "{}: v4 (batch)", case.name);
    }
    assert_eq!(verdicts.v1.totals.programs, cases.len());
}

#[test]
fn dedup_never_explores_more_and_agrees_everywhere() {
    let mut pruned_somewhere = 0usize;
    for case in all_cases() {
        for v4 in [false, true] {
            let mk = |dedup: bool| {
                if v4 {
                    DetectorOptions::v4_mode(case.bound.max(20))
                } else {
                    DetectorOptions::v1_mode(case.bound.max(20))
                }
                .dedup(dedup)
            };
            let on = AnalysisSession::with_options(mk(true)).analyze(&case.program, &case.config);
            let off = AnalysisSession::with_options(mk(false)).analyze(&case.program, &case.config);
            assert_eq!(
                on.has_violations(),
                off.has_violations(),
                "{} (v4={v4}): dedup changed the verdict",
                case.name
            );
            assert!(
                on.stats.states <= off.stats.states,
                "{} (v4={v4}): dedup explored more states",
                case.name
            );
            if on.stats.states < off.stats.states {
                pruned_somewhere += 1;
            }
        }
    }
    assert!(
        pruned_somewhere > 0,
        "dedup must strictly reduce exploration on at least one case at bound >= 20"
    );
}

#[test]
fn corpus_batch_stats_accumulate() {
    let cases = all_cases();
    let batch = AnalysisSession::with_options(DetectorOptions::v1_mode(16))
        .run_batch(harness::batch_items(&cases));
    let sum: usize = batch.outcomes.iter().map(|o| o.report.stats.states).sum();
    assert_eq!(batch.totals.states, sum);
    assert!(batch.totals.flagged > 0);
    assert!(batch.states_per_sec() >= 0.0);
}
