//! Cross-crate validation of the paper's central claims.


// Legacy-API coverage: this file deliberately exercises the deprecated
// `Detector`/`BatchAnalyzer` wrappers to pin their delegation behaviour.
#![allow(deprecated)]

use spectre_ct::core::{Machine, Params, Schedule};
use spectre_ct::litmus;
use spectre_ct::pitchfork::{Detector, DetectorOptions};

/// Theorem B.20 flavour, end to end: every violation schedule the
/// symbolic explorer reports is a *well-formed* schedule of the
/// reference semantics that reproduces the secret-labeled observation
/// concretely.
#[test]
fn violation_schedules_replay_on_the_reference_machine() {
    for case in litmus::all_cases() {
        for (fwd, mode) in [(false, "v1"), (true, "v4")] {
            let options = if fwd {
                DetectorOptions::v4_mode(case.bound)
            } else {
                DetectorOptions::v1_mode(case.bound)
            };
            let report = Detector::new(options).analyze(&case.program, &case.config);
            for v in report.violations.iter().take(3) {
                let mut m = Machine::with_params(
                    &case.program,
                    case.config.clone(),
                    Params::paper(),
                );
                let out = m.run(&v.schedule).unwrap_or_else(|e| {
                    panic!("{} ({mode}): schedule not well-formed: {e}", case.name)
                });
                assert!(
                    out.trace.first_secret().is_some(),
                    "{} ({mode}): replay produced no secret observation\nschedule: {}",
                    case.name,
                    v.schedule
                );
            }
        }
    }
}

/// Definition 3.1, relationally: replaying a violation schedule on
/// secrets-mutated siblings produces diverging traces — a direct SCT
/// counterexample, not just a label-based one.
#[test]
fn violations_are_relational_counterexamples() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spectre_ct::core::sct::{
        check_schedule_relational_with, mutate_secrets_bounded, SctViolation,
    };

    let mut rng = SmallRng::seed_from_u64(2024);
    for case in litmus::kocher::all() {
        if !case.expect.v1_violation {
            continue;
        }
        let report = Detector::new(DetectorOptions::v1_mode(case.bound))
            .analyze(&case.program, &case.config);
        let v = report
            .violations
            .first()
            .unwrap_or_else(|| panic!("{} should be flagged", case.name));
        // Keep mutated secrets small so even 1-bit leaks (e.g. a branch
        // on `secret == 0`) flip within a few samples.
        let found = check_schedule_relational_with(
            &case.program,
            case.config.clone(),
            Params::paper(),
            &v.schedule,
            32,
            |c| mutate_secrets_bounded(c, 4, &mut rng),
        )
        .unwrap();
        assert!(
            matches!(
                found,
                Some(SctViolation::TraceDivergence { .. })
                    | Some(SctViolation::WellFormednessDivergence { .. })
            ),
            "{}: no relational divergence found on the violation schedule",
            case.name
        );
    }
}

/// The safe cases stay clean under the relational checker too, across
/// both detector-generated and adversarial random schedules.
#[test]
fn safe_cases_are_relationally_clean() {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spectre_ct::core::sched::random::{run_random, RandomSchedulerOptions};
    use spectre_ct::core::sct::check_schedule_relational;

    let mut rng = SmallRng::seed_from_u64(7);
    for case in litmus::all_cases() {
        if case.expect.v1_violation || case.expect.v4_violation {
            continue;
        }
        // Skip the alias-prediction fragment: random schedules may use
        // `execute i: fwd j`, where label-free divergence is possible
        // (the paper's tool does not explore it either).
        for _ in 0..10 {
            let run = run_random(
                &case.program,
                case.config.clone(),
                Params::paper(),
                RandomSchedulerOptions::default(),
                &mut rng,
            );
            let uses_alias = run
                .schedule
                .iter()
                .any(|d| matches!(d, spectre_ct::core::Directive::ExecuteFwd(_, _)));
            if uses_alias {
                continue;
            }
            let found = check_schedule_relational(
                &case.program,
                case.config.clone(),
                Params::paper(),
                &run.schedule,
                6,
                &mut rng,
            )
            .unwrap();
            assert!(
                found.is_none(),
                "{}: safe case diverged relationally under {}",
                case.name,
                run.schedule
            );
        }
    }
}

/// §4.2: "Pitchfork still correctly finds SCT violations in all our
/// test cases" — the corpus-level summary the paper reports.
#[test]
fn corpus_detection_summary() {
    let cases = litmus::all_cases();
    let mut flagged = 0;
    let mut expected = 0;
    for case in &cases {
        let got = litmus::run_case(case);
        if case.expect.v1_violation || case.expect.v4_violation {
            expected += 1;
            if got.v1_violation || got.v4_violation {
                flagged += 1;
            }
        }
    }
    assert_eq!(
        flagged, expected,
        "every vulnerable case must be flagged ({flagged}/{expected})"
    );
}

/// Deterministic reports: analyzing twice yields the same violations.
#[test]
fn detection_is_deterministic() {
    let case = litmus::kocher::kocher_01();
    let d = Detector::new(DetectorOptions::v1_mode(case.bound));
    let a = d.analyze(&case.program, &case.config);
    let b = d.analyze(&case.program, &case.config);
    assert_eq!(a.violations.len(), b.violations.len());
    let sched_a: Vec<Schedule> = a.violations.iter().map(|v| v.schedule.clone()).collect();
    let sched_b: Vec<Schedule> = b.violations.iter().map(|v| v.schedule.clone()).collect();
    assert_eq!(sched_a, sched_b);
    // Thread-local cache hits depend on what earlier analyses on this
    // thread left cached (as shared-memo hits would, had this case
    // issued solver queries), and the lock-wait counts on which other
    // tests in this binary hold the interner and memo locks at the same
    // moment — normalize them; everything else about the exploration
    // must reproduce exactly.
    let (mut sa, mut sb) = (a.stats, b.stats);
    for stats in [&mut sa, &mut sb] {
        stats.local_cache_hits = 0;
        stats.arena_lock_waits = 0;
        stats.memo_lock_waits = 0;
    }
    assert_eq!(sa, sb);
}
