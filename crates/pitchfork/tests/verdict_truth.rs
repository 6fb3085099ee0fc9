//! Verdict truth over generated programs: a `Secure` verdict must rest
//! on explored schedules, and must never go to a program whose
//! sequential run already leaks.
//!
//! Fixed-seed `proggen` programs (the generator behind `perfbench gen`)
//! are analyzed the way `pitchfork --symbolic ra` and `pitchfork
//! --fwd-hazards --symbolic ra` analyze them. Every generated program
//! terminates, so an exhaustive search completes at least one schedule.
//! The reference machine's sequential run is an oracle no speculation
//! bound can hide: a secret-labelled observation there leaks on every
//! schedule. A truncated run is `Unknown`, which claims nothing, so it
//! is skipped.

use pitchfork::{AnalysisSession, SessionBuilder, Verdict};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::reg::names::RA;
use sct_core::sched::sequential::run_sequential;
use sct_core::{Instr, Params};

const SEED: u64 = 1;
const PROGRAMS: usize = 300;
const BOUND: usize = 20;

fn check(mut session: AnalysisSession) {
    let opts = ProgGenOptions::default();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (mut checked, mut secure_with_fence, mut leakers) = (0, 0, 0);
    for i in 0..PROGRAMS {
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);
        let report = session.analyze(&program, &config);
        if report.stats.truncated {
            continue;
        }
        checked += 1;
        let secure = report.verdict() == Verdict::Secure;
        assert!(
            !secure || report.stats.schedules > 0,
            "program {i}: secure after 0 schedules"
        );
        if secure
            && program
                .iter()
                .any(|(_, instr)| matches!(instr, Instr::Fence { .. }))
        {
            secure_with_fence += 1;
        }
        let sequential = run_sequential(&program, config, Params::paper(), 10_000)
            .unwrap_or_else(|e| panic!("program {i}: sequential run failed: {e}"));
        if sequential.outcome.trace.first_secret().is_some() {
            leakers += 1;
            assert!(!secure, "program {i}: secure, but its sequential run leaks");
        }
    }
    // Neither check may pass vacuously: most programs are checked,
    // the first check sees secure verdicts on programs with a fence
    // (where paths used to be dropped), and the second sees leakers.
    assert!(
        checked >= PROGRAMS * 9 / 10,
        "only {checked} of {PROGRAMS} checked"
    );
    assert!(
        secure_with_fence >= PROGRAMS / 20,
        "only {secure_with_fence} secure fenced programs"
    );
    assert!(
        leakers >= PROGRAMS / 10,
        "only {leakers} sequential leakers"
    );
}

#[test]
fn v1_verdicts_are_true() {
    check(
        SessionBuilder::new()
            .bound(BOUND)
            .symbolize([RA])
            .build()
            .unwrap(),
    );
}

#[test]
fn v4_verdicts_are_true() {
    check(
        SessionBuilder::new()
            .v4_mode(BOUND)
            .symbolize([RA])
            .build()
            .unwrap(),
    );
}
