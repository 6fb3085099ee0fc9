//! Speculation-bound dependence: a leak is only reachable when the
//! reorder buffer is deep enough to hold the whole transient gadget —
//! the knob behind the paper's 250-vs-20 trade-off.

use pitchfork::{AnalysisSession, DetectorOptions};
use sct_litmus::kocher;

#[test]
fn kocher_01_needs_bound_three() {
    let case = kocher::kocher_01();
    // Bound 2: the branch plus one load fit, but not the transmitter.
    for bound in [1, 2] {
        let r = AnalysisSession::with_options(DetectorOptions::v1_mode(bound))
            .analyze(&case.program, &case.config);
        assert!(!r.has_violations(), "bound {bound} should be too shallow");
    }
    for bound in [3, 4, 8, 32] {
        let r = AnalysisSession::with_options(DetectorOptions::v1_mode(bound))
            .analyze(&case.program, &case.config);
        assert!(r.has_violations(), "bound {bound} should expose the leak");
    }
}

/// A v1 gadget whose transmitter sits `fillers` instructions past the
/// bounds check: the window must span the branch, the fillers, and both
/// loads for the leak to be transient-reachable.
fn distant_gadget(fillers: usize) -> (sct_core::Program, sct_core::Config) {
    use sct_asm::builder::{imm, reg, ProgramBuilder};
    use sct_core::reg::names::{RA, RB, RC, RD};
    use sct_core::OpCode;
    let mut b = ProgramBuilder::new();
    b.br(OpCode::Gt, [imm(4), reg(RA)], "then", "out");
    b.label("then");
    for _ in 0..fillers {
        b.op(RD, OpCode::Add, [reg(RD), imm(1)]);
    }
    b.load(RB, [imm(0x40), reg(RA)]);
    b.load(RC, [imm(0x50), reg(RB)]);
    b.label("out");
    let program = b.build().unwrap();
    let config = sct_litmus::layout::standard_config(program.entry, 9);
    (program, config)
}

#[test]
fn distant_gadgets_need_wider_windows() {
    // With 6 fillers the gadget needs branch + 6 + 2 loads = 9 slots.
    let (program, config) = distant_gadget(6);
    for bound in [4, 8] {
        let r = AnalysisSession::with_options(DetectorOptions::v1_mode(bound))
            .analyze(&program, &config);
        assert!(!r.has_violations(), "bound {bound} cannot reach the gadget");
    }
    for bound in [9, 16] {
        let r = AnalysisSession::with_options(DetectorOptions::v1_mode(bound))
            .analyze(&program, &config);
        assert!(r.has_violations(), "bound {bound} reaches the gadget");
    }
}

#[test]
fn minimal_flagging_bound_is_monotone() {
    // Once a case is flagged at bound b, it stays flagged at every
    // deeper bound (more speculation never hides a leak).
    let case = kocher::kocher_05();
    let mut flagged_at = None;
    for bound in 1..=12 {
        let r = AnalysisSession::with_options(DetectorOptions::v1_mode(bound))
            .analyze(&case.program, &case.config);
        if let Some(at) = flagged_at {
            assert!(
                r.has_violations(),
                "flagged at bound {at} but clean at deeper bound {bound}"
            );
        } else if r.has_violations() {
            flagged_at = Some(bound);
        }
    }
    assert!(flagged_at.is_some(), "never flagged up to bound 12");
}

#[test]
fn exploration_grows_with_bound_and_distance() {
    // Full exploration (violations do not cut paths): deeper windows
    // over longer transient regions cost strictly more states.
    let states = |fillers: usize, bound: usize| {
        let (program, config) = distant_gadget(fillers);
        let mut options = DetectorOptions::v1_mode(bound);
        options.explorer.stop_path_on_violation = false;
        options.explorer.max_violations = usize::MAX;
        AnalysisSession::with_options(options)
            .analyze(&program, &config)
            .stats
            .states
    };
    assert!(states(6, 12) > states(6, 4));
    assert!(states(10, 16) > states(2, 16));
}
