//! Aliasing-predictor cases (§3.5, Figure 2) — a load receives data
//! from a store *before either address is known*.
//!
//! The paper's Pitchfork cannot explore these ("a prohibitively large
//! number of schedules", §4); our budgeted extension
//! ([`pitchfork::DetectorOptions::alias_mode`]) finds the Figure 2
//! attack automatically.

use crate::layout::{standard_config, B_BASE, SCRATCH, SECRET_BASE};
use sct_asm::builder::{imm, reg, ProgramBuilder};
use sct_core::reg::names::*;
use sct_core::{Config, Program};

/// The Figure 2 shape: a store of a secret register whose target
/// address is still unresolved, followed by loads from *different*
/// public addresses. No branch misprediction is involved at all — only
/// the aliasing predictor forwards the secret.
pub fn fig2_gadget() -> (Program, Config) {
    let mut b = ProgramBuilder::new();
    // The secret arrives in rb (e.g. computed earlier).
    b.load(RB, [imm(SECRET_BASE)]);
    // store rb, [scratch + ra]: the address needs ra, resolvable late.
    b.store(reg(RB), [imm(SCRATCH), reg(RA)]);
    // A benign public load — the aliasing predictor may guess it
    // aliases the store above and forward rb's secret value.
    b.load(RC, [imm(SCRATCH + 2)]);
    // The forwarded value becomes an address: the transmitter.
    b.load(RC, [imm(B_BASE), reg(RC)]);
    let program = b.build().expect("fig2 gadget builds");
    let config = standard_config(program.entry, 1);
    (program, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitchfork::{AnalysisSession, DetectorOptions};

    #[test]
    fn fig2_gadget_is_sequentially_clean() {
        use sct_core::sched::sequential::run_sequential;
        let (p, c) = fig2_gadget();
        let out = run_sequential(&p, c, sct_core::Params::paper(), 10_000).unwrap();
        assert!(out.terminal);
        assert!(out.outcome.trace.is_public());
    }

    #[test]
    fn fig2_gadget_evades_v1_and_v4_modes() {
        // Without alias prediction there is no way to move the secret
        // into the load: the store's address (scratch+1) never matches
        // the load's (scratch+2).
        let (p, c) = fig2_gadget();
        for options in [DetectorOptions::v1_mode(16), DetectorOptions::v4_mode(16)] {
            let report = AnalysisSession::with_options(options).analyze(&p, &c);
            assert!(!report.has_violations(), "{report}");
        }
    }

    #[test]
    fn fig2_gadget_is_flagged_in_alias_mode() {
        let (p, c) = fig2_gadget();
        let report = AnalysisSession::with_options(DetectorOptions::alias_mode(16)).analyze(&p, &c);
        assert!(report.has_violations(), "{report}");
        // The witnessing schedule uses the aliasing predictor.
        let v = &report.violations[0];
        assert!(
            v.schedule
                .iter()
                .any(|d| matches!(d, sct_core::Directive::ExecuteFwd(_, _))),
            "schedule should contain an `execute i : fwd j`: {}",
            v.schedule
        );
    }

    #[test]
    fn alias_mode_agrees_with_v1_on_the_kocher_suite() {
        // The extension must not regress the classic detections.
        for case in crate::kocher::all().into_iter().take(4) {
            let base = AnalysisSession::with_options(DetectorOptions::v1_mode(case.bound))
                .analyze(&case.program, &case.config);
            let ext = AnalysisSession::with_options(DetectorOptions::alias_mode(case.bound))
                .analyze(&case.program, &case.config);
            assert_eq!(
                base.has_violations(),
                ext.has_violations(),
                "{} diverged between v1 and alias mode",
                case.name
            );
        }
    }
}
