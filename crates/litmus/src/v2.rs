//! Spectre v2 cases — mistrained indirect jumps (Figure 11) and the
//! retpoline defense (Figure 13, Appendix A).
//!
//! The paper's Pitchfork does not model indirect-jump prediction (§4);
//! these cases exercise our *extension*
//! ([`pitchfork::DetectorOptions::v2_mode`]) which explores mistrained
//! `jmpi` targets.

use crate::layout::{standard_config, A_BASE, B_BASE, SECRET_BASE};
use sct_asm::builder::{imm, reg, ProgramBuilder};
use sct_core::reg::names::*;
use sct_core::{Config, OpCode, Program, Reg};

/// A v2 victim: a function-pointer dispatch. The secret is in a
/// register when the jump happens; a disclosure gadget elsewhere in the
/// binary turns it into an address. Architecturally the jump always
/// goes to the benign handler; a mistrained predictor sends speculation
/// into the gadget.
pub fn indirect_dispatch() -> (Program, Config) {
    let mut b = ProgramBuilder::new();
    b.entry("main");
    b.label("main");
    // The secret is live in rc when the dispatch happens.
    b.load(RC, [imm(SECRET_BASE)]);
    // Dispatch through a table slot (architecturally → `handler`).
    b.load(RD, [imm(A_BASE)]);
    b.jmpi([reg(RD)]);
    b.label("gadget");
    b.load(RE, [imm(B_BASE), reg(RC)]); // transmit rc through an address
    b.jmp("end");
    b.label("handler");
    let handler_pc = b.here();
    b.op(RE, OpCode::Add, [reg(RE), imm(1)]);
    b.label("end");
    let program = b.build().expect("dispatch builds");
    let mut config = standard_config(program.entry, 0);
    config.mem.write(A_BASE, sct_core::Val::public(handler_pc));
    (program, config)
}

/// The same dispatch, retpolined (Figure 13): the indirect jump is
/// replaced by a call whose saved return address is overwritten with
/// the computed target. The RSB predicts the instruction after the
/// call — a fence self-loop — so speculation parks harmlessly until the
/// rollback redirects to the architecturally correct handler.
pub fn retpolined_dispatch() -> (Program, Config) {
    let mut b = ProgramBuilder::new();
    b.entry("main");
    b.label("main");
    b.load(RC, [imm(SECRET_BASE)]);
    b.load(RD, [imm(A_BASE)]); // the computed target
    b.call("retpoline_thunk");
    // The call's return point: the speculation trap.
    b.label("spec_trap");
    b.fence();
    b.jmp("spec_trap");
    b.label("retpoline_thunk");
    // Overwrite the saved return address with the real target, then ret.
    b.store(reg(RD), [reg(Reg::RSP)]);
    b.ret();
    b.label("gadget");
    b.load(RE, [imm(B_BASE), reg(RC)]);
    b.jmp("end");
    b.label("handler");
    let handler_pc = b.here();
    b.op(RE, OpCode::Add, [reg(RE), imm(1)]);
    b.label("end");
    let program = b.build().expect("retpoline builds");
    let mut config = standard_config(program.entry, 0);
    config.mem.write(A_BASE, sct_core::Val::public(handler_pc));
    (program, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pitchfork::{AnalysisSession, DetectorOptions};

    #[test]
    fn dispatch_is_clean_without_mistraining() {
        let (p, c) = indirect_dispatch();
        let report = AnalysisSession::with_options(DetectorOptions::v1_mode(16)).analyze(&p, &c);
        assert!(!report.has_violations(), "{report}");
    }

    #[test]
    fn dispatch_is_flagged_with_v2_mistraining() {
        let (p, c) = indirect_dispatch();
        let report = AnalysisSession::with_options(DetectorOptions::v2_mode(16)).analyze(&p, &c);
        assert!(report.has_violations(), "{report}");
    }

    #[test]
    fn dispatch_is_sequentially_clean() {
        use sct_core::sched::sequential::run_sequential;
        let (p, c) = indirect_dispatch();
        let out = run_sequential(&p, c, sct_core::Params::paper(), 100_000).unwrap();
        assert!(out.terminal);
        assert_eq!(out.config.regs.read(RE).bits, 1, "handler ran");
        assert!(out.outcome.trace.is_public());
    }

    #[test]
    fn retpoline_is_clean_even_with_mistraining() {
        let (p, c) = retpolined_dispatch();
        for options in [
            DetectorOptions::v1_mode(16),
            DetectorOptions::v2_mode(16),
            DetectorOptions::v4_mode(12),
        ] {
            let report = AnalysisSession::with_options(options).analyze(&p, &c);
            assert!(
                !report.has_violations(),
                "retpoline flagged under {options:?}: {report}"
            );
        }
    }

    #[test]
    fn retpoline_still_reaches_the_handler() {
        use sct_core::sched::sequential::run_sequential;
        let (p, c) = retpolined_dispatch();
        let out = run_sequential(&p, c, sct_core::Params::paper(), 100_000).unwrap();
        assert!(out.terminal);
        assert_eq!(out.config.regs.read(RE).bits, 1, "handler ran");
        assert!(out.outcome.trace.is_public());
    }
}
