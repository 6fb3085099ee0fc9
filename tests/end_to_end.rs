//! End-to-end integration: assembly text in, verdicts out — the same
//! flow the `pitchfork` CLI drives, through the library APIs.

use spectre_ct::asm::{assemble, disassemble_with};
use spectre_ct::core::sched::sequential::run_sequential;
use spectre_ct::core::Params;
use spectre_ct::pitchfork::{AnalysisSession, DetectorOptions};

const VULNERABLE: &str = r"
.entry start
.reg ra = 9
.public 0x40 = 1, 0, 2, 1
.public 0x44 = 0, 3, 1, 2
.secret 0x48 = 0x11, 0x22, 0x33, 0x44
start:
    br gt(4, ra), then, out
then:
    rb = load [0x40, ra]
    rc = load [0x44, rb]
out:
";

const FENCED: &str = r"
.entry start
.reg ra = 9
.public 0x40 = 1, 0, 2, 1
.public 0x44 = 0, 3, 1, 2
.secret 0x48 = 0x11, 0x22, 0x33, 0x44
start:
    br gt(4, ra), then, out
then:
    fence
    rb = load [0x40, ra]
    rc = load [0x44, rb]
out:
";

#[test]
fn assembled_gadget_is_flagged_and_fence_fixes_it() {
    let mut detector = AnalysisSession::with_options(DetectorOptions::v1_mode(20));

    let vulnerable = assemble(VULNERABLE).unwrap();
    let report = detector.analyze(&vulnerable.program, &vulnerable.config);
    assert!(report.has_violations());
    // The flagged program point maps back to a source line.
    let pc = report.violations[0].pc;
    assert!(vulnerable.lines.contains_key(&pc) || pc > 0);

    let fenced = assemble(FENCED).unwrap();
    let report = detector.analyze(&fenced.program, &fenced.config);
    assert!(!report.has_violations());
}

#[test]
fn both_programs_are_sequentially_constant_time() {
    for src in [VULNERABLE, FENCED] {
        let asm = assemble(src).unwrap();
        let out = run_sequential(&asm.program, asm.config, Params::paper(), 10_000).unwrap();
        assert!(out.terminal);
        assert!(out.outcome.trace.is_public());
    }
}

#[test]
fn disassembly_round_trips_through_the_detector() {
    // Disassemble the assembled gadget, re-assemble, and get the same
    // verdict — the front-end is faithful.
    let asm = assemble(VULNERABLE).unwrap();
    let text = disassemble_with(&asm.program, Some(&asm.config));
    let again = assemble(&text).unwrap();
    assert_eq!(asm.program, again.program);
    assert_eq!(asm.config, again.config);
    let mut detector = AnalysisSession::with_options(DetectorOptions::v1_mode(20));
    assert!(detector.analyze(&again.program, &again.config).has_violations());
}

#[test]
fn symbolic_analysis_covers_all_public_inputs() {
    use spectre_ct::core::reg::names::RA;
    // With an *in-bounds* concrete index the gadget still leaks for
    // some attacker-chosen index; symbolizing `ra` finds it.
    let mut asm = assemble(VULNERABLE).unwrap();
    asm.config.regs.write(RA, spectre_ct::core::Val::public(1));
    let mut detector = AnalysisSession::with_options(DetectorOptions::v1_mode(20));
    let report = detector.analyze_symbolic(&asm.program, &asm.config, &[RA]);
    assert!(report.has_violations());
    // The report carries the path constraints that pin the leak.
    assert!(report
        .violations
        .iter()
        .any(|v| !v.constraints.is_empty()));
}
