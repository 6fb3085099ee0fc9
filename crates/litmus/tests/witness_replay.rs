//! Witness paths replay. In concrete mode (no symbolic registers) every
//! step of the symbolic machine has exactly one successor, so a
//! witness's schedule, stepped from the initial state, must reproduce
//! the witness's trace up to and including the flagged observation.
//! This pins the explorer's shared path list: the schedule and trace it
//! materializes for a violation are the ones its states actually took.

use pitchfork::machine::SymMachine;
use pitchfork::state::SymState;
use pitchfork::{AnalysisSession, DetectorOptions};
use sct_litmus::{all_cases, corpus, LitmusCase};

fn replay_witnesses(case: &LitmusCase, options: DetectorOptions) -> usize {
    let params = options.params;
    let report = AnalysisSession::with_options(options).analyze(&case.program, &case.config);
    let machine = SymMachine::with_params(&case.program, params);
    for v in &report.violations {
        let mut state = SymState::from_config(&case.config);
        for d in v.schedule.iter() {
            let succs = machine
                .step(state, d)
                .unwrap_or_else(|e| panic!("{}: witness step {d} failed: {e}", case.name));
            assert_eq!(succs.len(), 1, "{}: concrete step {d} forked", case.name);
            state = succs.into_iter().next().expect("one successor");
        }
        let trace = state.trace();
        assert_eq!(v.trace.last(), Some(&v.observation), "{}", case.name);
        assert!(
            trace.len() >= v.trace.len(),
            "{}: replay observed less than the witness",
            case.name
        );
        assert_eq!(&trace[..v.trace.len()], &v.trace[..], "{}: trace differs", case.name);
        // Only the rest of the flagged step may follow the flagged
        // observation.
        let tail = trace.len() - v.trace.len();
        assert!(tail < state.step_observations().len(), "{}", case.name);
        assert_eq!(state.schedule(), v.schedule, "{}", case.name);
        assert_eq!(state.pc, v.pc, "{}", case.name);
    }
    report.violations.len()
}

#[test]
fn witness_schedules_reproduce_their_traces() {
    let mut cases = all_cases();
    cases.extend(corpus::cases());
    let mut witnesses = 0;
    for case in &cases {
        witnesses += replay_witnesses(case, DetectorOptions::v1_mode(case.bound));
        witnesses += replay_witnesses(case, DetectorOptions::v4_mode(case.bound));
    }
    assert!(witnesses > 0, "the corpus must flag something to replay");
}
