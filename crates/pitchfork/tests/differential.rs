//! Differential testing: on fully-concrete inputs the symbolic machine
//! must agree with the reference machine of `sct-core` step for step —
//! same applicability, same observations, same architectural evolution.

use pitchfork::machine::SymMachine;
use pitchfork::state::SymState;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::sched::enumerate::applicable_directives;
use sct_core::Machine;
use sct_symx::Model;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive both machines with the same (randomly chosen, applicable)
    /// directives and compare at every step.
    #[test]
    fn symbolic_machine_agrees_with_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let opts = ProgGenOptions::default();
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);

        let mut conc = Machine::new(&program, config.clone());
        let sym_machine = SymMachine::new(&program);
        let mut sym = SymState::from_config(&config);
        let zero = Model::new();

        for step in 0..400 {
            let candidates = applicable_directives(&conc);
            if candidates.is_empty() {
                break;
            }
            // Deterministic pick: spread across the candidate list.
            let d = candidates[(seed as usize + step) % candidates.len()];
            let conc_obs = conc.step(d).expect("applicable on reference");
            let prev_len = sym.trace().len();
            let succs = sym_machine
                .step(sym, d)
                .unwrap_or_else(|e| panic!("symbolic step failed on {d}: {e}"));
            prop_assert_eq!(
                succs.len(),
                1,
                "concrete-input symbolic step must not fork (directive {})",
                d
            );
            sym = succs.into_iter().next().unwrap();
            let trace = sym.trace();
            let sym_obs = &trace[prev_len..];
            prop_assert_eq!(
                sym_obs, &conc_obs[..],
                "observation mismatch at step {} on {}", step, d
            );
            // Architectural state must match when concretized.
            prop_assert_eq!(sym.pc, conc.cfg.pc, "pc diverged at step {}", step);
            prop_assert_eq!(&sym.regs.eval(&zero), &conc.cfg.regs);
            prop_assert_eq!(&sym.mem.eval(&zero), &conc.cfg.mem);
            prop_assert_eq!(sym.rob.len(), conc.cfg.rob.len());
            prop_assert_eq!(sym.rob.min(), conc.cfg.rob.min());
        }
    }

    /// Inapplicable directives must be rejected by both machines alike.
    #[test]
    fn error_agreement(seed in any::<u64>()) {
        use sct_core::Directive;
        let mut rng = SmallRng::seed_from_u64(seed);
        let opts = ProgGenOptions::default();
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);
        let mut conc = Machine::new(&program, config.clone());
        let sym_machine = SymMachine::new(&program);
        let mut sym = SymState::from_config(&config);

        // Advance a few steps, then probe a battery of directives.
        for step in 0..40 {
            let probes = [
                Directive::Retire,
                Directive::Execute(1),
                Directive::Execute(3),
                Directive::ExecuteValue(2),
                Directive::ExecuteAddr(2),
                Directive::Fetch,
                Directive::FetchBranch(true),
            ];
            for &p in &probes {
                let conc_ok = conc.clone().step(p).is_ok();
                let sym_ok = sym_machine.step(sym.clone(), p).is_ok();
                prop_assert_eq!(
                    conc_ok, sym_ok,
                    "applicability mismatch for {} at step {}", p, step
                );
            }
            let candidates = applicable_directives(&conc);
            if candidates.is_empty() {
                break;
            }
            let d = candidates[(seed as usize + step) % candidates.len()];
            conc.step(d).unwrap();
            sym = sym_machine.step(sym, d).unwrap().into_iter().next().unwrap();
        }
    }
}
