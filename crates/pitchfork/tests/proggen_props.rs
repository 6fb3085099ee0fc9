//! Property tests on `proggen`-generated programs: the interner and the
//! worklist engine against real machine-derived expressions.
//!
//! Random forward-only programs with symbolized registers exercise the
//! exact expressions Pitchfork builds in production (branch conditions,
//! concretized addresses, forwarded values), rather than synthetic
//! trees.

use pitchfork::machine::SymMachine;
use pitchfork::state::SymState;
use pitchfork::{AnalysisSession, DetectorOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::reg::Reg;
use sct_core::Directive;
use sct_symx::{Expr, ExprKind, Solver, Verdict};

/// Drive the symbolic machine down one random feasible path of a random
/// program with symbolic registers, returning the accumulated path
/// condition.
fn random_path_constraints(seed: u64) -> Vec<Expr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let opts = ProgGenOptions::default();
    let program = random_program(&mut rng, &opts);
    let config = random_config(&mut rng, &opts);
    let machine = SymMachine::new(&program);
    let symbolic: Vec<Reg> = (0..opts.regs).map(Reg::gpr).collect();
    let mut state = SymState::from_config_symbolizing(&config, &symbolic);

    for _ in 0..200 {
        let next = state.rob.next_index();
        let mut candidates = vec![Directive::Fetch, Directive::FetchBranch(rng.gen_bool(0.5))];
        if let Some(min) = state.rob.min() {
            for i in min..next {
                candidates.push(Directive::Execute(i));
                candidates.push(Directive::ExecuteValue(i));
                candidates.push(Directive::ExecuteAddr(i));
            }
            candidates.push(Directive::Retire);
        }
        // Random applicable directive; stop when nothing applies.
        let mut stepped = false;
        while !candidates.is_empty() {
            let d = candidates.swap_remove(rng.gen_range(0..candidates.len()));
            if let Ok(succs) = machine.step(state.clone(), d) {
                if !succs.is_empty() {
                    let k = rng.gen_range(0..succs.len());
                    state = succs.into_iter().nth(k).expect("index in range");
                    stepped = true;
                    break;
                }
            }
        }
        if !stepped {
            break;
        }
    }
    state.constraints
}

/// Rebuild an expression verbatim through [`Expr::raw_app`].
fn rebuild_raw(e: Expr) -> Expr {
    match e.kind() {
        ExprKind::Const(_) | ExprKind::Var(_) => e,
        ExprKind::App(op, args) => {
            let args = args.into_iter().map(rebuild_raw).collect();
            Expr::raw_app(op, args)
        }
    }
}

/// Rebuild an expression through the simplifying constructor.
fn resimplify(e: Expr) -> Expr {
    match e.kind() {
        ExprKind::Const(_) | ExprKind::Var(_) => e,
        ExprKind::App(op, args) => {
            let args = args.into_iter().map(resimplify).collect();
            Expr::app(op, args)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Machine-derived path conditions are fixed points of the
    /// simplifier, and re-deriving them interns to the same ids.
    #[test]
    fn machine_constraints_are_interned_fixed_points(seed in any::<u64>()) {
        let constraints = random_path_constraints(seed);
        let again = random_path_constraints(seed);
        prop_assert_eq!(
            &constraints, &again,
            "the same path must intern to the same constraint ids"
        );
        for &c in &constraints {
            prop_assert_eq!(resimplify(c), c, "machine constraint {} not a fixed point", c);
        }
    }

    /// Solver verdicts on machine-derived path conditions survive
    /// de-simplification: no `Sat`/`Unsat` contradiction, and models
    /// satisfy both forms. (The machine only extends feasible paths, so
    /// most sets are satisfiable — the raw form must agree.)
    #[test]
    fn solver_verdicts_survive_desimplification(seed in any::<u64>()) {
        let constraints = random_path_constraints(seed);
        if constraints.is_empty() {
            return Ok(());
        }
        let raw: Vec<Expr> = constraints.iter().map(|&e| rebuild_raw(e)).collect();
        let solver = Solver::new();
        let vs = solver.check(&constraints);
        let vr = solver.check(&raw);
        prop_assert!(
            !(matches!(vs, Verdict::Sat(_)) && vr == Verdict::Unsat),
            "simplified Sat but raw Unsat"
        );
        prop_assert!(
            !(vs == Verdict::Unsat && matches!(vr, Verdict::Sat(_))),
            "simplified Unsat but raw Sat"
        );
        if let Verdict::Sat(model) = &vs {
            for (&s, &r) in constraints.iter().zip(&raw) {
                prop_assert_ne!(s.eval(model), 0, "model misses {}", s);
                prop_assert_ne!(r.eval(model), 0, "model misses raw {}", r);
            }
        }
    }

    /// On random programs, the deduplicating worklist engine reaches the
    /// same verdict as duplicate-blind exploration, never with more
    /// states.
    #[test]
    fn dedup_preserves_verdicts_on_random_programs(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let opts = ProgGenOptions::default();
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);
        for v4 in [false, true] {
            let mk = |dedup: bool| {
                let mut o = if v4 {
                    DetectorOptions::v4_mode(12)
                } else {
                    DetectorOptions::v1_mode(12)
                }
                .dedup(dedup);
                o.explorer.max_states = 20_000;
                o
            };
            let on = AnalysisSession::with_options(mk(true)).analyze(&program, &config);
            let off = AnalysisSession::with_options(mk(false)).analyze(&program, &config);
            // A truncated run's verdict is budget-dependent; only
            // compare complete explorations.
            if !on.stats.truncated && !off.stats.truncated {
                prop_assert_eq!(
                    on.has_violations(),
                    off.has_violations(),
                    "dedup changed the verdict (v4={})", v4
                );
                prop_assert!(on.stats.states <= off.stats.states);
            }
        }
    }
}
