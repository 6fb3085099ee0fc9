//! Property tests for cache round-trips over **machine-derived**
//! constraints: the exact expressions Pitchfork builds in production
//! (proggen programs driven down random feasible paths) survive
//! snapshot → epoch reset → hydrate with structural interning and
//! solver verdicts intact.
//!
//! Tests in this binary retire the process-wide arena, so they
//! serialize on a file-local lock.

use pitchfork::machine::SymMachine;
use pitchfork::state::SymState;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sct_cache::Snapshot;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::reg::Reg;
use sct_core::{Directive, OpCode};
use sct_symx::{arena_stats, retire_arena, solver_memo_stats, Expr, ExprKind, Solver, VarId};
use std::sync::Mutex;

static ARENA_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ARENA_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Drive the symbolic machine down one random feasible path of a random
/// program with symbolic registers, returning the accumulated path
/// condition (the same exercise as `proggen_props`).
fn random_path_constraints(seed: u64) -> Vec<Expr> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let opts = ProgGenOptions::default();
    let program = random_program(&mut rng, &opts);
    let config = random_config(&mut rng, &opts);
    let machine = SymMachine::new(&program);
    let symbolic: Vec<Reg> = (0..opts.regs).map(Reg::gpr).collect();
    let mut state = SymState::from_config_symbolizing(&config, &symbolic);

    for _ in 0..120 {
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

/// An owned expression shape that survives arena retirement.
#[derive(Clone, Debug)]
enum Tree {
    Const(u64),
    Var(u32),
    App(OpCode, Vec<Tree>),
}

fn to_tree(e: Expr) -> Tree {
    match e.kind() {
        ExprKind::Const(v) => Tree::Const(v),
        ExprKind::Var(v) => Tree::Var(v.0),
        ExprKind::App(op, args) => Tree::App(op, args.into_iter().map(to_tree).collect()),
    }
}

fn rebuild(tree: &Tree) -> Expr {
    match tree {
        Tree::Const(v) => Expr::constant(*v),
        Tree::Var(v) => Expr::var(VarId(*v)),
        Tree::App(op, args) => Expr::app(*op, args.iter().map(rebuild).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Machine-derived path conditions round-trip through a snapshot
    /// and an epoch reset: rebuilding them interns zero fresh nodes and
    /// re-solving is answered by the imported memo with the cold
    /// verdict.
    #[test]
    fn proggen_constraints_survive_snapshot_roundtrip(seed in any::<u64>()) {
        let _guard = lock();
        let constraints = random_path_constraints(seed);
        if constraints.is_empty() {
            return Ok(());
        }
        let trees: Vec<Tree> = constraints.iter().map(|&e| to_tree(e)).collect();
        let solver = Solver::new();
        let cold = solver.check(&constraints);

        let bytes = Snapshot::capture().encode();
        retire_arena();
        Snapshot::decode(&bytes)
            .expect("own snapshot decodes")
            .hydrate()
            .expect("own snapshot hydrates");

        let nodes_after_hydrate = arena_stats().nodes;
        let rebuilt: Vec<Expr> = trees.iter().map(rebuild).collect();
        prop_assert_eq!(
            arena_stats().nodes, nodes_after_hydrate,
            "rebuilding machine constraints must be fully served by the snapshot"
        );
        let hits_before = solver_memo_stats().hits;
        let warm = solver.check(&rebuilt);
        prop_assert_eq!(&warm, &cold, "verdict changed across snapshot round-trip");
        prop_assert!(
            solver_memo_stats().hits > hits_before,
            "warm re-solve must hit the imported memo"
        );
    }
}
