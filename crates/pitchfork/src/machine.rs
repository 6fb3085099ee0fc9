//! The symbolic speculative machine: the rules of `sct-core`, lifted to
//! symbolic values with path constraints and forking.
//!
//! Differences from the reference machine, mirroring how the paper's
//! tool uses angr (§4.2):
//!
//! * **branch conditions fork** — a symbolic condition yields one
//!   successor per feasible outcome, each extended with the
//!   corresponding path constraint;
//! * **addresses concretize** — a symbolic address is pinned to one
//!   satisfying value which is added to the path condition;
//! * everything else follows the reference rules verbatim, so a run on
//!   fully-concrete inputs produces exactly one successor per step with
//!   the same observations (checked by differential tests).

use crate::state::{SymProvenance, SymState, SymStoreAddr, SymStoreData, SymTransient};
use sct_core::instr::{Instr, Operand};
use sct_core::rsb::RsbOp;
use sct_core::{
    Directive, Label, Observation, OpCode, Params, Pc, Program, Reg, RsbPolicy,
    StepError,
};
use sct_symx::{Expr, Solver, SymVal};
use std::collections::BTreeSet;

/// A successor state produced by one symbolic step (already recorded
/// into the state's schedule/trace).
pub type Successors = Vec<SymState>;

/// The symbolic machine: program + parameters + solver.
pub struct SymMachine<'p> {
    /// The program under analysis.
    pub program: &'p Program,
    /// Machine parameters.
    pub params: Params,
    /// The feasibility/concretization solver.
    pub solver: Solver,
}

impl<'p> SymMachine<'p> {
    /// A machine with paper parameters and a default solver.
    pub fn new(program: &'p Program) -> Self {
        SymMachine {
            program,
            params: Params::paper(),
            solver: Solver::new(),
        }
    }

    /// A machine with explicit parameters.
    pub fn with_params(program: &'p Program, params: Params) -> Self {
        SymMachine {
            program,
            params,
            solver: Solver::new(),
        }
    }

    /// One symbolic step. Returns every feasible successor (with the
    /// directive and observations recorded in each).
    ///
    /// The step consumes `state` and rewrites it in place into its
    /// successor, so a step with one successor copies nothing. Only a
    /// fork pays for a copy: a symbolic branch condition, or a guessed
    /// load checked against memory, with both outcomes feasible, clones
    /// the state for its first successor and hands `state` itself to the
    /// second. Every rule runs its checks and resolves its operands
    /// before it mutates anything. A caller that still needs the state
    /// afterwards steps a clone.
    ///
    /// # Errors
    ///
    /// Mirrors the reference machine's [`StepError`]s: no rule applies.
    /// The consumed state is dropped.
    pub fn step(&self, state: SymState, d: Directive) -> Result<Successors, StepError> {
        match d {
            Directive::Fetch | Directive::FetchBranch(_) | Directive::FetchJump(_) => {
                self.fetch(state, d)
            }
            Directive::Execute(i) => self.execute(state, i),
            Directive::ExecuteValue(i) => self.execute_store_value(state, i),
            Directive::ExecuteAddr(i) => self.execute_store_addr(state, i),
            Directive::ExecuteFwd(i, j) => self.execute_forward_guess(state, i, j),
            Directive::Retire => self.retire(state),
        }
    }

    // ----- resolution helpers ------------------------------------------------

    /// `(buf +i ρ)` lifted to symbolic values.
    fn resolve_reg(&self, state: &SymState, i: usize, r: Reg) -> Result<SymVal, StepError> {
        let mut latest: Option<Option<SymVal>> = None;
        for (_, t) in state.rob.iter_below(i) {
            if let Some((dst, v)) = t.assignment() {
                if dst == r {
                    latest = Some(v.cloned());
                }
            }
        }
        match latest {
            Some(Some(v)) => Ok(v),
            Some(None) => Err(StepError::OperandsPending { index: i }),
            None => Ok(state.regs.read(r)),
        }
    }

    fn resolve_operand(
        &self,
        state: &SymState,
        i: usize,
        op: &Operand,
    ) -> Result<SymVal, StepError> {
        match op {
            Operand::Imm(v) => Ok(SymVal::from_val(*v)),
            Operand::Reg(r) => self.resolve_reg(state, i, *r),
        }
    }

    fn resolve_list(
        &self,
        state: &SymState,
        i: usize,
        ops: &[Operand],
    ) -> Result<Vec<SymVal>, StepError> {
        ops.iter().map(|o| self.resolve_operand(state, i, o)).collect()
    }

    fn check_no_fence_below(&self, state: &SymState, i: usize) -> Result<(), StepError> {
        if state.rob.iter_below(i).all(|(_, t)| !t.is_fence()) {
            Ok(())
        } else {
            Err(StepError::FenceBlocked { index: i })
        }
    }

    /// Symbolic opcode evaluation, mirroring the reference machine's
    /// parameter routing for `succ`/`pred`/`addr`.
    fn sym_eval_op(&self, opcode: OpCode, args: &[SymVal]) -> Result<SymVal, StepError> {
        let label = Label::join_all(args.iter().map(|v| v.label));
        let expr = match opcode {
            OpCode::Succ | OpCode::Pred => {
                if args.len() != 1 {
                    return Err(StepError::Eval(sct_core::op::EvalError::Arity {
                        op: opcode,
                        got: args.len(),
                    }));
                }
                let word = match self.params.stack {
                    sct_core::StackDiscipline::GrowsDown { word }
                    | sct_core::StackDiscipline::GrowsUp { word } => word,
                };
                let grows_down =
                    matches!(self.params.stack, sct_core::StackDiscipline::GrowsDown { .. });
                let subtract = (opcode == OpCode::Succ) == grows_down;
                let op = if subtract { OpCode::Sub } else { OpCode::Add };
                Expr::app(op, vec![args[0].expr, Expr::constant(word)])
            }
            OpCode::Addr => self.sym_addr_expr(args),
            _ => {
                if let Some(n) = opcode.arity() {
                    if args.len() != n {
                        return Err(StepError::Eval(sct_core::op::EvalError::Arity {
                            op: opcode,
                            got: args.len(),
                        }));
                    }
                } else if args.is_empty() {
                    return Err(StepError::Eval(sct_core::op::EvalError::Arity {
                        op: opcode,
                        got: 0,
                    }));
                }
                Expr::app(opcode, args.iter().map(|a| a.expr).collect())
            }
        };
        Ok(SymVal::new(expr, label))
    }

    /// `Jaddr(v⃗)K` as an expression.
    fn sym_addr_expr(&self, args: &[SymVal]) -> Expr {
        let exprs: Vec<Expr> = args.iter().map(|a| a.expr).collect();
        match self.params.addr_mode {
            sct_core::AddrMode::Sum => Expr::app(OpCode::Add, exprs),
            sct_core::AddrMode::X86 => match exprs.len() {
                0 => Expr::constant(0),
                1 => exprs.into_iter().next().expect("len checked"),
                2 => Expr::app(OpCode::Add, exprs),
                _ => {
                    let mut it = exprs.into_iter();
                    let base = it.next().expect("len checked");
                    let index = it.next().expect("len checked");
                    let scale = it.next().expect("len checked");
                    Expr::app(
                        OpCode::Add,
                        vec![base, Expr::app(OpCode::Mul, vec![index, scale])],
                    )
                }
            },
        }
    }

    /// Compute and concretize an address: returns the concrete address,
    /// its label, and (when the expression was symbolic) pins the state
    /// with an equality constraint — the angr-style concretization.
    fn concretize_addr(&self, state: &mut SymState, args: &[SymVal]) -> (u64, Label) {
        let label = Label::join_all(args.iter().map(|v| v.label));
        let expr = self.sym_addr_expr(args);
        match expr.as_const() {
            Some(a) => (a, label),
            None => {
                let a = self
                    .solver
                    .concretize(&expr, &state.constraints)
                    .unwrap_or(0);
                state.assume(Expr::app(
                    OpCode::Eq,
                    vec![expr, Expr::constant(a)],
                ));
                (a, label)
            }
        }
    }

    /// Adversarial address concretization for the load at index `i`:
    /// the attacker controls public inputs, so among the satisfying
    /// addresses prefer one where the load reads a secret — the choice
    /// that maximizes leakage. (The paper's tool gets the same effect
    /// from querying the solver about secret-region overlap before angr
    /// concretizes.) Falls back to default concretization.
    ///
    /// What the load reads at an address is what [`Self::execute_load`]
    /// would return there: the data of the youngest older store whose
    /// address resolved to it, else memory. Probing committed memory
    /// alone would pin the load to a secret cell that an in-flight store
    /// has overwritten with a public value, and the pin would exclude
    /// every address that leaks.
    fn concretize_load_addr(
        &self,
        state: &mut SymState,
        i: usize,
        args: &[SymVal],
    ) -> (u64, Label) {
        let label = Label::join_all(args.iter().map(|v| v.label));
        let expr = self.sym_addr_expr(args);
        if let Some(a) = expr.as_const() {
            return (a, label);
        }
        const PROBE_LIMIT: usize = 64;
        // Older stores with a resolved address, oldest first, with the
        // label of their data (`None` while the data is pending: a load
        // pinned there could not execute).
        let stores: Vec<(u64, Option<Label>)> = state
            .rob
            .iter_below(i)
            .filter_map(|(_, t)| {
                let (a, _) = t.store_resolved_addr()?;
                Some((a, t.store_resolved_data().map(|v| v.label)))
            })
            .collect();
        let reads_secret = |a: u64, in_memory: Label| {
            match stores.iter().rev().find(|&&(s, _)| s == a) {
                Some(&(_, data)) => data.is_some_and(Label::is_secret),
                None => in_memory.is_secret(),
            }
        };
        let mut secret_cells: BTreeSet<u64> = stores
            .iter()
            .map(|&(a, _)| a)
            .filter(|&a| reads_secret(a, state.mem.read(a).label))
            .collect();
        secret_cells.extend(
            state
                .mem
                .iter()
                .filter(|&(a, v)| reads_secret(a, v.label))
                .map(|(a, _)| a)
                .take(PROBE_LIMIT),
        );
        for s in secret_cells.into_iter().take(PROBE_LIMIT) {
            let pin = Expr::app(OpCode::Eq, vec![expr, Expr::constant(s)]);
            let mut cs = state.constraints.clone();
            cs.push(pin);
            if self.solver.check(&cs).is_sat() {
                state.assume(pin);
                return (s, label);
            }
        }
        let a = self
            .solver
            .concretize(&expr, &state.constraints)
            .unwrap_or(0);
        state.assume(Expr::app(OpCode::Eq, vec![expr, Expr::constant(a)]));
        (a, label)
    }

    /// Feasibility of the current path condition extended by `extra`.
    fn feasible(&self, state: &SymState, extra: Option<&Expr>) -> bool {
        match extra {
            None => self.solver.check(&state.constraints).maybe_sat(),
            Some(e) => {
                let mut cs = state.constraints.clone();
                cs.push(*e);
                self.solver.check(&cs).maybe_sat()
            }
        }
    }

    // ----- fetch -------------------------------------------------------------

    fn check_capacity(&self, state: &SymState, needed: usize) -> Result<(), StepError> {
        match self.params.rob_capacity {
            Some(cap) if state.rob.len() + needed > cap => Err(StepError::RobFull),
            _ => Ok(()),
        }
    }

    fn fetch(&self, mut st: SymState, d: Directive) -> Result<Successors, StepError> {
        let pc = st.pc;
        let instr = self.program.fetch(pc).ok_or(StepError::NoInstruction(pc))?;
        match (instr, d) {
            (Instr::Op { dst, op, args, next }, Directive::Fetch) => {
                self.check_capacity(&st, 1)?;
                st.rob.push(SymTransient::Op {
                    dst: *dst,
                    op: *op,
                    args: args.clone(),
                });
                st.pc = *next;
            }
            (Instr::Load { dst, addr, next }, Directive::Fetch) => {
                self.check_capacity(&st, 1)?;
                st.rob.push(SymTransient::Load {
                    dst: *dst,
                    addr: addr.clone(),
                    pp: pc,
                });
                st.pc = *next;
            }
            (Instr::Store { src, addr, next }, Directive::Fetch) => {
                self.check_capacity(&st, 1)?;
                st.rob.push(SymTransient::Store {
                    data: SymStoreData::Pending(*src),
                    addr: SymStoreAddr::Pending(addr.clone()),
                });
                st.pc = *next;
            }
            (Instr::Fence { next }, Directive::Fetch) => {
                self.check_capacity(&st, 1)?;
                st.rob.push(SymTransient::Fence);
                st.pc = *next;
            }
            (Instr::Br { op, args, tru, fls }, Directive::FetchBranch(b)) => {
                self.check_capacity(&st, 1)?;
                let guess = if b { *tru } else { *fls };
                st.rob.push(SymTransient::Br {
                    op: *op,
                    args: args.clone(),
                    guess,
                    tru: *tru,
                    fls: *fls,
                });
                st.pc = guess;
            }
            (Instr::Jmpi { args }, Directive::FetchJump(n)) => {
                self.check_capacity(&st, 1)?;
                st.rob.push(SymTransient::Jmpi {
                    args: args.clone(),
                    guess: n,
                });
                st.pc = n;
            }
            (Instr::Call { callee, ret }, Directive::Fetch) => {
                self.check_capacity(&st, 3)?;
                let marker = st.rob.push(SymTransient::Call);
                st.rob.push(SymTransient::Op {
                    dst: Reg::RSP,
                    op: OpCode::Succ,
                    args: vec![Operand::Reg(Reg::RSP)],
                });
                st.rob.push(SymTransient::Store {
                    data: SymStoreData::Pending(Operand::Imm(sct_core::Val::public(*ret))),
                    addr: SymStoreAddr::Pending(vec![Operand::Reg(Reg::RSP)]),
                });
                st.rsb.record(marker, RsbOp::Push(*ret));
                st.pc = *callee;
            }
            (Instr::Ret, d) => {
                self.check_capacity(&st, 4)?;
                let top = st.rsb.top();
                let guess: Pc = match (top, d, self.params.rsb_policy) {
                    (Some(n), Directive::Fetch, _) => n,
                    (None, Directive::FetchJump(n), RsbPolicy::AttackerChoice) => n,
                    (None, _, RsbPolicy::Refuse) => return Err(StepError::RsbRefused),
                    (None, Directive::Fetch, RsbPolicy::Circular { stale }) => stale,
                    _ => {
                        return Err(StepError::FetchMismatch {
                            pc,
                            found: "ret",
                        })
                    }
                };
                let marker = st.rob.push(SymTransient::Ret);
                st.rob.push(SymTransient::Load {
                    dst: Reg::RTMP,
                    addr: vec![Operand::Reg(Reg::RSP)],
                    pp: pc,
                });
                st.rob.push(SymTransient::Op {
                    dst: Reg::RSP,
                    op: OpCode::Pred,
                    args: vec![Operand::Reg(Reg::RSP)],
                });
                st.rob.push(SymTransient::Jmpi {
                    args: vec![Operand::Reg(Reg::RTMP)],
                    guess,
                });
                st.rsb.record(marker, RsbOp::Pop);
                st.pc = guess;
            }
            (found, _) => {
                return Err(StepError::FetchMismatch {
                    pc,
                    found: found.kind(),
                })
            }
        }
        st.record(d, &[]);
        Ok(vec![st])
    }

    // ----- execute -----------------------------------------------------------

    /// The side condition of every execute rule (no fence below `i`),
    /// then the values of the entry's operands `ops` — both read before
    /// the rule mutates the state.
    fn ready_operands(
        &self,
        state: &SymState,
        i: usize,
        ops: &[Operand],
    ) -> Result<Vec<SymVal>, StepError> {
        self.check_no_fence_below(state, i)?;
        self.resolve_list(state, i, ops)
    }

    fn execute(&self, st: SymState, i: usize) -> Result<Successors, StepError> {
        match *st.rob.get(i).ok_or(StepError::NoSuchIndex(i))? {
            SymTransient::Op { dst, op, ref args } => {
                let vals = self.ready_operands(&st, i, args)?;
                self.execute_op(st, i, dst, op, &vals)
            }
            SymTransient::Br {
                op,
                ref args,
                guess,
                tru,
                fls,
            } => {
                let vals = self.ready_operands(&st, i, args)?;
                self.execute_branch(st, i, op, &vals, guess, tru, fls)
            }
            SymTransient::Load { dst, ref addr, pp } => {
                let vals = self.ready_operands(&st, i, addr)?;
                self.execute_load(st, i, dst, &vals, pp)
            }
            SymTransient::Jmpi { ref args, guess } => {
                let vals = self.ready_operands(&st, i, args)?;
                self.execute_jmpi(st, i, &vals, guess)
            }
            SymTransient::LoadGuessed {
                dst,
                ref addr,
                fwd,
                from,
                pp,
            } => {
                let vals = self.ready_operands(&st, i, addr)?;
                self.execute_guessed_load(st, i, dst, &vals, fwd, from, pp)
            }
            ref other => Err(StepError::ExecuteMismatch {
                index: i,
                found: other.kind(),
            }),
        }
    }

    fn execute_op(
        &self,
        mut st: SymState,
        i: usize,
        dst: Reg,
        op: OpCode,
        vals: &[SymVal],
    ) -> Result<Successors, StepError> {
        let val = self.sym_eval_op(op, vals)?;
        st.rob.set(i, SymTransient::Value { dst, val });
        st.record(Directive::Execute(i), &[]);
        Ok(vec![st])
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_branch(
        &self,
        st: SymState,
        i: usize,
        op: OpCode,
        vals: &[SymVal],
        guess: Pc,
        tru: Pc,
        fls: Pc,
    ) -> Result<Successors, StepError> {
        let cond = self.sym_eval_op(op, vals)?;
        let label = cond.label;
        let outcomes = [true, false].map(|outcome| {
            let constraint = if outcome {
                Expr::app(OpCode::Ne, vec![cond.expr, Expr::constant(0)])
            } else {
                Expr::app(OpCode::Eq, vec![cond.expr, Expr::constant(0)])
            };
            let feasible = match constraint.as_const() {
                Some(0) => false,
                Some(_) => true,
                None => self.feasible(&st, Some(&constraint)),
            };
            let target = if outcome { tru } else { fls };
            feasible.then_some((target, constraint))
        });
        let succs = fork(st, outcomes).map(|(mut st, (target, constraint))| {
            st.assume(constraint);
            if target == guess {
                st.rob.set(i, SymTransient::Jump { target });
                st.record(
                    Directive::Execute(i),
                    &[Observation::Jump { target, label }],
                );
            } else {
                st.rob.truncate_from(i);
                st.rsb.truncate_from(i);
                st.rob.push(SymTransient::Jump { target });
                st.pc = target;
                st.record(
                    Directive::Execute(i),
                    &[Observation::Rollback, Observation::Jump { target, label }],
                );
            }
            st
        });
        Ok(succs.collect())
    }

    fn execute_jmpi(
        &self,
        mut st: SymState,
        i: usize,
        vals: &[SymVal],
        guess: Pc,
    ) -> Result<Successors, StepError> {
        let (target, label) = self.concretize_addr(&mut st, vals);
        if target == guess {
            st.rob.set(i, SymTransient::Jump { target });
            st.record(
                Directive::Execute(i),
                &[Observation::Jump { target, label }],
            );
        } else {
            st.rob.truncate_from(i);
            st.rsb.truncate_from(i);
            st.rob.push(SymTransient::Jump { target });
            st.pc = target;
            st.record(
                Directive::Execute(i),
                &[Observation::Rollback, Observation::Jump { target, label }],
            );
        }
        Ok(vec![st])
    }

    fn execute_load(
        &self,
        mut st: SymState,
        i: usize,
        dst: Reg,
        vals: &[SymVal],
        pp: Pc,
    ) -> Result<Successors, StepError> {
        let (a, la) = self.concretize_load_addr(&mut st, i, vals);
        // max(j) < i with buf(j) = store(_, a)
        let mut matching: Option<(usize, Option<SymVal>)> = None;
        for (j, t) in st.rob.iter_below(i) {
            if t.store_resolved_addr().is_some_and(|(av, _)| av == a) {
                matching = Some((j, t.store_resolved_data().cloned()));
            }
        }
        match matching {
            None => {
                let val = st.mem.read(a);
                st.rob.set(
                    i,
                    SymTransient::LoadedValue {
                        dst,
                        val,
                        prov: SymProvenance { dep: None, addr: a },
                        pp,
                    },
                );
                st.record(
                    Directive::Execute(i),
                    &[Observation::Read { addr: a, label: la }],
                );
                Ok(vec![st])
            }
            Some((j, Some(val))) => {
                st.rob.set(
                    i,
                    SymTransient::LoadedValue {
                        dst,
                        val,
                        prov: SymProvenance {
                            dep: Some(j),
                            addr: a,
                        },
                        pp,
                    },
                );
                st.record(
                    Directive::Execute(i),
                    &[Observation::Fwd { addr: a, label: la }],
                );
                Ok(vec![st])
            }
            Some((j, None)) => Err(StepError::StoreDataPending { index: i, store: j }),
        }
    }

    fn execute_store_value(&self, mut st: SymState, i: usize) -> Result<Successors, StepError> {
        let rv = match st.rob.get(i).ok_or(StepError::NoSuchIndex(i))? {
            SymTransient::Store {
                data: SymStoreData::Pending(rv),
                ..
            } => *rv,
            other => {
                return Err(StepError::ExecuteMismatch {
                    index: i,
                    found: other.kind(),
                })
            }
        };
        self.check_no_fence_below(&st, i)?;
        let val = self.resolve_operand(&st, i, &rv)?;
        st.rob.update(i, |t| {
            if let SymTransient::Store { data, .. } = t {
                *data = SymStoreData::Resolved(val);
            }
        });
        st.record(Directive::ExecuteValue(i), &[]);
        Ok(vec![st])
    }

    fn execute_store_addr(&self, mut st: SymState, i: usize) -> Result<Successors, StepError> {
        let ops = match st.rob.get(i).ok_or(StepError::NoSuchIndex(i))? {
            SymTransient::Store {
                addr: SymStoreAddr::Pending(ops),
                ..
            } => ops,
            other => {
                return Err(StepError::ExecuteMismatch {
                    index: i,
                    found: other.kind(),
                })
            }
        };
        let vals = self.ready_operands(&st, i, ops)?;
        let (a, la) = self.concretize_addr(&mut st, &vals);
        let hazard = st.rob.iter_above(i).find_map(|(k, t)| match t {
            SymTransient::LoadedValue { prov, pp, .. } => {
                let same_addr_older_source = prov.addr == a && prov.dep_lt(i);
                let from_store_wrong_addr = prov.dep == Some(i) && prov.addr != a;
                (same_addr_older_source || from_store_wrong_addr).then_some((k, *pp))
            }
            _ => None,
        });
        st.rob.update(i, |t| {
            if let SymTransient::Store { addr, .. } = t {
                *addr = SymStoreAddr::Resolved(a, la);
            }
        });
        match hazard {
            None => {
                st.record(
                    Directive::ExecuteAddr(i),
                    &[Observation::Fwd { addr: a, label: la }],
                );
            }
            Some((k, load_pp)) => {
                st.rob.truncate_from(k);
                st.rsb.truncate_from(k);
                st.pc = load_pp;
                st.record(
                    Directive::ExecuteAddr(i),
                    &[Observation::Rollback, Observation::Fwd { addr: a, label: la }],
                );
            }
        }
        Ok(vec![st])
    }

    fn execute_forward_guess(
        &self,
        mut st: SymState,
        i: usize,
        j: usize,
    ) -> Result<Successors, StepError> {
        match st.rob.get(i).ok_or(StepError::NoSuchIndex(i))? {
            SymTransient::Load { .. } => {}
            other => {
                return Err(StepError::ExecuteMismatch {
                    index: i,
                    found: other.kind(),
                })
            }
        }
        self.check_no_fence_below(&st, i)?;
        if j >= i {
            return Err(StepError::BadForwardSource { index: i, from: j });
        }
        let fwd = st
            .rob
            .get(j)
            .and_then(SymTransient::store_resolved_data)
            .copied()
            .ok_or(StepError::BadForwardSource { index: i, from: j })?;
        st.rob.update(i, |t| {
            if let SymTransient::Load { dst, addr, pp } = t {
                *t = SymTransient::LoadGuessed {
                    dst: *dst,
                    addr: std::mem::take(addr),
                    fwd,
                    from: j,
                    pp: *pp,
                };
            }
        });
        st.record(Directive::ExecuteFwd(i, j), &[]);
        Ok(vec![st])
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_guessed_load(
        &self,
        mut st: SymState,
        i: usize,
        dst: Reg,
        vals: &[SymVal],
        fwd: SymVal,
        from: usize,
        pp: Pc,
    ) -> Result<Successors, StepError> {
        let (a, la) = self.concretize_addr(&mut st, vals);
        if st.rob.get(from).is_some() {
            let store_addr = st
                .rob
                .get(from)
                .and_then(SymTransient::store_resolved_addr);
            let addr_consistent = match store_addr {
                None => true,
                Some((av, _)) => av == a,
            };
            let intervening = st
                .rob
                .iter_above(from)
                .take_while(|&(k, _)| k < i)
                .any(|(_, t)| t.store_resolved_addr().is_some_and(|(av, _)| av == a));
            if addr_consistent && !intervening {
                st.rob.set(
                    i,
                    SymTransient::LoadedValue {
                        dst,
                        val: fwd,
                        prov: SymProvenance {
                            dep: Some(from),
                            addr: a,
                        },
                        pp,
                    },
                );
                st.record(
                    Directive::Execute(i),
                    &[Observation::Fwd { addr: a, label: la }],
                );
            } else {
                st.rob.truncate_from(i);
                st.rsb.truncate_from(i);
                st.pc = pp;
                st.record(
                    Directive::Execute(i),
                    &[Observation::Rollback, Observation::Fwd { addr: a, label: la }],
                );
            }
            return Ok(vec![st]);
        }
        // Originating store retired: validate against memory.
        let prior_matching = st
            .rob
            .iter_below(i)
            .any(|(_, t)| t.store_resolved_addr().is_some_and(|(av, _)| av == a));
        if prior_matching {
            return Err(StepError::GuessedLoadBlocked { index: i });
        }
        let vmem = st.mem.read(a);
        // Value comparison may be symbolic: fork on equal/unequal where
        // feasible (labels must agree for the values to be equal).
        let labels_agree = vmem.label == fwd.label;
        let eq_expr = Expr::app(OpCode::Eq, vec![vmem.expr, fwd.expr]);
        let match_feasible = labels_agree
            && match eq_expr.as_const() {
                Some(0) => false,
                Some(_) => true,
                None => self.feasible(&st, Some(&eq_expr)),
            };
        let mismatch_expr = Expr::app(OpCode::Eq, vec![eq_expr, Expr::constant(0)]);
        let mismatch_feasible = !labels_agree
            || match mismatch_expr.as_const() {
                Some(0) => false,
                Some(_) => true,
                None => self.feasible(&st, Some(&mismatch_expr)),
            };
        let outcomes = [match_feasible.then_some(true), mismatch_feasible.then_some(false)];
        let succs = fork(st, outcomes).map(|(mut st, matched)| {
            if matched {
                if eq_expr.as_const().is_none() {
                    st.assume(eq_expr);
                }
                st.rob.set(
                    i,
                    SymTransient::LoadedValue {
                        dst,
                        val: vmem,
                        prov: SymProvenance { dep: None, addr: a },
                        pp,
                    },
                );
                st.record(
                    Directive::Execute(i),
                    &[Observation::Read { addr: a, label: la }],
                );
            } else {
                if labels_agree && mismatch_expr.as_const().is_none() {
                    st.assume(mismatch_expr);
                }
                st.rob.truncate_from(i);
                st.rsb.truncate_from(i);
                st.pc = pp;
                st.record(
                    Directive::Execute(i),
                    &[Observation::Rollback, Observation::Read { addr: a, label: la }],
                );
            }
            st
        });
        Ok(succs.collect())
    }

    // ----- retire ------------------------------------------------------------

    fn retire(&self, mut st: SymState) -> Result<Successors, StepError> {
        let i = st.rob.min().ok_or(StepError::EmptyBuffer)?;
        match *st.rob.get(i).expect("min present") {
            SymTransient::Value { dst, val } | SymTransient::LoadedValue { dst, val, .. } => {
                st.regs.write(dst, val);
                st.rob.pop_min();
                st.record(Directive::Retire, &[]);
            }
            SymTransient::Jump { .. } | SymTransient::Fence => {
                st.rob.pop_min();
                st.record(Directive::Retire, &[]);
            }
            SymTransient::Store {
                data: SymStoreData::Resolved(v),
                addr: SymStoreAddr::Resolved(a, la),
            } => {
                st.mem.write(a, v);
                st.rob.pop_min();
                st.record(Directive::Retire, &[Observation::Write { addr: a, label: la }]);
            }
            SymTransient::Call => {
                let rsp_val = match st.rob.get(i + 1) {
                    Some(SymTransient::Value { dst, val }) if *dst == Reg::RSP => *val,
                    _ => {
                        return Err(StepError::NotRetirable {
                            index: i,
                            found: "call",
                        })
                    }
                };
                let (sval, sa, sl) = match st.rob.get(i + 2) {
                    Some(SymTransient::Store {
                        data: SymStoreData::Resolved(v),
                        addr: SymStoreAddr::Resolved(a, l),
                    }) => (*v, *a, *l),
                    _ => {
                        return Err(StepError::NotRetirable {
                            index: i,
                            found: "call",
                        })
                    }
                };
                st.regs.write(Reg::RSP, rsp_val);
                st.mem.write(sa, sval);
                st.rob.pop_min_n(3);
                st.record(
                    Directive::Retire,
                    &[Observation::Write { addr: sa, label: sl }],
                );
            }
            SymTransient::Ret => {
                let loaded_ok = matches!(
                    st.rob.get(i + 1),
                    Some(SymTransient::LoadedValue { dst, .. } | SymTransient::Value { dst, .. })
                        if *dst == Reg::RTMP
                );
                let rsp_val = match st.rob.get(i + 2) {
                    Some(SymTransient::Value { dst, val }) if *dst == Reg::RSP => {
                        Some(*val)
                    }
                    _ => None,
                };
                let jump_ok = matches!(st.rob.get(i + 3), Some(SymTransient::Jump { .. }));
                match (loaded_ok, rsp_val, jump_ok) {
                    (true, Some(v), true) => {
                        st.regs.write(Reg::RSP, v);
                        st.rob.pop_min_n(4);
                        st.record(Directive::Retire, &[]);
                    }
                    _ => {
                        return Err(StepError::NotRetirable {
                            index: i,
                            found: "ret",
                        })
                    }
                }
            }
            ref other => {
                return Err(StepError::NotRetirable {
                    index: i,
                    found: other.kind(),
                })
            }
        }
        Ok(vec![st])
    }
}

/// The successors of a two-way fork: `state` paired with each side that
/// is `Some`, first side first. The state is cloned only when both sides
/// are present, and the second one takes `state` itself.
fn fork<T>(state: SymState, sides: [Option<T>; 2]) -> impl Iterator<Item = (SymState, T)> {
    let (first, second) = match sides {
        [Some(a), Some(b)] => (Some((state.clone(), a)), Some((state, b))),
        [Some(a), None] => (Some((state, a)), None),
        [None, Some(b)] => (None, Some((state, b))),
        [None, None] => (None, None),
    };
    first.into_iter().chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SymState;
    use sct_core::examples::fig1;
    use sct_core::reg::names::*;

    #[test]
    fn concrete_inputs_single_successor_per_step() {
        let (p, cfg) = fig1();
        let m = SymMachine::new(&p);
        let st = SymState::from_config(&cfg);
        let schedule = [
            Directive::FetchBranch(true),
            Directive::Fetch,
            Directive::Fetch,
            Directive::Execute(2),
            Directive::Execute(3),
        ];
        let mut cur = st;
        for d in schedule {
            let succs = m.step(cur, d).unwrap();
            assert_eq!(succs.len(), 1, "concrete run must not fork at {d}");
            cur = succs.into_iter().next().unwrap();
        }
        assert!(cur.trace().iter().any(|o| o.is_secret()));
    }

    #[test]
    fn symbolic_branch_forks_on_both_outcomes() {
        let (p, cfg) = fig1();
        let m = SymMachine::new(&p);
        let st = SymState::from_config_symbolizing(&cfg, &[RA]);
        let st = m
            .step(st, Directive::FetchBranch(true))
            .unwrap()
            .pop()
            .unwrap();
        let succs = m.step(st, Directive::Execute(1)).unwrap();
        assert_eq!(succs.len(), 2, "symbolic condition must fork");
        // One successor resolved correctly (guess true), one rolled back.
        let rollbacks = succs
            .iter()
            .filter(|s| s.trace().contains(&Observation::Rollback))
            .count();
        assert_eq!(rollbacks, 1);
        // Each successor carries a path constraint on ra.
        for s in &succs {
            assert!(!s.constraints.is_empty());
        }
    }

    #[test]
    fn symbolic_address_concretizes_and_constrains() {
        let (p, cfg) = fig1();
        let m = SymMachine::new(&p);
        let st = SymState::from_config_symbolizing(&cfg, &[RA]);
        let st = m
            .step(st, Directive::FetchBranch(true))
            .unwrap()
            .pop()
            .unwrap();
        let st = m.step(st, Directive::Fetch).unwrap().pop().unwrap();
        let st = m.step(st, Directive::Execute(2)).unwrap().pop().unwrap();
        // The load's address 0x40 + ra was symbolic: a constraint pins it.
        assert!(!st.constraints.is_empty());
        assert!(matches!(
            st.trace().last(),
            Some(Observation::Read { .. })
        ));
    }

    /// `store ra, [0x40]; load rc, [0x44]` with `ra` symbolic and
    /// 7 in memory at 0x44: the load guesses that it forwards `ra` from
    /// the store, the store retires, and the guess is then checked
    /// against memory, where `7 = ra` can go either way.
    #[test]
    fn guessed_load_forks_on_a_symbolic_match_against_memory() {
        use sct_core::{Config, Val};
        let mut p = Program::new();
        p.entry = 1;
        p.insert(
            1,
            Instr::Store {
                src: RA.into(),
                addr: vec![Operand::imm(0x40)],
                next: 2,
            },
        );
        p.insert(
            2,
            Instr::Load {
                dst: RC,
                addr: vec![Operand::imm(0x44)],
                next: 3,
            },
        );
        let regs = [(RA, Val::public(5))].into_iter().collect();
        let mut cfg = Config::initial(regs, Default::default(), 1);
        cfg.mem.write(0x44, Val::public(7));
        let m = SymMachine::new(&p);
        let mut st = SymState::from_config_symbolizing(&cfg, &[RA]);
        for d in [
            Directive::Fetch,            // store at 1
            Directive::Fetch,            // load at 2
            Directive::ExecuteValue(1),  // store data = ra
            Directive::ExecuteFwd(2, 1), // guess: the load forwards ra
            Directive::ExecuteAddr(1),   // store address 0x40
            Directive::Retire,           // the store commits: `from` is gone
        ] {
            st = m.step(st, d).unwrap().pop().unwrap();
        }
        assert!(st.constraints.is_empty());
        let equal = Expr::app(
            OpCode::Eq,
            vec![st.mem.read(0x44).expr, st.regs.read(RA).expr],
        );
        let unequal = Expr::app(OpCode::Eq, vec![equal, Expr::constant(0)]);
        let read = Observation::Read {
            addr: 0x44,
            label: Label::Public,
        };

        let succs = m.step(st, Directive::Execute(2)).unwrap();
        assert_eq!(succs.len(), 2, "a symbolic comparison must fork");
        let (matched, mismatched) = (&succs[0], &succs[1]);
        // The guess matches memory: the load reads 0x44, under `7 = ra`.
        assert_eq!(matched.step_observations(), &[read]);
        assert_eq!(matched.constraints, vec![equal]);
        assert!(matches!(
            matched.rob.get(2),
            Some(SymTransient::LoadedValue {
                dst: RC,
                prov: SymProvenance {
                    dep: None,
                    addr: 0x44
                },
                ..
            })
        ));
        // The guess was wrong: roll back to the load, under `7 ≠ ra`.
        assert_eq!(
            mismatched.step_observations(),
            &[Observation::Rollback, read]
        );
        assert_eq!(mismatched.constraints, vec![unequal]);
        assert!(
            mismatched.rob.is_empty(),
            "the rollback truncates the buffer"
        );
        assert_eq!(mismatched.pc, 2);
    }
}
