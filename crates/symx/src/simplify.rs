//! Algebraic simplification of symbolic expressions.
//!
//! Rules are deliberately conservative: every rewrite preserves the
//! 64-bit wrapping semantics of the concrete evaluator exactly (the
//! property test at the bottom checks random instances under random
//! models). Anything clever (and risky) is left to the solver.
//!
//! All functions run **without holding any interner lock**: the caller
//! ([`crate::expr`]'s memoized `app` constructor) releases the raw
//! node's shard before simplifying, and every constructor re-entered
//! here (`constant`, `raw_app`) locks per operation. Results are
//! memoized per raw node, so each distinct application simplifies once
//! per process.

use crate::expr::{as_const_global, constant_global, raw_app_global, ExprKind, ExprRef};
use sct_core::op::OpCode;

fn constant(v: u64) -> ExprRef {
    constant_global(v)
}

fn raw_app(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    raw_app_global(opcode, args)
}

fn as_const(e: ExprRef) -> Option<u64> {
    as_const_global(e)
}

/// Simplify `opcode(args)` after constant folding failed (at least one
/// operand is symbolic).
pub(crate) fn simplify_app(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    use OpCode::*;
    match opcode {
        Add | Addr => simplify_add(opcode, args),
        Mul => simplify_mul(args),
        And => simplify_and(args),
        Or => simplify_or(args),
        Xor => simplify_xor(args),
        Sub => simplify_sub(args),
        Mov => args.into_iter().next().expect("mov has one operand"),
        Not => simplify_not(args),
        Eq => simplify_eq(args),
        Ne => simplify_cmp_same(Ne, args, 0),
        Lt => simplify_cmp_same(Lt, args, 0),
        Gt => simplify_cmp_same(Gt, args, 0),
        Le => simplify_cmp_same(Le, args, 1),
        Ge => simplify_cmp_same(Ge, args, 1),
        SLt => simplify_cmp_same(SLt, args, 0),
        SLe => simplify_cmp_same(SLe, args, 1),
        Csel => simplify_csel(args),
        Shl | Shr | Succ | Pred => raw_app(opcode, args),
    }
}

/// Drop additive zeros; single remaining operand collapses.
fn simplify_add(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    let mut rest: Vec<ExprRef> = Vec::with_capacity(args.len());
    let mut acc: u64 = 0;
    for a in args {
        match as_const(a) {
            Some(c) => acc = acc.wrapping_add(c),
            None => rest.push(a),
        }
    }
    if acc != 0 {
        rest.push(constant(acc));
    }
    match rest.len() {
        0 => constant(0),
        1 => rest.pop().expect("len checked"),
        _ => raw_app(opcode, rest),
    }
}

fn simplify_mul(args: Vec<ExprRef>) -> ExprRef {
    let mut rest: Vec<ExprRef> = Vec::with_capacity(args.len());
    let mut acc: u64 = 1;
    for a in args {
        match as_const(a) {
            Some(0) => return constant(0),
            Some(c) => acc = acc.wrapping_mul(c),
            None => rest.push(a),
        }
    }
    if acc == 0 {
        return constant(0);
    }
    if acc != 1 {
        rest.push(constant(acc));
    }
    match rest.len() {
        0 => constant(1),
        1 => rest.pop().expect("len checked"),
        _ => raw_app(OpCode::Mul, rest),
    }
}

fn simplify_and(args: Vec<ExprRef>) -> ExprRef {
    let mut rest: Vec<ExprRef> = Vec::with_capacity(args.len());
    let mut acc: u64 = u64::MAX;
    for a in args {
        match as_const(a) {
            Some(0) => return constant(0),
            Some(c) => acc &= c,
            None => {
                if !rest.contains(&a) {
                    rest.push(a); // x & x = x
                }
            }
        }
    }
    if acc == 0 {
        return constant(0);
    }
    if acc != u64::MAX {
        rest.push(constant(acc));
    }
    match rest.len() {
        0 => constant(u64::MAX),
        1 => rest.pop().expect("len checked"),
        _ => raw_app(OpCode::And, rest),
    }
}

fn simplify_or(args: Vec<ExprRef>) -> ExprRef {
    let mut rest: Vec<ExprRef> = Vec::with_capacity(args.len());
    let mut acc: u64 = 0;
    for a in args {
        match as_const(a) {
            Some(u64::MAX) => return constant(u64::MAX),
            Some(c) => acc |= c,
            None => {
                if !rest.contains(&a) {
                    rest.push(a); // x | x = x
                }
            }
        }
    }
    if acc == u64::MAX {
        return constant(u64::MAX);
    }
    if acc != 0 {
        rest.push(constant(acc));
    }
    match rest.len() {
        0 => constant(0),
        1 => rest.pop().expect("len checked"),
        _ => raw_app(OpCode::Or, rest),
    }
}

fn simplify_xor(args: Vec<ExprRef>) -> ExprRef {
    // x ^ x cancels pairwise; constants fold together.
    let mut rest: Vec<ExprRef> = Vec::with_capacity(args.len());
    let mut acc: u64 = 0;
    for a in args {
        match as_const(a) {
            Some(c) => acc ^= c,
            None => {
                if let Some(k) = rest.iter().position(|&r| r == a) {
                    rest.swap_remove(k);
                } else {
                    rest.push(a);
                }
            }
        }
    }
    if acc != 0 {
        rest.push(constant(acc));
    }
    match rest.len() {
        0 => constant(0),
        1 => rest.pop().expect("len checked"),
        _ => raw_app(OpCode::Xor, rest),
    }
}

fn simplify_sub(args: Vec<ExprRef>) -> ExprRef {
    // x - 0 - 0 ... = x ; x - x = 0 (two-operand case only).
    if args.len() == 2 {
        if as_const(args[1]) == Some(0) {
            return args[0];
        }
        if args[0] == args[1] {
            return constant(0);
        }
    }
    if args[1..].iter().all(|&a| as_const(a) == Some(0)) {
        return args[0];
    }
    raw_app(OpCode::Sub, args)
}

fn simplify_not(args: Vec<ExprRef>) -> ExprRef {
    // not(not(x)) = x
    if let ExprKind::App(OpCode::Not, inner) = args[0].kind() {
        return inner[0];
    }
    raw_app(OpCode::Not, args)
}

fn simplify_eq(args: Vec<ExprRef>) -> ExprRef {
    if args[0] == args[1] {
        return constant(1);
    }
    raw_app(OpCode::Eq, args)
}

/// Comparisons of an expression with itself have a known value
/// (`x < x = 0`, `x ≤ x = 1`, ...).
fn simplify_cmp_same(opcode: OpCode, args: Vec<ExprRef>, same_value: u64) -> ExprRef {
    if args[0] == args[1] {
        return constant(same_value);
    }
    raw_app(opcode, args)
}

fn simplify_csel(args: Vec<ExprRef>) -> ExprRef {
    match as_const(args[0]) {
        Some(0) => args[2],
        Some(_) => args[1],
        None => {
            if args[1] == args[2] {
                args[1]
            } else {
                raw_app(OpCode::Csel, args)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{Expr, Model, VarId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sct_core::op::OpCode;

    fn x() -> Expr {
        Expr::var(VarId(0))
    }

    #[test]
    fn additive_identities() {
        let e = Expr::app(OpCode::Add, vec![x(), Expr::constant(0)]);
        assert_eq!(e, x());
        let e = Expr::app(OpCode::Add, vec![Expr::constant(3), x(), Expr::constant(4)]);
        assert_eq!(e.to_string(), "add(v0, 0x7)");
    }

    #[test]
    fn multiplicative_identities() {
        assert_eq!(Expr::app(OpCode::Mul, vec![x(), Expr::constant(1)]), x());
        assert_eq!(
            Expr::app(OpCode::Mul, vec![x(), Expr::constant(0)]).as_const(),
            Some(0)
        );
    }

    #[test]
    fn bitwise_identities() {
        assert_eq!(Expr::app(OpCode::And, vec![x(), x()]), x());
        assert_eq!(Expr::app(OpCode::Or, vec![x(), x()]), x());
        assert_eq!(Expr::app(OpCode::Xor, vec![x(), x()]).as_const(), Some(0));
        assert_eq!(
            Expr::app(OpCode::And, vec![x(), Expr::constant(0)]).as_const(),
            Some(0)
        );
        assert_eq!(
            Expr::app(OpCode::Or, vec![x(), Expr::constant(u64::MAX)]).as_const(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn subtraction_and_not() {
        assert_eq!(Expr::app(OpCode::Sub, vec![x(), Expr::constant(0)]), x());
        assert_eq!(Expr::app(OpCode::Sub, vec![x(), x()]).as_const(), Some(0));
        let nn = Expr::app(OpCode::Not, vec![Expr::app(OpCode::Not, vec![x()])]);
        assert_eq!(nn, x());
    }

    #[test]
    fn reflexive_comparisons() {
        assert_eq!(Expr::app(OpCode::Eq, vec![x(), x()]).as_const(), Some(1));
        assert_eq!(Expr::app(OpCode::Lt, vec![x(), x()]).as_const(), Some(0));
        assert_eq!(Expr::app(OpCode::Le, vec![x(), x()]).as_const(), Some(1));
        assert_eq!(Expr::app(OpCode::SLe, vec![x(), x()]).as_const(), Some(1));
    }

    #[test]
    fn csel_simplifications() {
        let a = Expr::var(VarId(1));
        let b = Expr::var(VarId(2));
        assert_eq!(
            Expr::app(OpCode::Csel, vec![Expr::constant(1), a, b]),
            a
        );
        assert_eq!(
            Expr::app(OpCode::Csel, vec![Expr::constant(0), a, b]),
            b
        );
        assert_eq!(Expr::app(OpCode::Csel, vec![x(), a, a]), a);
    }

    /// Every simplification preserves semantics: compare simplified vs
    /// raw evaluation on random expressions and models.
    #[test]
    fn simplification_is_semantics_preserving() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..2_000 {
            let op = OpCode::ALL[rng.gen_range(0..OpCode::ALL.len())];
            let n = op.arity().unwrap_or(rng.gen_range(1..4));
            let args: Vec<Expr> = (0..n)
                .map(|_| match rng.gen_range(0..3u8) {
                    0 => Expr::constant(rng.gen_range(0..4)),
                    1 => Expr::var(VarId(rng.gen_range(0..2))),
                    _ => Expr::app(
                        OpCode::Add,
                        vec![
                            Expr::var(VarId(rng.gen_range(0..2))),
                            Expr::constant(rng.gen_range(0..4)),
                        ],
                    ),
                })
                .collect();
            let simplified = Expr::app(op, args.clone());
            let raw = Expr::raw_app(op, args);
            for _ in 0..8 {
                let model: Model = [
                    (VarId(0), rng.gen::<u64>() % 16),
                    (VarId(1), rng.gen::<u64>()),
                ]
                .into_iter()
                .collect();
                assert_eq!(
                    simplified.eval(&model),
                    raw.eval(&model),
                    "op {op:?}: {simplified} vs raw"
                );
            }
        }
    }
}
