//! Physical instructions (the left column of Table 1) and programs.

use crate::op::OpCode;
use crate::reg::Reg;
use crate::value::{Pc, Val};
use std::collections::BTreeMap;
use std::fmt;

/// An operand `rv`: a register name or an immediate labeled value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register read.
    Reg(Reg),
    /// An immediate labeled value.
    Imm(Val),
}

impl Operand {
    /// Convenience public immediate.
    pub fn imm(bits: u64) -> Operand {
        Operand::Imm(Val::public(bits))
    }

    /// The register, if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Val> for Operand {
    fn from(v: Val) -> Self {
        Operand::Imm(v)
    }
}

impl From<u64> for Operand {
    fn from(bits: u64) -> Self {
        Operand::imm(bits)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A physical instruction (Table 1, left column).
///
/// As in the paper, every non-branching instruction carries the program
/// point `n'` of its successor explicitly; the assembler fills these in.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// `(r = op(op, r⃗v, n'))` — arithmetic operation.
    Op {
        /// Destination register.
        dst: Reg,
        /// Opcode.
        op: OpCode,
        /// Operands.
        args: Vec<Operand>,
        /// Next program point `n'`.
        next: Pc,
    },
    /// `br(op, r⃗v, n_true, n_false)` — conditional branch.
    Br {
        /// Boolean opcode deciding the branch.
        op: OpCode,
        /// Operands of the condition.
        args: Vec<Operand>,
        /// Target when the condition holds.
        tru: Pc,
        /// Target when it does not.
        fls: Pc,
    },
    /// `(r = load(r⃗v, n'))` — memory load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operands (fed to `addr`).
        addr: Vec<Operand>,
        /// Next program point `n'`.
        next: Pc,
    },
    /// `store(rv, r⃗v, n')` — memory store.
    Store {
        /// The register or value stored.
        src: Operand,
        /// Address operands (fed to `addr`).
        addr: Vec<Operand>,
        /// Next program point `n'`.
        next: Pc,
    },
    /// `jmpi(r⃗v)` — indirect jump (target computed via `addr`).
    Jmpi {
        /// Target-address operands.
        args: Vec<Operand>,
    },
    /// `call(n_f, n_ret)` — direct call.
    Call {
        /// Callee program point.
        callee: Pc,
        /// Return program point.
        ret: Pc,
    },
    /// `ret` — return.
    Ret,
    /// `fence n'` — speculation barrier.
    Fence {
        /// Next program point `n'`.
        next: Pc,
    },
}

impl Instr {
    /// The statically-known successor program point, if any (branches,
    /// indirect jumps and returns have none).
    pub fn next(&self) -> Option<Pc> {
        match self {
            Instr::Op { next, .. }
            | Instr::Load { next, .. }
            | Instr::Store { next, .. }
            | Instr::Fence { next } => Some(*next),
            Instr::Call { callee, .. } => Some(*callee),
            Instr::Br { .. } | Instr::Jmpi { .. } | Instr::Ret => None,
        }
    }

    /// All registers this instruction reads.
    pub fn reads(&self) -> Vec<Reg> {
        fn push_ops(out: &mut Vec<Reg>, ops: &[Operand]) {
            out.extend(ops.iter().filter_map(|o| o.as_reg()));
        }
        let mut out = Vec::new();
        match self {
            Instr::Op { args, .. } | Instr::Br { args, .. } | Instr::Jmpi { args } => {
                push_ops(&mut out, args)
            }
            Instr::Load { addr, .. } => push_ops(&mut out, addr),
            Instr::Store { src, addr, .. } => {
                if let Some(r) = src.as_reg() {
                    out.push(r);
                }
                push_ops(&mut out, addr);
            }
            Instr::Call { .. } | Instr::Fence { .. } => {}
            Instr::Ret => out.push(Reg::RSP),
        }
        out
    }

    /// The register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        match self {
            Instr::Op { dst, .. } | Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// A short mnemonic used in diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Instr::Op { .. } => "op",
            Instr::Br { .. } => "br",
            Instr::Load { .. } => "load",
            Instr::Store { .. } => "store",
            Instr::Jmpi { .. } => "jmpi",
            Instr::Call { .. } => "call",
            Instr::Ret => "ret",
            Instr::Fence { .. } => "fence",
        }
    }
}

fn fmt_ops(f: &mut fmt::Formatter<'_>, args: &[Operand]) -> fmt::Result {
    write!(f, "[")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, "]")
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Op { dst, op, args, next } => {
                write!(f, "({dst} = op({op}, ")?;
                fmt_ops(f, args)?;
                write!(f, ", {next}))")
            }
            Instr::Br { op, args, tru, fls } => {
                write!(f, "br({op}, ")?;
                fmt_ops(f, args)?;
                write!(f, ", {tru}, {fls})")
            }
            Instr::Load { dst, addr, next } => {
                write!(f, "({dst} = load(")?;
                fmt_ops(f, addr)?;
                write!(f, ", {next}))")
            }
            Instr::Store { src, addr, next } => {
                write!(f, "store({src}, ")?;
                fmt_ops(f, addr)?;
                write!(f, ", {next})")
            }
            Instr::Jmpi { args } => {
                write!(f, "jmpi(")?;
                fmt_ops(f, args)?;
                write!(f, ")")
            }
            Instr::Call { callee, ret } => write!(f, "call({callee}, {ret})"),
            Instr::Ret => write!(f, "ret"),
            Instr::Fence { next } => write!(f, "fence {next}"),
        }
    }
}

/// A program: the instruction-space part of the paper's `µ`, a partial map
/// from program points to physical instructions.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    instrs: BTreeMap<Pc, Instr>,
    /// The entry program point (`n` of initial configurations).
    pub entry: Pc,
}

impl Program {
    /// An empty program with entry point 0.
    pub fn new() -> Self {
        Program::default()
    }

    /// Look up `µ(n)` in instruction space.
    pub fn fetch(&self, n: Pc) -> Option<&Instr> {
        self.instrs.get(&n)
    }

    /// Place an instruction at program point `n`, replacing any previous
    /// instruction there.
    pub fn insert(&mut self, n: Pc, instr: Instr) {
        self.instrs.insert(n, instr);
    }

    /// Iterate over instructions in program-point order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &Instr)> + '_ {
        self.instrs.iter().map(|(&n, i)| (n, i))
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The largest mapped program point, if any.
    pub fn max_pc(&self) -> Option<Pc> {
        self.instrs.keys().next_back().copied()
    }
}

impl FromIterator<(Pc, Instr)> for Program {
    fn from_iter<I: IntoIterator<Item = (Pc, Instr)>>(iter: I) -> Self {
        Program {
            instrs: iter.into_iter().collect(),
            entry: 0,
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, i) in self.iter() {
            writeln!(f, "{n}: {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    fn fig1_program() -> Program {
        // Figure 1:
        // 1: br(>, (4, ra), 2, 4)
        // 2: (rb = load([40, ra], 3))
        // 3: (rc = load([44, rb], 4))
        let mut p = Program::new();
        p.entry = 1;
        p.insert(
            1,
            Instr::Br {
                op: OpCode::Gt,
                args: vec![Operand::imm(4), RA.into()],
                tru: 2,
                fls: 4,
            },
        );
        p.insert(
            2,
            Instr::Load {
                dst: RB,
                addr: vec![Operand::imm(0x40), RA.into()],
                next: 3,
            },
        );
        p.insert(
            3,
            Instr::Load {
                dst: RC,
                addr: vec![Operand::imm(0x44), RB.into()],
                next: 4,
            },
        );
        p
    }

    #[test]
    fn program_lookup_and_order() {
        let p = fig1_program();
        assert_eq!(p.len(), 3);
        assert!(p.fetch(1).is_some());
        assert!(p.fetch(4).is_none());
        assert_eq!(p.max_pc(), Some(3));
        let pcs: Vec<Pc> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(pcs, vec![1, 2, 3]);
    }

    #[test]
    fn next_reads_writes() {
        let p = fig1_program();
        let br = p.fetch(1).unwrap();
        assert_eq!(br.next(), None);
        assert_eq!(br.reads(), vec![RA]);
        assert_eq!(br.writes(), None);
        let ld = p.fetch(2).unwrap();
        assert_eq!(ld.next(), Some(3));
        assert_eq!(ld.reads(), vec![RA]);
        assert_eq!(ld.writes(), Some(RB));
    }

    #[test]
    fn store_reads_both_value_and_address() {
        let st = Instr::Store {
            src: RB.into(),
            addr: vec![Operand::imm(0x40), RA.into()],
            next: 5,
        };
        assert_eq!(st.reads(), vec![RB, RA]);
        assert_eq!(st.kind(), "store");
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = fig1_program();
        assert_eq!(p.fetch(1).unwrap().to_string(), "br(gt, [4pub, ra], 2, 4)");
        assert_eq!(
            p.fetch(2).unwrap().to_string(),
            "(rb = load([64pub, ra], 3))"
        );
    }

    #[test]
    fn call_next_is_callee() {
        let c = Instr::Call { callee: 5, ret: 4 };
        assert_eq!(c.next(), Some(5));
        assert_eq!(Instr::Ret.reads(), vec![Reg::RSP]);
    }
}
