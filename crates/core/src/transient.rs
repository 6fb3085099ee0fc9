//! Transient instructions (the right column of Table 1).

use crate::op::OpCode;
use crate::reg::Reg;
use crate::value::{Pc, Val, Word};
use std::fmt;

use crate::instr::Operand;

/// The provenance annotation `{j, a}` on a resolved load
/// `(r = vℓ{j,a})_n`: where the value came from and which address it is
/// bound to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LoadProvenance {
    /// `j`: the reorder-buffer index of the store the value was forwarded
    /// from, or `None` (`⊥`) when it was read from memory. The paper
    /// defines `⊥ < n` for every index `n`, which [`LoadProvenance::dep_lt`]
    /// encodes.
    pub dep: Option<usize>,
    /// `a`: the address the value is associated with.
    pub addr: Word,
}

impl LoadProvenance {
    /// `true` iff the dependency index is `< i`, treating `⊥` as smaller
    /// than every index (the paper's convention in the store hazard check).
    pub fn dep_lt(&self, i: usize) -> bool {
        match self.dep {
            None => true,
            Some(j) => j < i,
        }
    }

    /// `true` iff the dependency index is `≥ i` (`⊥` never is).
    pub fn dep_ge(&self, i: usize) -> bool {
        !self.dep_lt(i)
    }
}

/// Resolution state of a store's data operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StoreData {
    /// `rv` not yet resolved.
    Pending(Operand),
    /// Resolved to `vℓ`.
    Resolved(Val),
}

impl StoreData {
    /// The resolved value, if any.
    pub fn resolved(&self) -> Option<Val> {
        match self {
            StoreData::Resolved(v) => Some(*v),
            StoreData::Pending(_) => None,
        }
    }
}

/// Resolution state of a store's address operands.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StoreAddr {
    /// `r⃗v` not yet resolved to an address.
    Pending(Vec<Operand>),
    /// Resolved to `aℓa`.
    Resolved(Val),
}

impl StoreAddr {
    /// The resolved address, if any.
    pub fn resolved(&self) -> Option<Val> {
        match self {
            StoreAddr::Resolved(a) => Some(*a),
            StoreAddr::Pending(_) => None,
        }
    }
}

/// A transient instruction in the reorder buffer (Table 1, right column).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Transient {
    /// `(r = op(op, r⃗v))` — unresolved arithmetic operation.
    Op {
        /// Destination register.
        dst: Reg,
        /// Opcode.
        op: OpCode,
        /// Operands.
        args: Vec<Operand>,
    },
    /// `(r = vℓ)` — resolved value.
    Value {
        /// Destination register.
        dst: Reg,
        /// The resolved value.
        val: Val,
    },
    /// `br(op, r⃗v, n0, (n_true, n_false))` — unresolved conditional; `n0`
    /// records the speculatively-taken branch.
    Br {
        /// Boolean opcode.
        op: OpCode,
        /// Condition operands.
        args: Vec<Operand>,
        /// The branch chosen at fetch time.
        guess: Pc,
        /// True target.
        tru: Pc,
        /// False target.
        fls: Pc,
    },
    /// `jump n0` — resolved conditional/indirect jump.
    Jump {
        /// The resolved target.
        target: Pc,
    },
    /// `(r = load(r⃗v))_n` — unresolved load, annotated with the program
    /// point `n` of the physical load that produced it.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operands.
        addr: Vec<Operand>,
        /// Originating program point.
        pp: Pc,
    },
    /// `(r = load(r⃗v, (vℓ, j)))_n` — partially resolved load carrying data
    /// speculatively forwarded from the (possibly address-unresolved) store
    /// at buffer index `j` (§3.5, aliasing prediction).
    LoadGuessed {
        /// Destination register.
        dst: Reg,
        /// Address operands (still to be resolved).
        addr: Vec<Operand>,
        /// The forwarded value.
        fwd: Val,
        /// Buffer index of the originating store.
        from: usize,
        /// Originating program point.
        pp: Pc,
    },
    /// `(r = vℓ{j,a})_n` — resolved load. Behaves like [`Transient::Value`]
    /// for the register-resolve function but keeps its provenance for the
    /// store hazard checks, and its program point for rollbacks.
    LoadedValue {
        /// Destination register.
        dst: Reg,
        /// The loaded (or forwarded) value.
        val: Val,
        /// Provenance `{j, a}`.
        prov: LoadProvenance,
        /// Originating program point.
        pp: Pc,
    },
    /// `store(rv, r⃗v)` / `store(vℓ, r⃗v)` / `store(rv, aℓ)` /
    /// `store(vℓ, aℓ)` — a store whose data and address resolve
    /// independently (via `execute i: value` and `execute i: addr`).
    Store {
        /// Data-operand state.
        data: StoreData,
        /// Address-operand state.
        addr: StoreAddr,
    },
    /// `jmpi(r⃗v, n0)` — unresolved indirect jump predicted to `n0`.
    Jmpi {
        /// Target operands.
        args: Vec<Operand>,
        /// Predicted target.
        guess: Pc,
    },
    /// `call` — marker produced by fetching a `call` (Appendix A).
    Call,
    /// `ret` — marker produced by fetching a `ret` (Appendix A).
    Ret,
    /// `fence` — speculation barrier (no execute step).
    Fence,
}

impl Transient {
    /// The register this entry assigns, for the register-resolve function:
    /// `Some((r, Some(v)))` for resolved assignments, `Some((r, None))`
    /// for pending ones, `None` for non-assignments.
    ///
    /// Partially-resolved loads ([`Transient::LoadGuessed`]) count as
    /// *resolved* assignments carrying their forwarded value — this is the
    /// §3.5 extension of the resolve function.
    pub fn assignment(&self) -> Option<(Reg, Option<Val>)> {
        match self {
            Transient::Op { dst, .. } | Transient::Load { dst, .. } => Some((*dst, None)),
            Transient::Value { dst, val } => Some((*dst, Some(*val))),
            Transient::LoadedValue { dst, val, .. } => Some((*dst, Some(*val))),
            Transient::LoadGuessed { dst, fwd, .. } => Some((*dst, Some(*fwd))),
            _ => None,
        }
    }

    /// `true` for the `fence` marker; execute rules require no fence at a
    /// smaller buffer index.
    pub fn is_fence(&self) -> bool {
        matches!(self, Transient::Fence)
    }

    /// `true` when the entry is fully resolved, i.e. ready to retire as
    /// far as its own state is concerned.
    pub fn is_resolved(&self) -> bool {
        match self {
            Transient::Value { .. }
            | Transient::Jump { .. }
            | Transient::LoadedValue { .. }
            | Transient::Fence => true,
            Transient::Store { data, addr } => {
                data.resolved().is_some() && addr.resolved().is_some()
            }
            // call/ret markers retire together with their expansions; the
            // markers themselves carry no pending work.
            Transient::Call | Transient::Ret => true,
            _ => false,
        }
    }

    /// The store's resolved address, if this is a store with one
    /// (`buf(j) = store(_, a)` matching in the load rules).
    pub fn store_resolved_addr(&self) -> Option<Val> {
        match self {
            Transient::Store { addr, .. } => addr.resolved(),
            _ => None,
        }
    }

    /// The store's resolved data, if this is a store with one.
    pub fn store_resolved_data(&self) -> Option<Val> {
        match self {
            Transient::Store { data, .. } => data.resolved(),
            _ => None,
        }
    }

    /// Short form for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Transient::Op { .. } => "op",
            Transient::Value { .. } => "value",
            Transient::Br { .. } => "br",
            Transient::Jump { .. } => "jump",
            Transient::Load { .. } => "load",
            Transient::LoadGuessed { .. } => "load-guessed",
            Transient::LoadedValue { .. } => "loaded-value",
            Transient::Store { .. } => "store",
            Transient::Jmpi { .. } => "jmpi",
            Transient::Call => "call",
            Transient::Ret => "ret",
            Transient::Fence => "fence",
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

impl fmt::Display for Transient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transient::Op { dst, op, args } => {
                write!(f, "({dst} = op({op}, ")?;
                fmt_ops(f, args)?;
                write!(f, "))")
            }
            Transient::Value { dst, val } => write!(f, "({dst} = {val})"),
            Transient::Br { op, args, guess, tru, fls } => {
                write!(f, "br({op}, ")?;
                fmt_ops(f, args)?;
                write!(f, ", {guess}, ({tru}, {fls}))")
            }
            Transient::Jump { target } => write!(f, "jump {target}"),
            Transient::Load { dst, addr, .. } => {
                write!(f, "({dst} = load(")?;
                fmt_ops(f, addr)?;
                write!(f, "))")
            }
            Transient::LoadGuessed { dst, addr, fwd, from, .. } => {
                write!(f, "({dst} = load(")?;
                fmt_ops(f, addr)?;
                write!(f, ", ({fwd}, {from})))")
            }
            Transient::LoadedValue { dst, val, prov, .. } => match prov.dep {
                Some(j) => write!(f, "({dst} = {val}{{{j}, {:#x}}})", prov.addr),
                None => write!(f, "({dst} = {val}{{⊥, {:#x}}})", prov.addr),
            },
            Transient::Store { data, addr } => {
                write!(f, "store(")?;
                match data {
                    StoreData::Pending(op) => write!(f, "{op}")?,
                    StoreData::Resolved(v) => write!(f, "{v}")?,
                }
                write!(f, ", ")?;
                match addr {
                    StoreAddr::Pending(ops) => fmt_ops(f, ops)?,
                    StoreAddr::Resolved(a) => write!(f, "{a}")?,
                }
                write!(f, ")")
            }
            Transient::Jmpi { args, guess } => {
                write!(f, "jmpi(")?;
                fmt_ops(f, args)?;
                write!(f, ", {guess})")
            }
            Transient::Call => write!(f, "call"),
            Transient::Ret => write!(f, "ret"),
            Transient::Fence => write!(f, "fence"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;

    #[test]
    fn assignment_classification() {
        let pending = Transient::Op {
            dst: RA,
            op: OpCode::Add,
            args: vec![Operand::imm(1)],
        };
        assert_eq!(pending.assignment(), Some((RA, None)));
        let val = Transient::Value {
            dst: RB,
            val: Val::public(5),
        };
        assert_eq!(val.assignment(), Some((RB, Some(Val::public(5)))));
        let guessed = Transient::LoadGuessed {
            dst: RC,
            addr: vec![Operand::imm(0x45)],
            fwd: Val::secret(7),
            from: 2,
            pp: 7,
        };
        assert_eq!(guessed.assignment(), Some((RC, Some(Val::secret(7)))));
        assert_eq!(Transient::Fence.assignment(), None);
    }

    #[test]
    fn store_resolution_states() {
        let st = Transient::Store {
            data: StoreData::Pending(RB.into()),
            addr: StoreAddr::Pending(vec![Operand::imm(0x40), RA.into()]),
        };
        assert!(!st.is_resolved());
        assert_eq!(st.store_resolved_addr(), None);
        let st2 = Transient::Store {
            data: StoreData::Resolved(Val::secret(1)),
            addr: StoreAddr::Resolved(Val::public(0x42)),
        };
        assert!(st2.is_resolved());
        assert_eq!(st2.store_resolved_addr(), Some(Val::public(0x42)));
        assert_eq!(st2.store_resolved_data(), Some(Val::secret(1)));
    }

    #[test]
    fn provenance_bottom_is_less_than_everything() {
        let from_mem = LoadProvenance { dep: None, addr: 0x43 };
        assert!(from_mem.dep_lt(0));
        assert!(from_mem.dep_lt(100));
        let from_store = LoadProvenance { dep: Some(3), addr: 0x43 };
        assert!(from_store.dep_lt(4));
        assert!(!from_store.dep_lt(3));
        assert!(from_store.dep_ge(3));
    }

    #[test]
    fn display_matches_paper_forms() {
        let lv = Transient::LoadedValue {
            dst: RC,
            val: Val::public(12),
            prov: LoadProvenance { dep: Some(2), addr: 0x43 },
            pp: 4,
        };
        assert_eq!(lv.to_string(), "(rc = 12pub{2, 0x43})");
        assert_eq!(Transient::Jump { target: 9 }.to_string(), "jump 9");
    }

    #[test]
    fn fence_and_markers_are_resolved() {
        assert!(Transient::Fence.is_resolved());
        assert!(Transient::Call.is_resolved());
        assert!(Transient::Ret.is_resolved());
        assert!(Transient::Fence.is_fence());
        assert!(!Transient::Call.is_fence());
    }
}
