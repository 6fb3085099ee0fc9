//! Configurations `C = (ρ, µ, n, buf)` (extended with `σ` in Appendix A)
//! and the paper's two equivalence relations.

use crate::mem::Memory;
use crate::reg::RegFile;
use crate::rob::Rob;
use crate::rsb::Rsb;
use crate::value::Pc;
use std::fmt;

/// A machine configuration.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    /// The register map `ρ`.
    pub regs: RegFile,
    /// The data memory `µ`.
    pub mem: Memory,
    /// The current program point `n`.
    pub pc: Pc,
    /// The reorder buffer `buf`.
    pub rob: Rob,
    /// The return stack buffer `σ` (Appendix A).
    pub rsb: Rsb,
}

impl Config {
    /// An initial configuration (empty reorder buffer, Def. B.2) starting
    /// at `entry`.
    pub fn initial(regs: RegFile, mem: Memory, entry: Pc) -> Self {
        Config {
            regs,
            mem,
            pc: entry,
            rob: Rob::new(),
            rsb: Rsb::new(),
        }
    }

    /// `true` for initial/terminal configurations (`|C.buf| = 0`,
    /// Def. B.2).
    pub fn is_speculation_free(&self) -> bool {
        self.rob.is_empty()
    }

    /// The paper's low-equivalence `≃pub`: configurations coincide on
    /// public values in registers and memories (labels must agree
    /// everywhere, public bits must agree).
    ///
    /// Only the architectural state takes part, matching the paper's use
    /// of `≃pub` on *initial* configurations (where `buf` is empty).
    pub fn low_equivalent(&self, other: &Config) -> bool {
        self.pc == other.pc
            && self.regs.low_equivalent(&other.regs)
            && self.mem.low_equivalent(&other.mem)
    }

    /// The paper's `≈`: "memories and register files are equal, even if
    /// their speculative states may be different" — the equivalence used
    /// to validate against sequential execution (Thm 3.2).
    pub fn arch_equivalent(&self, other: &Config) -> bool {
        self.regs == other.regs && self.mem == other.mem
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pc = {}", self.pc)?;
        writeln!(f, "registers:")?;
        for (r, v) in self.regs.iter() {
            writeln!(f, "  {r} = {v}")?;
        }
        writeln!(f, "memory:")?;
        for (a, v) in self.mem.iter() {
            writeln!(f, "  {a:#x} = {v}")?;
        }
        writeln!(f, "reorder buffer:")?;
        for (i, t) in self.rob.iter() {
            writeln!(f, "  {i} ↦ {t}")?;
        }
        if !self.rsb.is_empty() {
            writeln!(f, "{}", self.rsb)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;
    use crate::value::Val;

    fn base_config() -> Config {
        let regs: RegFile = [(RA, Val::public(1)), (RB, Val::secret(7))]
            .into_iter()
            .collect();
        let mut mem = Memory::new();
        mem.write(0x48, Val::secret(42));
        Config::initial(regs, mem, 1)
    }

    #[test]
    fn initial_configs_are_speculation_free() {
        assert!(base_config().is_speculation_free());
    }

    #[test]
    fn low_equivalence_tolerates_secret_differences() {
        let a = base_config();
        let mut b = base_config();
        b.regs.write(RB, Val::secret(99));
        b.mem.write(0x48, Val::secret(1));
        assert!(a.low_equivalent(&b));
        assert!(!a.arch_equivalent(&b));
    }

    #[test]
    fn low_equivalence_requires_same_pc_and_publics() {
        let a = base_config();
        let mut b = base_config();
        b.pc = 2;
        assert!(!a.low_equivalent(&b));
        let mut c = base_config();
        c.regs.write(RA, Val::public(2));
        assert!(!a.low_equivalent(&c));
    }

    #[test]
    fn arch_equivalence_ignores_speculative_state() {
        let a = base_config();
        let mut b = base_config();
        b.rob.push(crate::transient::Transient::Fence);
        b.pc = 77;
        assert!(a.arch_equivalent(&b));
        assert!(!a.is_speculation_free() || !b.is_speculation_free() || a == b);
    }
}
