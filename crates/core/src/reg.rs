//! Register names and the register file (`ρ : R ⇀ V`).

use crate::value::Val;
use std::collections::BTreeMap;
use std::fmt;

/// A register name.
///
/// The paper uses a finite set `R` of register names (`ra`, `rb`, ...,
/// plus the distinguished stack pointer `rsp` and scratch register `rtmp`
/// used by the call/return semantics of Appendix A). We represent names as
/// small integers; [`Reg::RSP`] and [`Reg::RTMP`] are reserved.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u16);

impl Reg {
    /// The stack-pointer register used by `call`/`ret` (Appendix A).
    pub const RSP: Reg = Reg(u16::MAX);
    /// The scratch register used by the `ret` expansion (Appendix A).
    pub const RTMP: Reg = Reg(u16::MAX - 1);

    /// General-purpose register `r<i>`.
    ///
    /// # Panics
    ///
    /// Panics if `i` collides with the reserved [`Reg::RSP`]/[`Reg::RTMP`]
    /// encodings.
    pub fn gpr(i: u16) -> Reg {
        assert!(i < u16::MAX - 1, "register index collides with rsp/rtmp");
        Reg(i)
    }

    /// Conventional names `ra..rz` for the first 26 registers, then `r<i>`.
    pub fn name(self) -> String {
        match self {
            Reg::RSP => "rsp".to_string(),
            Reg::RTMP => "rtmp".to_string(),
            Reg(i) if i < 26 => format!("r{}", (b'a' + i as u8) as char),
            Reg(i) => format!("r{i}"),
        }
    }

    /// Parse a conventional register name (`ra`..`rz`, `r<i>`, `rsp`,
    /// `rtmp`). Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<Reg> {
        match name {
            "rsp" => return Some(Reg::RSP),
            "rtmp" => return Some(Reg::RTMP),
            _ => {}
        }
        let rest = name.strip_prefix('r')?;
        if rest.len() == 1 {
            let c = rest.bytes().next()?;
            if c.is_ascii_lowercase() {
                return Some(Reg((c - b'a') as u16));
            }
        }
        rest.parse::<u16>().ok().filter(|&i| i < u16::MAX - 1).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Handy constants for the registers the paper's figures use.
pub mod names {
    use super::Reg;
    /// `ra`
    pub const RA: Reg = Reg(0);
    /// `rb`
    pub const RB: Reg = Reg(1);
    /// `rc`
    pub const RC: Reg = Reg(2);
    /// `rd`
    pub const RD: Reg = Reg(3);
    /// `re`
    pub const RE: Reg = Reg(4);
    /// `rf`
    pub const RF: Reg = Reg(5);
    /// `rg`
    pub const RG: Reg = Reg(6);
    /// `rh`
    pub const RH: Reg = Reg(7);
}

/// The register file `ρ : R ⇀ V`, a partial map from names to labeled
/// values. Reads of unmapped registers yield public zero, mirroring the
/// examples which leave most registers implicit.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RegFile {
    map: BTreeMap<Reg, Val>,
}

impl RegFile {
    /// An empty register file.
    pub fn new() -> Self {
        RegFile::default()
    }

    /// Read `ρ(r)`; unmapped registers read as public zero.
    pub fn read(&self, r: Reg) -> Val {
        self.map.get(&r).copied().unwrap_or_default()
    }

    /// Write `ρ[r ↦ v]`.
    pub fn write(&mut self, r: Reg, v: Val) {
        self.map.insert(r, v);
    }

    /// Iterate over the explicitly-mapped registers in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Val)> + '_ {
        self.map.iter().map(|(&r, &v)| (r, v))
    }

    /// Number of explicitly-mapped registers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no register has been written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Two register files agree on public data: every register that is
    /// public in either file must be public-and-equal in both. This is the
    /// register part of the paper's `≃pub` low-equivalence.
    pub fn low_equivalent(&self, other: &RegFile) -> bool {
        let regs = self.map.keys().chain(other.map.keys());
        for &r in regs {
            let a = self.read(r);
            let b = other.read(r);
            if a.label != b.label {
                return false;
            }
            if a.label.is_public() && a.bits != b.bits {
                return false;
            }
        }
        true
    }
}

impl FromIterator<(Reg, Val)> for RegFile {
    fn from_iter<I: IntoIterator<Item = (Reg, Val)>>(iter: I) -> Self {
        RegFile {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Reg, Val)> for RegFile {
    fn extend<I: IntoIterator<Item = (Reg, Val)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::names::*;
    use super::*;
    use crate::label::Label;

    #[test]
    fn names_round_trip() {
        for r in [RA, RB, RC, Reg(25), Reg(31), Reg::RSP, Reg::RTMP] {
            assert_eq!(Reg::parse(&r.name()), Some(r), "{}", r.name());
        }
        assert_eq!(Reg::parse("ra"), Some(RA));
        assert_eq!(Reg::parse("rz"), Some(Reg(25)));
        assert_eq!(Reg::parse("r42"), Some(Reg(42)));
        assert_eq!(Reg::parse("sp"), None);
        assert_eq!(Reg::parse("rxx"), None);
    }

    #[test]
    fn unmapped_registers_read_zero() {
        let rf = RegFile::new();
        assert_eq!(rf.read(RA), Val::public(0));
        assert!(rf.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut rf = RegFile::new();
        rf.write(RA, Val::secret(9));
        assert_eq!(rf.read(RA), Val::secret(9));
        assert_eq!(rf.len(), 1);
    }

    #[test]
    fn low_equivalence_ignores_secret_bits() {
        let a: RegFile = [(RA, Val::public(1)), (RB, Val::secret(10))]
            .into_iter()
            .collect();
        let b: RegFile = [(RA, Val::public(1)), (RB, Val::secret(20))]
            .into_iter()
            .collect();
        assert!(a.low_equivalent(&b));
    }

    #[test]
    fn low_equivalence_detects_public_mismatch() {
        let a: RegFile = [(RA, Val::public(1))].into_iter().collect();
        let b: RegFile = [(RA, Val::public(2))].into_iter().collect();
        assert!(!a.low_equivalent(&b));
    }

    #[test]
    fn low_equivalence_detects_label_mismatch() {
        let a: RegFile = [(RA, Val::new(1, Label::Public))].into_iter().collect();
        let b: RegFile = [(RA, Val::new(1, Label::Secret))].into_iter().collect();
        assert!(!a.low_equivalent(&b));
    }

    #[test]
    fn gpr_rejects_reserved_indices() {
        let r = std::panic::catch_unwind(|| Reg::gpr(u16::MAX));
        assert!(r.is_err());
    }
}
