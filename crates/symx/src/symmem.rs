//! Symbolic machine state: labeled symbolic values, register files, and
//! memories.
//!
//! Pitchfork's machine concretizes addresses before touching memory
//! (as angr does, §4.2 of the paper), so the memory is keyed by concrete
//! addresses while *contents* stay symbolic.
//!
//! [`SymRegFile`] and [`SymMemory`] each maintain a 128-bit digest of
//! their explicitly-set cells: the XOR of [`sip128`]`(&(key, value))`
//! over the map (Zobrist hashing, see [`sct_core::digest`]). `write`,
//! the only mutator, XORs the overwritten cell's hash out and the new
//! one in, so the explorer fingerprints a state without walking its
//! registers or memory. The memory map is also shared copy-on-write: a
//! clone shares it, and only a store that changes a cell copies it.

use crate::expr::{Expr, Model, VarId, VarPool};
use sct_core::digest::sip128;
use sct_core::{Label, Lattice, Reg, Val};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A labeled symbolic value — the symbolic analogue of [`sct_core::Val`].
///
/// With the hash-consed expression arena this is two words and `Copy`:
/// register files and memories clone by `memcpy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymVal {
    /// The symbolic word.
    pub expr: Expr,
    /// Its security label.
    pub label: Label,
}

impl SymVal {
    /// A labeled symbolic value.
    pub fn new(expr: Expr, label: Label) -> Self {
        SymVal { expr, label }
    }

    /// A concrete public value.
    pub fn public(bits: u64) -> Self {
        SymVal::new(Expr::constant(bits), Label::Public)
    }

    /// A concrete secret value.
    pub fn secret(bits: u64) -> Self {
        SymVal::new(Expr::constant(bits), Label::Secret)
    }

    /// A fresh symbolic variable with the given label.
    pub fn fresh(pool: &mut VarPool, name: impl Into<String>, label: Label) -> (Self, VarId) {
        let v = pool.fresh(name);
        (SymVal::new(Expr::var(v), label), v)
    }

    /// Lift a concrete labeled value.
    pub fn from_val(v: Val) -> Self {
        SymVal::new(Expr::constant(v.bits), v.label)
    }

    /// The concrete value, if the expression is constant.
    pub fn as_const(&self) -> Option<Val> {
        self.expr.as_const().map(|b| Val::new(b, self.label))
    }

    /// Join the label (`v_{ℓ ⊔ ℓ'}`).
    pub fn join_label(mut self, l: Label) -> Self {
        self.label = self.label.join(l);
        self
    }

    /// Evaluate under a model to a concrete labeled value.
    pub fn eval(&self, model: &Model) -> Val {
        Val::new(self.expr.eval(model), self.label)
    }
}

impl std::fmt::Display for SymVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}", self.expr, self.label)
    }
}

/// Symbolic register file (`ρ` with symbolic values).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymRegFile {
    map: BTreeMap<Reg, SymVal>,
    /// XOR of `sip128(&(r, v))` over `map`.
    digest: u128,
}

impl SymRegFile {
    /// An empty register file.
    pub fn new() -> Self {
        SymRegFile::default()
    }

    /// Read a register; unmapped registers read as concrete public zero.
    pub fn read(&self, r: Reg) -> SymVal {
        self.map.get(&r).copied().unwrap_or_else(|| SymVal::public(0))
    }

    /// Write a register.
    pub fn write(&mut self, r: Reg, v: SymVal) {
        match self.map.insert(r, v) {
            Some(old) if old == v => {}
            Some(old) => self.digest ^= sip128(&(r, old)) ^ sip128(&(r, v)),
            None => self.digest ^= sip128(&(r, v)),
        }
    }

    /// The maintained digest of the explicitly-set registers.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// [`SymRegFile::digest`] recomputed from scratch, the reference
    /// the maintained digest must always equal.
    #[cfg(any(test, debug_assertions))]
    pub fn recompute_digest(&self) -> u128 {
        self.map.iter().fold(0, |d, (r, v)| d ^ sip128(&(r, v)))
    }

    /// Iterate over explicitly-set registers.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &SymVal)> + '_ {
        self.map.iter().map(|(&r, v)| (r, v))
    }

    /// Lift a concrete register file.
    pub fn from_concrete(regs: &sct_core::RegFile) -> Self {
        let mut out = SymRegFile::new();
        for (r, v) in regs.iter() {
            out.write(r, SymVal::from_val(v));
        }
        out
    }

    /// Concretize under a model.
    pub fn eval(&self, model: &Model) -> sct_core::RegFile {
        self.map.iter().map(|(&r, v)| (r, v.eval(model))).collect()
    }
}

/// Symbolic memory: concrete addresses, symbolic labeled contents.
///
/// The map is shared copy-on-write between clones; a write that leaves a
/// cell unchanged copies nothing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymMemory {
    map: Arc<BTreeMap<u64, SymVal>>,
    /// XOR of `sip128(&(addr, v))` over `map`.
    digest: u128,
}

impl SymMemory {
    /// An empty (all zero, public) memory.
    pub fn new() -> Self {
        SymMemory::default()
    }

    /// Read an address; unmapped addresses read as concrete public zero.
    pub fn read(&self, addr: u64) -> SymVal {
        self.map
            .get(&addr)
            .copied()
            .unwrap_or_else(|| SymVal::public(0))
    }

    /// Write an address.
    pub fn write(&mut self, addr: u64, v: SymVal) {
        match self.map.get(&addr) {
            Some(&old) if old == v => return,
            Some(&old) => self.digest ^= sip128(&(addr, old)) ^ sip128(&(addr, v)),
            None => self.digest ^= sip128(&(addr, v)),
        }
        Arc::make_mut(&mut self.map).insert(addr, v);
    }

    /// The maintained digest of the explicitly-written cells.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// [`SymMemory::digest`] recomputed from scratch, the reference the
    /// maintained digest must always equal.
    #[cfg(any(test, debug_assertions))]
    pub fn recompute_digest(&self) -> u128 {
        self.map.iter().fold(0, |d, (a, v)| d ^ sip128(&(a, v)))
    }

    /// Iterate over explicitly-written cells.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SymVal)> + '_ {
        self.map.iter().map(|(&a, v)| (a, v))
    }

    /// Lift a concrete memory.
    pub fn from_concrete(mem: &sct_core::Memory) -> Self {
        let mut out = SymMemory::new();
        for (a, v) in mem.iter() {
            out.write(a, SymVal::from_val(v));
        }
        out
    }

    /// Concretize under a model.
    pub fn eval(&self, model: &Model) -> sct_core::Memory {
        self.map.iter().map(|(&a, v)| (a, v.eval(model))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::reg::names::*;

    #[test]
    fn symval_lifting_round_trips() {
        let v = Val::secret(9);
        let s = SymVal::from_val(v);
        assert_eq!(s.as_const(), Some(v));
        assert_eq!(s.eval(&Model::new()), v);
    }

    #[test]
    fn fresh_values_are_symbolic() {
        let mut pool = VarPool::new();
        let (s, id) = SymVal::fresh(&mut pool, "ra", Label::Secret);
        assert!(s.as_const().is_none());
        let mut m = Model::new();
        m.set(id, 42);
        assert_eq!(s.eval(&m), Val::secret(42));
    }

    #[test]
    fn regfile_defaults_and_lifting() {
        let rf = SymRegFile::new();
        assert_eq!(rf.read(RA).as_const(), Some(Val::public(0)));
        let concrete: sct_core::RegFile =
            [(RA, Val::public(7)), (RB, Val::secret(3))].into_iter().collect();
        let lifted = SymRegFile::from_concrete(&concrete);
        assert_eq!(lifted.eval(&Model::new()), concrete);
    }

    #[test]
    fn memory_defaults_and_lifting() {
        let mut mem = sct_core::Memory::new();
        mem.write(0x40, Val::secret(5));
        let lifted = SymMemory::from_concrete(&mem);
        assert_eq!(lifted.read(0x40).as_const(), Some(Val::secret(5)));
        assert_eq!(lifted.read(0x99).as_const(), Some(Val::public(0)));
        assert_eq!(lifted.eval(&Model::new()), mem);
    }

    #[test]
    fn register_overwrite_and_restore_returns_the_digest() {
        let mut rf = SymRegFile::new();
        rf.write(RA, SymVal::public(1));
        rf.write(RB, SymVal::secret(2));
        let before = rf.digest();
        rf.write(RA, SymVal::secret(1));
        assert_ne!(rf.digest(), before);
        assert_eq!(rf.digest(), rf.recompute_digest());
        rf.write(RA, SymVal::public(1));
        assert_eq!(rf.digest(), before);
        assert_eq!(rf.digest(), rf.recompute_digest());
    }

    #[test]
    fn memory_overwrite_and_restore_returns_the_digest() {
        let mut mem = SymMemory::new();
        mem.write(0x40, SymVal::secret(5));
        mem.write(0x48, SymVal::public(6));
        let before = mem.digest();
        mem.write(0x40, SymVal::secret(9));
        assert_ne!(mem.digest(), before);
        assert_eq!(mem.digest(), mem.recompute_digest());
        mem.write(0x40, SymVal::secret(5));
        assert_eq!(mem.digest(), before);
        assert_eq!(mem.digest(), mem.recompute_digest());
        // An explicit cell differs from an unmapped one, even at zero.
        let mut zeroed = mem.clone();
        zeroed.write(0x50, SymVal::public(0));
        assert_ne!(zeroed.digest(), mem.digest());
    }

    #[test]
    fn memory_clones_share_until_written() {
        let mut a = SymMemory::new();
        a.write(0x40, SymVal::public(1));
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.map, &b.map));
        b.write(0x40, SymVal::public(1));
        assert!(Arc::ptr_eq(&a.map, &b.map), "same value: no copy");
        b.write(0x40, SymVal::public(2));
        assert!(!Arc::ptr_eq(&a.map, &b.map));
        assert_eq!(a.read(0x40).as_const(), Some(Val::public(1)));
        assert_eq!(b.read(0x40).as_const(), Some(Val::public(2)));
    }

    #[test]
    fn join_label_raises() {
        let s = SymVal::public(1).join_label(Label::Secret);
        assert!(s.label.is_secret());
    }
}
