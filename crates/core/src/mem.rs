//! Data memory (`µ : V ⇀ V`) with per-word security labels.

use crate::label::Label;
use crate::value::{Val, Word};
use std::collections::BTreeMap;
use std::fmt;

/// The data memory `µ`, a partial map from word addresses to labeled
/// values.
///
/// The paper uses a single partial map for instructions and data; the two
/// address ranges never overlap in any example, so we keep instruction
/// space in [`crate::instr::Program`] and data here. Reads of unmapped
/// addresses yield public zero (memory is zero-initialized), which keeps
/// every schedule's behaviour total on loads.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Memory {
    map: BTreeMap<Word, Val>,
}

impl Memory {
    /// An empty (all zero, all public) memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Read `µ(a)`; unmapped addresses read as public zero.
    pub fn read(&self, addr: Word) -> Val {
        self.map.get(&addr).copied().unwrap_or_default()
    }

    /// Write `µ[a ↦ v]`.
    pub fn write(&mut self, addr: Word, v: Val) {
        self.map.insert(addr, v);
    }

    /// Populate `[base, base + data.len())` with labeled words.
    pub fn write_array(&mut self, base: Word, data: &[Word], label: Label) {
        for (i, &w) in data.iter().enumerate() {
            self.write(base + i as Word, Val::new(w, label));
        }
    }

    /// Iterate over explicitly-written cells in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Word, Val)> + '_ {
        self.map.iter().map(|(&a, &v)| (a, v))
    }

    /// Number of explicitly-written cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Memory part of the paper's `≃pub` low-equivalence: agree on labels
    /// everywhere and on bits wherever the label is public.
    pub fn low_equivalent(&self, other: &Memory) -> bool {
        let addrs = self.map.keys().chain(other.map.keys());
        for &a in addrs {
            let x = self.read(a);
            let y = other.read(a);
            if x.label != y.label {
                return false;
            }
            if x.label.is_public() && x.bits != y.bits {
                return false;
            }
        }
        true
    }
}

impl FromIterator<(Word, Val)> for Memory {
    fn from_iter<I: IntoIterator<Item = (Word, Val)>>(iter: I) -> Self {
        Memory {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Word, Val)> for Memory {
    fn extend<I: IntoIterator<Item = (Word, Val)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "a    µ(a)")?;
        for (a, v) in self.iter() {
            writeln!(f, "{a:#x}  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0x40), Val::public(0));
        assert!(m.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut m = Memory::new();
        m.write(0x40, Val::secret(7));
        assert_eq!(m.read(0x40), Val::secret(7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn write_array_labels_every_cell() {
        let mut m = Memory::new();
        m.write_array(0x48, &[1, 2, 3, 4], Label::Secret);
        for (i, want) in [1u64, 2, 3, 4].into_iter().enumerate() {
            let v = m.read(0x48 + i as Word);
            assert_eq!(v.bits, want);
            assert!(v.label.is_secret());
        }
    }

    #[test]
    fn low_equivalence_mirrors_regfile_semantics() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_array(0x40, &[1, 2], Label::Public);
        b.write_array(0x40, &[1, 2], Label::Public);
        a.write_array(0x48, &[11, 12], Label::Secret);
        b.write_array(0x48, &[99, 98], Label::Secret);
        assert!(a.low_equivalent(&b));
        b.write(0x40, Val::public(5));
        assert!(!a.low_equivalent(&b));
    }

    #[test]
    fn low_equivalence_detects_label_difference() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(0x40, Val::public(1));
        b.write(0x40, Val::secret(1));
        assert!(!a.low_equivalent(&b));
    }
}
