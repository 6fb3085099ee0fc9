//! The reorder buffer (`buf : N ⇀ TransInstr`).
//!
//! The paper's rules maintain the invariant that `buf`'s domain is a
//! contiguous range of naturals: `fetch` appends at `MAX(buf) + 1`,
//! `retire` removes `MIN(buf)`, and rollbacks truncate a suffix. We
//! represent the buffer as a base index plus a deque, giving O(1) access
//! by absolute index while preserving the paper's indexing scheme
//! (indices keep growing over the life of an execution and are never
//! reused, which is what makes load provenance `{j, a}` unambiguous).
//!
//! The buffer also maintains a 128-bit [`Rob::digest`]: the XOR of
//! [`sip128`]`(&(i, buf(i)))` over its domain (see [`crate::digest`]).
//! Every mutator updates it: `push`, `set` and `update` hash the one
//! entry they write, and each entry keeps its hash beside it, so `set`,
//! `update`, `pop_min`, `pop_min_n` and `truncate_from` XOR the removed
//! entries out without rehashing them. The symbolic explorer
//! fingerprints a buffer by its digest plus [`Rob::next_index`], which
//! together determine the buffer
//! (the digest covers the absolute indices, so also a non-empty
//! buffer's base).

use crate::digest::sip128;
use crate::transient::Transient;
use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;

/// The reorder buffer, generic in its entry type so that the symbolic
/// machine of the `pitchfork` crate can reuse it with symbolic transient
/// instructions. Bare `Rob` is the concrete buffer of the reference
/// semantics.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rob<T = Transient> {
    base: usize,
    /// Each entry with its element hash `sip128(&(index, entry))`.
    entries: VecDeque<(T, u128)>,
    /// XOR of the entries' element hashes.
    digest: u128,
}

impl<T> Default for Rob<T> {
    fn default() -> Self {
        Rob::new()
    }
}

impl<T> Rob<T> {
    /// An empty buffer. The paper sets `MIN(∅) = MAX(∅) = 0`, so the first
    /// fetched instruction lands at index `MAX + 1 = 1`, matching every
    /// figure.
    pub fn new() -> Self {
        Rob::starting_at(1)
    }

    /// An empty buffer whose next fetch lands at `next`. Used to
    /// reconstruct the mid-execution buffer states shown in the figures.
    pub fn starting_at(next: usize) -> Self {
        Rob {
            base: next,
            entries: VecDeque::new(),
            digest: 0,
        }
    }

    /// `MIN(buf)`; `None` when empty.
    pub fn min(&self) -> Option<usize> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.base)
        }
    }

    /// `MAX(buf)`; `None` when empty.
    pub fn max(&self) -> Option<usize> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.base + self.entries.len() - 1)
        }
    }

    /// The index the next fetched instruction will occupy
    /// (`MAX(buf) + 1`, or the base for an empty buffer).
    pub fn next_index(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Number of in-flight transient instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no instruction is in flight (the paper's
    /// initial/terminal configurations).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The maintained digest: the XOR of `sip128(&(i, buf(i)))` over the
    /// domain (0 for an empty buffer).
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// `buf(i)`.
    pub fn get(&self, i: usize) -> Option<&T> {
        i.checked_sub(self.base)
            .and_then(|k| self.entries.get(k))
            .map(|(t, _)| t)
    }

    /// Remove `MIN(buf)` (`buf \ buf(i)` in the retire rules), returning
    /// the retired instruction.
    pub fn pop_min(&mut self) -> Option<T> {
        let (head, h) = self.entries.pop_front()?;
        self.digest ^= h;
        self.base += 1;
        Some(head)
    }

    /// Remove the `count` oldest entries at once (`buf[j : j > i + k]` in
    /// the call/ret retire rules).
    pub fn pop_min_n(&mut self, count: usize) {
        for _ in 0..count {
            if self.pop_min().is_none() {
                break;
            }
        }
    }

    /// `buf[j : j < cut]` — discard every entry at index `≥ cut`
    /// (rollback). Returns how many entries were discarded.
    pub fn truncate_from(&mut self, cut: usize) -> usize {
        if cut <= self.base {
            let n = self.entries.len();
            self.entries.clear();
            self.digest = 0;
            // Keep `next_index` at the cut so indices stay monotone.
            self.base = self.base.max(cut);
            return n;
        }
        let keep = cut - self.base;
        if keep >= self.entries.len() {
            return 0;
        }
        let dropped = self.entries.len() - keep;
        for (_, h) in self.entries.range(keep..) {
            self.digest ^= h;
        }
        self.entries.truncate(keep);
        dropped
    }

    /// Iterate `(index, entry)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(move |(k, (t, _))| (self.base + k, t))
    }

    /// Iterate entries strictly below index `i`, in index order.
    pub fn iter_below(&self, i: usize) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.iter().take_while(move |&(j, _)| j < i)
    }

    /// Iterate entries strictly above index `i`, in index order.
    pub fn iter_above(&self, i: usize) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.iter().skip_while(move |&(j, _)| j <= i)
    }
}

impl<T: Hash> Rob<T> {
    /// Replace `buf(i)` with a new transient instruction
    /// (`buf[i ↦ instr]` over an existing index).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in the buffer's domain; the step rules only
    /// rewrite existing entries.
    pub fn set(&mut self, i: usize, instr: T) {
        self.update(i, |slot| *slot = instr);
    }

    /// Rewrite `buf(i)` in place (`buf[i ↦ edit(buf(i))]`), so an entry
    /// that keeps most of its fields need not be copied out and back.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in the buffer's domain.
    pub fn update(&mut self, i: usize, edit: impl FnOnce(&mut T)) {
        let k = i
            .checked_sub(self.base)
            .filter(|&k| k < self.entries.len())
            .unwrap_or_else(|| panic!("rob index {i} out of domain"));
        let slot = &mut self.entries[k];
        edit(&mut slot.0);
        let h = sip128(&(i, &slot.0));
        self.digest ^= slot.1 ^ h;
        slot.1 = h;
    }

    /// Append at `MAX(buf) + 1`, returning the new index.
    pub fn push(&mut self, instr: T) -> usize {
        let i = self.next_index();
        let h = sip128(&(i, &instr));
        self.digest ^= h;
        self.entries.push_back((instr, h));
        i
    }

    /// The digest recomputed from scratch, the reference that
    /// [`Rob::digest`] must always equal.
    #[cfg(any(test, debug_assertions))]
    pub fn recompute_digest(&self) -> u128 {
        self.iter().fold(0, |d, (i, t)| d ^ sip128(&(i, t)))
    }
}

impl Rob<Transient> {
    /// `∀ j < i : buf(j) ≠ fence` — the side condition on every execute
    /// rule (§3.6).
    pub fn no_fence_below(&self, i: usize) -> bool {
        self.iter_below(i).all(|(_, t)| !t.is_fence())
    }
}

impl<T: fmt::Display> fmt::Display for Rob<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "i    buf(i)")?;
        for (i, t) in self.iter() {
            writeln!(f, "{i}    {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::names::*;
    use crate::value::Val;

    fn val(i: u64) -> Transient {
        Transient::Value {
            dst: RA,
            val: Val::public(i),
        }
    }

    #[test]
    fn first_fetch_lands_at_index_one() {
        let mut rob = Rob::new();
        assert_eq!(rob.next_index(), 1);
        assert_eq!(rob.push(val(0)), 1);
        assert_eq!(rob.min(), Some(1));
        assert_eq!(rob.max(), Some(1));
    }

    #[test]
    fn indices_are_contiguous_and_monotone() {
        let mut rob = Rob::new();
        for i in 0..5 {
            assert_eq!(rob.push(val(i)), 1 + i as usize);
        }
        assert_eq!(rob.len(), 5);
        rob.pop_min();
        rob.pop_min();
        assert_eq!(rob.min(), Some(3));
        assert_eq!(rob.max(), Some(5));
        assert_eq!(rob.push(val(9)), 6);
        let idx: Vec<usize> = rob.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![3, 4, 5, 6]);
    }

    #[test]
    fn get_and_set_by_absolute_index() {
        let mut rob = Rob::new();
        rob.push(val(0));
        rob.push(val(1));
        rob.pop_min();
        assert!(rob.get(1).is_none());
        assert!(rob.get(2).is_some());
        rob.set(2, val(42));
        match rob.get(2) {
            Some(Transient::Value { val: v, .. }) => assert_eq!(v.bits, 42),
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn set_out_of_domain_panics() {
        let mut rob = Rob::new();
        rob.push(val(0));
        rob.set(5, val(1));
    }

    #[test]
    fn truncate_from_discards_suffix() {
        let mut rob = Rob::new();
        for i in 0..5 {
            rob.push(val(i));
        }
        // Domain {1..5}; rollback at 3 keeps {1, 2}.
        assert_eq!(rob.truncate_from(3), 3);
        assert_eq!(rob.max(), Some(2));
        assert_eq!(rob.next_index(), 3);
        // Truncating everything leaves an empty buffer whose next index
        // is still past the old base.
        assert_eq!(rob.truncate_from(1), 2);
        assert!(rob.is_empty());
        assert_eq!(rob.next_index(), 1);
    }

    #[test]
    fn truncate_beyond_max_is_noop() {
        let mut rob = Rob::new();
        rob.push(val(0));
        assert_eq!(rob.truncate_from(10), 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn no_fence_below_checks_prefix_only() {
        let mut rob = Rob::new();
        rob.push(val(0)); // 1
        rob.push(Transient::Fence); // 2
        rob.push(val(1)); // 3
        assert!(rob.no_fence_below(2));
        assert!(!rob.no_fence_below(3));
        assert!(rob.no_fence_below(1));
    }

    #[test]
    fn pop_min_n_retires_groups() {
        let mut rob = Rob::new();
        for i in 0..4 {
            rob.push(val(i));
        }
        rob.pop_min_n(3);
        assert_eq!(rob.min(), Some(4));
        rob.pop_min_n(10);
        assert!(rob.is_empty());
    }

    #[test]
    fn starting_at_reconstructs_figure_states() {
        let mut rob = Rob::starting_at(2);
        assert_eq!(rob.push(val(0)), 2);
    }

    #[test]
    fn every_mutator_keeps_the_digest_exact() {
        let mut rob = Rob::new();
        let check = |rob: &Rob| assert_eq!(rob.digest(), rob.recompute_digest());
        for i in 0..6 {
            rob.push(val(i));
            check(&rob);
        }
        rob.set(3, Transient::Fence);
        check(&rob);
        rob.update(4, |t| *t = val(9));
        check(&rob);
        rob.pop_min();
        check(&rob);
        rob.pop_min_n(2);
        check(&rob);
        assert_eq!(rob.truncate_from(5), 2);
        check(&rob);
        // `cut <= base` empties the buffer: the digest of no entries.
        assert_eq!(rob.truncate_from(1), 1);
        check(&rob);
        assert_eq!(rob.digest(), 0);
    }

    #[test]
    fn set_then_restore_returns_the_original_digest() {
        let mut rob = Rob::new();
        rob.push(val(1));
        rob.push(val(2));
        let before = rob.digest();
        rob.set(2, val(7));
        assert_ne!(rob.digest(), before);
        rob.set(2, val(2));
        assert_eq!(rob.digest(), before);
    }

    #[test]
    fn digest_depends_on_absolute_indices() {
        // Same entries, different base: different (index, entry) pairs.
        let mut a = Rob::new();
        let mut b = Rob::starting_at(2);
        a.push(val(5));
        b.push(val(5));
        assert_ne!(a.digest(), b.digest());
    }
}
