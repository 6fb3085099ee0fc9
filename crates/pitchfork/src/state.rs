//! Symbolic machine state: the symbolic analogue of a configuration.
//!
//! A state records the path that reached it (the directives taken and
//! the observations each produced) as a parent-linked list of steps
//! shared with every state that took the same prefix, so a successor
//! costs one list node, not a copy of its parent's schedule and trace.

use sct_core::digest::sip128;
use sct_core::instr::Operand;
use sct_core::rob::Rob;
use sct_core::rsb::Rsb;
use sct_core::{Config, Directive, Label, Observation, OpCode, Pc, Reg, Schedule};
use sct_symx::{Expr, SymMemory, SymRegFile, SymVal, VarPool};
use std::fmt;
use std::sync::Arc;

/// Provenance of a resolved symbolic load (`{j, a}` with a concretized
/// address).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymProvenance {
    /// Forwarding source: `Some(j)` for a store at buffer index `j`,
    /// `None` for memory (`⊥`).
    pub dep: Option<usize>,
    /// The (concretized) address the load is bound to.
    pub addr: u64,
}

impl SymProvenance {
    /// `⊥ < i` convention of the store hazard check.
    pub fn dep_lt(&self, i: usize) -> bool {
        self.dep.is_none_or(|j| j < i)
    }
}

/// Resolution state of a symbolic store's data operand.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymStoreData {
    /// Unresolved operand.
    Pending(Operand),
    /// Resolved symbolic value.
    Resolved(SymVal),
}

impl SymStoreData {
    /// The resolved value, if any.
    pub fn resolved(&self) -> Option<&SymVal> {
        match self {
            SymStoreData::Resolved(v) => Some(v),
            SymStoreData::Pending(_) => None,
        }
    }
}

/// Resolution state of a symbolic store's address.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymStoreAddr {
    /// Unresolved operands.
    Pending(Vec<Operand>),
    /// Concretized address with the label of its computation.
    Resolved(u64, Label),
}

impl SymStoreAddr {
    /// The resolved address and label, if any.
    pub fn resolved(&self) -> Option<(u64, Label)> {
        match self {
            SymStoreAddr::Resolved(a, l) => Some((*a, *l)),
            SymStoreAddr::Pending(_) => None,
        }
    }
}

/// A symbolic transient instruction (Table 1, symbolic values).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SymTransient {
    /// Unresolved arithmetic operation.
    Op {
        /// Destination register.
        dst: Reg,
        /// Opcode.
        op: OpCode,
        /// Operands.
        args: Vec<Operand>,
    },
    /// Resolved value.
    Value {
        /// Destination register.
        dst: Reg,
        /// Value.
        val: SymVal,
    },
    /// Unresolved conditional branch with recorded guess.
    Br {
        /// Boolean opcode.
        op: OpCode,
        /// Condition operands.
        args: Vec<Operand>,
        /// Speculatively taken target.
        guess: Pc,
        /// True target.
        tru: Pc,
        /// False target.
        fls: Pc,
    },
    /// Resolved jump.
    Jump {
        /// Target.
        target: Pc,
    },
    /// Unresolved load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address operands.
        addr: Vec<Operand>,
        /// Originating program point.
        pp: Pc,
    },
    /// Resolved load with provenance.
    LoadedValue {
        /// Destination register.
        dst: Reg,
        /// Value.
        val: SymVal,
        /// Provenance.
        prov: SymProvenance,
        /// Originating program point.
        pp: Pc,
    },
    /// Alias-predicted partially-resolved load (§3.5).
    LoadGuessed {
        /// Destination register.
        dst: Reg,
        /// Address operands.
        addr: Vec<Operand>,
        /// Forwarded value.
        fwd: SymVal,
        /// Originating store index.
        from: usize,
        /// Originating program point.
        pp: Pc,
    },
    /// Store with independently resolving data and address.
    Store {
        /// Data state.
        data: SymStoreData,
        /// Address state.
        addr: SymStoreAddr,
    },
    /// Unresolved indirect jump with predicted target.
    Jmpi {
        /// Target operands.
        args: Vec<Operand>,
        /// Predicted target.
        guess: Pc,
    },
    /// `call` marker.
    Call,
    /// `ret` marker.
    Ret,
    /// Speculation barrier.
    Fence,
}

impl SymTransient {
    /// Assignment view for the register-resolve function (mirrors
    /// [`sct_core::transient::Transient::assignment`]).
    pub fn assignment(&self) -> Option<(Reg, Option<&SymVal>)> {
        match self {
            SymTransient::Op { dst, .. } | SymTransient::Load { dst, .. } => Some((*dst, None)),
            SymTransient::Value { dst, val } => Some((*dst, Some(val))),
            SymTransient::LoadedValue { dst, val, .. } => Some((*dst, Some(val))),
            SymTransient::LoadGuessed { dst, fwd, .. } => Some((*dst, Some(fwd))),
            _ => None,
        }
    }

    /// `true` for the fence marker.
    pub fn is_fence(&self) -> bool {
        matches!(self, SymTransient::Fence)
    }

    /// `true` when fully resolved (ready to retire on its own).
    pub fn is_resolved(&self) -> bool {
        match self {
            SymTransient::Value { .. }
            | SymTransient::Jump { .. }
            | SymTransient::LoadedValue { .. }
            | SymTransient::Fence
            | SymTransient::Call
            | SymTransient::Ret => true,
            SymTransient::Store { data, addr } => {
                data.resolved().is_some() && addr.resolved().is_some()
            }
            _ => false,
        }
    }

    /// Resolved store address, if this is such a store.
    pub fn store_resolved_addr(&self) -> Option<(u64, Label)> {
        match self {
            SymTransient::Store { addr, .. } => addr.resolved(),
            _ => None,
        }
    }

    /// Resolved store data, if this is such a store.
    pub fn store_resolved_data(&self) -> Option<&SymVal> {
        match self {
            SymTransient::Store { data, .. } => data.resolved(),
            _ => None,
        }
    }

    /// Diagnostic kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SymTransient::Op { .. } => "op",
            SymTransient::Value { .. } => "value",
            SymTransient::Br { .. } => "br",
            SymTransient::Jump { .. } => "jump",
            SymTransient::Load { .. } => "load",
            SymTransient::LoadedValue { .. } => "loaded-value",
            SymTransient::LoadGuessed { .. } => "load-guessed",
            SymTransient::Store { .. } => "store",
            SymTransient::Jmpi { .. } => "jmpi",
            SymTransient::Call => "call",
            SymTransient::Ret => "ret",
            SymTransient::Fence => "fence",
        }
    }
}

impl fmt::Display for SymTransient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymTransient::Value { dst, val } => write!(f, "({dst} = {val})"),
            SymTransient::Jump { target } => write!(f, "jump {target}"),
            SymTransient::LoadedValue { dst, val, prov, .. } => match prov.dep {
                Some(j) => write!(f, "({dst} = {val}{{{j}, {:#x}}})", prov.addr),
                None => write!(f, "({dst} = {val}{{⊥, {:#x}}})", prov.addr),
            },
            other => write!(f, "{}", other.kind()),
        }
    }
}

/// The most observations one step produces: a rollback plus one
/// access or jump.
const MAX_STEP_OBSERVATIONS: usize = 2;

/// One recorded step of a witness path, linked to the steps before it.
struct PathNode {
    parent: Option<Arc<PathNode>>,
    /// Steps up to and including this one.
    depth: usize,
    directive: Directive,
    observations: [Observation; MAX_STEP_OBSERVATIONS],
    observed: u8,
}

impl PathNode {
    fn observations(&self) -> &[Observation] {
        &self.observations[..usize::from(self.observed)]
    }
}

/// The directives and observations along a state's path, newest step
/// first. Clones share the list; the flat schedule and trace are built
/// only when asked for.
#[derive(Clone, Default)]
struct WitnessPath {
    head: Option<Arc<PathNode>>,
}

impl WitnessPath {
    fn push(&mut self, directive: Directive, obs: &[Observation]) {
        assert!(
            obs.len() <= MAX_STEP_OBSERVATIONS,
            "one step observes at most {MAX_STEP_OBSERVATIONS} things, got {obs:?}"
        );
        let mut observations = [Observation::Rollback; MAX_STEP_OBSERVATIONS];
        observations[..obs.len()].copy_from_slice(obs);
        let parent = self.head.take();
        self.head = Some(Arc::new(PathNode {
            depth: parent.as_ref().map_or(0, |p| p.depth) + 1,
            parent,
            directive,
            observations,
            observed: obs.len() as u8,
        }));
    }

    fn len(&self) -> usize {
        self.head.as_ref().map_or(0, |n| n.depth)
    }

    /// Newest step first.
    fn steps(&self) -> impl Iterator<Item = &PathNode> + '_ {
        std::iter::successors(self.head.as_deref(), |n| n.parent.as_deref())
    }

    fn schedule(&self) -> Schedule {
        let mut directives: Vec<Directive> = self.steps().map(|n| n.directive).collect();
        directives.reverse();
        Schedule(directives)
    }

    fn trace(&self) -> Vec<Observation> {
        let mut trace = Vec::new();
        for n in self.steps() {
            trace.extend(n.observations().iter().rev());
        }
        trace.reverse();
        trace
    }
}

impl Drop for WitnessPath {
    /// Unlinks the nodes this path owns alone one at a time; the default
    /// recursive drop would overflow the stack on a long path.
    fn drop(&mut self) {
        let mut next = self.head.take();
        while let Some(node) = next {
            next = Arc::into_inner(node).and_then(|mut n| n.parent.take());
        }
    }
}

impl fmt::Debug for WitnessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WitnessPath")
            .field("schedule", &self.schedule())
            .field("trace", &self.trace())
            .finish()
    }
}

/// A symbolic execution state: configuration + path condition + the
/// witness path that reached it.
#[derive(Clone, Debug)]
pub struct SymState {
    /// Symbolic register file.
    pub regs: SymRegFile,
    /// Symbolic memory (concrete addresses).
    pub mem: SymMemory,
    /// Current (concrete) program point.
    pub pc: Pc,
    /// Reorder buffer of symbolic transients.
    pub rob: Rob<SymTransient>,
    /// Return stack buffer.
    pub rsb: Rsb,
    /// Path condition: all constraints must be non-zero.
    pub constraints: Vec<Expr>,
    /// Variable pool (symbolic inputs minted so far).
    pub pool: VarPool,
    /// The directives taken along this path and their observations.
    path: WitnessPath,
}

impl SymState {
    /// Lift a concrete initial configuration.
    pub fn from_config(config: &Config) -> Self {
        SymState {
            regs: SymRegFile::from_concrete(&config.regs),
            mem: SymMemory::from_concrete(&config.mem),
            pc: config.pc,
            rob: Rob::new(),
            rsb: config.rsb.clone(),
            constraints: Vec::new(),
            pool: VarPool::new(),
            path: WitnessPath::default(),
        }
    }

    /// Lift a concrete configuration, replacing the values of the given
    /// registers with fresh symbolic variables (labels preserved from the
    /// concrete values). This is how public inputs become symbolic.
    pub fn from_config_symbolizing(config: &Config, symbolic_regs: &[Reg]) -> Self {
        let mut st = SymState::from_config(config);
        for &r in symbolic_regs {
            let label = config.regs.read(r).label;
            let (v, _) = SymVal::fresh(&mut st.pool, r.name(), label);
            st.regs.write(r, v);
        }
        st
    }

    /// Record one executed directive and its observations (at most two:
    /// a rollback plus one access or jump).
    ///
    /// # Panics
    ///
    /// Panics if `obs` holds more than two observations.
    pub fn record(&mut self, d: Directive, obs: &[Observation]) {
        self.path.push(d, obs);
    }

    /// The number of directives recorded along this path.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// The observations of the most recently recorded step (empty for
    /// a state with no recorded step).
    pub fn step_observations(&self) -> &[Observation] {
        self.path.head.as_ref().map_or(&[], |n| n.observations())
    }

    /// The schedule of directives taken along this path, built from the
    /// shared path list (O(depth)).
    pub fn schedule(&self) -> Schedule {
        self.path.schedule()
    }

    /// The observation trace along this path, built from the shared
    /// path list (O(depth)).
    pub fn trace(&self) -> Vec<Observation> {
        self.path.trace()
    }

    /// Add a path constraint. The constraint vector is kept sorted by
    /// interned id and deduplicated — a canonical set representation,
    /// so [`SymState::fingerprint`] can hash it directly and logically
    /// equal path conditions fingerprint identically.
    pub fn assume(&mut self, e: Expr) {
        if e.as_const() != Some(1) {
            if let Err(pos) = self.constraints.binary_search(&e) {
                self.constraints.insert(pos, e);
            }
        }
    }

    /// A 128-bit fingerprint of everything that determines this state's
    /// *future* behaviour.
    ///
    /// **What is hashed.** The program point; the reorder buffer as its
    /// [`Rob::next_index`] plus its digest over `(absolute index, entry)`
    /// pairs (provenance `{j, a}` is absolute, and `next_index` also
    /// pins the base of an empty buffer); the digests of the
    /// explicitly-set registers and memory cells (interned expression
    /// ids and labels); the RSB; and the path condition as a canonical
    /// (sorted, deduplicated) set of interned constraint ids. The
    /// schedule and trace taken to reach the state are deliberately
    /// excluded: two states that agree on the fingerprint explore
    /// identical futures, so the worklist engine keeps only one.
    ///
    /// **Where the digests are maintained.** Each of the three
    /// containers keeps its own digest, updated by its own mutators
    /// only, so fingerprinting costs the same whatever the size of the
    /// state: [`Rob`] in `push`, `set`, `update`, `pop_min`, `pop_min_n`
    /// and `truncate_from`; [`SymRegFile`] and [`SymMemory`] in `write`.
    /// A digest is the XOR of one [`sip128`] element hash per cell or
    /// per `(index, entry)` pair (Zobrist hashing, see
    /// [`sct_core::digest`]). Debug builds check every maintained digest
    /// against a from-scratch recomputation on every call, so every
    /// debug test that explores also tests the mutators.
    ///
    /// **Why the collision bound is unchanged.** The element hashes are
    /// the construction this fingerprint always used — two SipHash
    /// passes over the same data with different prefixes, 128 genuinely
    /// independent bits (deriving one half from the other would
    /// collapse the entropy to 64) — applied to one element. Two
    /// containers with different contents get equal digests only if the
    /// XOR of the hashes in their symmetric difference is zero, about
    /// 2⁻¹²⁸; the outer two-pass SipHash over the digests and the
    /// remaining fields adds another 2⁻¹²⁸ event. Accidental collisions
    /// stay irrelevant in practice.
    ///
    /// **Low bits.** The work-stealing engine ([`crate::parallel`])
    /// picks a visited-set lock shard from the fingerprint's low bits,
    /// so those bits must stay well mixed: the outer SipHash pass keeps
    /// them so, whatever the digests' structure.
    pub fn fingerprint(&self) -> u128 {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(self.rob.digest(), self.rob.recompute_digest(), "stale ROB digest");
            debug_assert_eq!(self.regs.digest(), self.regs.recompute_digest(), "stale register digest");
            debug_assert_eq!(self.mem.digest(), self.mem.recompute_digest(), "stale memory digest");
        }
        sip128(&(
            self.pc,
            self.rob.next_index(),
            self.rob.digest(),
            self.regs.digest(),
            self.mem.digest(),
            &self.rsb,
            // Canonical (sorted, deduplicated) by `assume`'s invariant.
            &self.constraints,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::reg::names::*;
    use sct_core::Val;

    #[test]
    fn lifting_preserves_architectural_state() {
        let (_, cfg) = sct_core::examples::fig1();
        let st = SymState::from_config(&cfg);
        assert_eq!(st.pc, cfg.pc);
        assert_eq!(
            st.regs.read(RA).as_const(),
            Some(cfg.regs.read(RA))
        );
        assert_eq!(
            st.mem.read(0x49).as_const(),
            Some(cfg.mem.read(0x49))
        );
        assert!(st.constraints.is_empty());
    }

    #[test]
    fn symbolizing_replaces_values_keeps_labels() {
        let (_, mut cfg) = sct_core::examples::fig1();
        cfg.regs.write(RB, Val::secret(3));
        let st = SymState::from_config_symbolizing(&cfg, &[RA, RB]);
        assert!(st.regs.read(RA).as_const().is_none());
        assert!(st.regs.read(RA).label.is_public());
        assert!(st.regs.read(RB).label.is_secret());
        assert_eq!(st.pool.len(), 2);
    }

    #[test]
    fn a_million_step_path_drops_on_a_small_stack() {
        let (_, cfg) = sct_core::examples::fig1();
        let mut st = SymState::from_config(&cfg);
        for k in 0..1_000_000 {
            st.record(Directive::Execute(k), &[Observation::Rollback]);
        }
        let shared = st.clone();
        assert_eq!(shared.depth(), 1_000_000);
        // Work-stealing workers drop states on spawned threads.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                drop(st);
                drop(shared);
            })
            .expect("spawn")
            .join()
            .expect("dropping a long path must not overflow the stack");
    }

    #[test]
    fn path_materializes_schedule_and_trace_in_order() {
        let (_, cfg) = sct_core::examples::fig1();
        let mut st = SymState::from_config(&cfg);
        let read = Observation::Read {
            addr: 0x40,
            label: Label::Public,
        };
        st.record(Directive::Fetch, &[]);
        let fork = st.clone();
        st.record(Directive::Execute(1), &[Observation::Rollback, read]);
        assert_eq!(st.depth(), 2);
        assert_eq!(st.step_observations(), &[Observation::Rollback, read]);
        assert_eq!(
            st.schedule(),
            Schedule(vec![Directive::Fetch, Directive::Execute(1)])
        );
        assert_eq!(st.trace(), vec![Observation::Rollback, read]);
        // The clone shares the prefix and is unaffected by the extension.
        assert_eq!(fork.schedule(), Schedule(vec![Directive::Fetch]));
        assert!(fork.trace().is_empty());
    }

    #[test]
    fn the_path_is_not_fingerprinted() {
        let (_, cfg) = sct_core::examples::fig1();
        let a = SymState::from_config(&cfg);
        let mut b = a.clone();
        b.record(Directive::Retire, &[Observation::Rollback]);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn a_single_difference_changes_the_fingerprint() {
        let (_, cfg) = sct_core::examples::fig1();
        let base = SymState::from_config(&cfg);
        let fp = base.fingerprint();
        let differs = |what: &str, edit: &dyn Fn(&mut SymState)| {
            let mut st = base.clone();
            edit(&mut st);
            assert_ne!(st.fingerprint(), fp, "{what} is not fingerprinted");
        };
        differs("a register", &|st| st.regs.write(RC, SymVal::public(1)));
        differs("a memory cell", &|st| st.mem.write(0x99, SymVal::public(0)));
        differs("the program point", &|st| st.pc += 1);
        differs("an RSB entry", &|st| st.rsb.record(1, sct_core::rsb::RsbOp::Pop));
        differs("a constraint", &|st| st.assume(Expr::constant(0)));
        differs("the base of an empty ROB", &|st| st.rob = Rob::starting_at(2));
        // Same ROB shape and base, one entry differs.
        let mut with_entry = base.clone();
        with_entry.rob.push(SymTransient::Fence);
        let fp_entry = with_entry.fingerprint();
        with_entry.rob.set(1, SymTransient::Call);
        assert_ne!(with_entry.fingerprint(), fp_entry, "a ROB entry is not fingerprinted");
        with_entry.rob.set(1, SymTransient::Fence);
        assert_eq!(with_entry.fingerprint(), fp_entry);
    }

    #[test]
    fn assume_skips_trivially_true() {
        let (_, cfg) = sct_core::examples::fig1();
        let mut st = SymState::from_config(&cfg);
        st.assume(Expr::constant(1));
        assert!(st.constraints.is_empty());
        st.assume(Expr::constant(0));
        assert_eq!(st.constraints.len(), 1);
    }
}
