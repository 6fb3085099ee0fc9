//! Hash-consed symbolic bit-vector expressions over 64-bit words.
//!
//! Expressions are immutable nodes interned in a process-wide arena:
//! an [`ExprRef`] is a 32-bit id, structural equality is id equality
//! (O(1)), and every distinct structure is stored exactly once, so
//! cloning machine states shares all expression structure. The
//! [`ExprRef::app`] constructor folds constants eagerly (delegating to
//! the *concrete* evaluator of `sct-core`, so symbolic and concrete
//! semantics cannot drift), applies the algebraic simplifications of
//! [`crate::simplify`], and memoizes `(op, args) → result`, so
//! re-deriving the same value along different schedules is a cache hit.
//!
//! # Sharding
//!
//! The interner is **lock-striped** across [`NUM_SHARDS`] shards, each
//! behind its own `RwLock`. A node's shard is chosen by its structural
//! hash, so two threads interning unrelated expressions almost never
//! touch the same lock, and the dominant hit path (the structure is
//! already interned) takes a single shard *read* lock — concurrent
//! readers never block each other. The id encodes the shard in its low
//! bits, so resolving an id to its node is a single read-lock on the
//! owning shard; no global lock exists at all.
//!
//! The arena is shared by every analysis in the process (see
//! [`arena_stats`]); batch runs over many programs — and parallel
//! explorations within one program — reuse each other's interned
//! expressions.

use sct_core::op::{self, OpCode};
use sct_core::Val;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Bits of an [`ExprRef`] holding the arena index; the remaining high
/// bits hold the epoch tag (see [`retire_arena`]).
const INDEX_BITS: u32 = 24;
/// Largest interned-node index representable in one epoch (~16.7M).
const MAX_INDEX: u32 = (1 << INDEX_BITS) - 1;
/// Low bits of an index naming the owning shard.
const SHARD_BITS: u32 = 4;
/// Interner shards (lock stripes). A node's shard is its structural
/// hash modulo this; the shard id is packed into the low index bits so
/// id → node resolution needs no directory.
pub const NUM_SHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u32 = NUM_SHARDS as u32 - 1;
/// Largest per-shard slot (the 24-bit index space divided evenly).
const MAX_SLOT: u32 = (1 << (INDEX_BITS - SHARD_BITS)) - 1;

/// A symbolic input variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An assignment of concrete values to variables (default 0).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Model {
    map: std::collections::BTreeMap<VarId, u64>,
}

impl Model {
    /// The all-zero model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Look up a variable (0 when unassigned).
    pub fn get(&self, v: VarId) -> u64 {
        self.map.get(&v).copied().unwrap_or(0)
    }

    /// Assign a variable.
    pub fn set(&mut self, v: VarId, value: u64) {
        self.map.insert(v, value);
    }

    /// Iterate over explicit assignments.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.map.iter().map(|(&v, &x)| (v, x))
    }
}

impl FromIterator<(VarId, u64)> for Model {
    fn from_iter<I: IntoIterator<Item = (VarId, u64)>>(iter: I) -> Self {
        Model {
            map: iter.into_iter().collect(),
        }
    }
}

/// An interned expression node. Children are [`ExprRef`]s, so the node
/// itself is small and hashes in O(arity).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    Const(u64),
    Var(VarId),
    App(OpCode, Box<[ExprRef]>),
}

/// A reference into the expression arena: a 32-bit id whose equality is
/// structural equality of the interned (simplified) expression.
///
/// `ExprRef` is `Copy`; cloning a whole symbolic machine state copies
/// ids, never expression trees. The `Ord` instance is id order —
/// arbitrary but stable within a process epoch, which is what the
/// explorer needs to canonicalize path-condition sets.
///
/// The 32 bits are split: the low `INDEX_BITS` (24) index into the arena
/// (their own low `SHARD_BITS` (4) naming the owning shard), the high
/// bits carry the arena's epoch tag at interning time. After
/// [`retire_arena`] the tag no longer matches, so using a retired
/// reference panics loudly instead of silently reading an unrelated
/// node (see the epoch discussion on [`retire_arena`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprRef(u32);

impl ExprRef {
    fn pack(tag: u8, index: u32) -> ExprRef {
        debug_assert!(index <= MAX_INDEX);
        ExprRef((u32::from(tag) << INDEX_BITS) | index)
    }

    /// The arena index (low bits, without the epoch tag).
    pub(crate) fn index(self) -> u32 {
        self.0 & MAX_INDEX
    }

    /// The raw 32 bits (index + epoch tag), for local caches keyed by
    /// the full reference.
    pub(crate) fn bits(self) -> u32 {
        self.0
    }

    /// The owning interner shard.
    fn shard(self) -> usize {
        (self.0 & SHARD_MASK) as usize
    }

    /// The epoch tag this reference was interned under.
    fn epoch_tag(self) -> u8 {
        (self.0 >> INDEX_BITS) as u8
    }
}

/// The traditional name: the seed's `Expr` tree type is now an interned
/// reference.
pub type Expr = ExprRef;

/// A borrowed view of a node, for callers that need to match on
/// structure (the solver's bound extraction, the interval analysis).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExprKind {
    /// A constant.
    Const(u64),
    /// A variable.
    Var(VarId),
    /// An application.
    App(OpCode, Vec<ExprRef>),
}

/// One lock stripe of the interner. The dedup index is **id-keyed**:
/// each node is stored exactly once, in `nodes`, and the index maps a
/// 64-bit structural hash to the id (with an overflow table for the
/// ~never case of colliding hashes).
#[derive(Debug, Default)]
struct Shard {
    /// Interned nodes, slot-indexed (id = slot << SHARD_BITS | shard).
    nodes: Vec<Node>,
    /// Global interning sequence number per slot. Children always carry
    /// a smaller sequence than their parents (they exist first), which
    /// is what lets [`export_arena`] emit a topologically ordered flat
    /// table even though slot order is per-shard.
    seqs: Vec<u64>,
    /// Total child slots across this shard's `App` nodes (memory
    /// accounting).
    child_slots: usize,
    /// Structural hash → interned id. Nodes live only in `nodes`.
    dedup: HashMap<u64, u32>,
    /// Extra ids whose structural hash collides with an entry of
    /// `dedup` (64-bit collisions: expected never at our arena sizes,
    /// handled for correctness).
    dedup_overflow: HashMap<u64, Vec<u32>>,
    /// Memoized `(op, args) → simplified` results for raw `App` nodes
    /// owned by this shard, keyed and valued by bare indices (cleared
    /// wholesale on retirement, so no epoch tags needed).
    app_cache: HashMap<u32, u32>,
}

impl Shard {
    fn node_at(&self, id: u32) -> &Node {
        &self.nodes[(id >> SHARD_BITS) as usize]
    }

    /// The interned id of `node` in this shard, if present.
    fn find(&self, h: u64, node: &Node) -> Option<u32> {
        let &id = self.dedup.get(&h)?;
        if self.node_at(id) == node {
            return Some(id);
        }
        // Genuine 64-bit hash collision: consult overflow.
        if let Some(ids) = self.dedup_overflow.get(&h) {
            for &id in ids {
                if self.node_at(id) == node {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Append `node` (known absent) and index it under `h`.
    fn push_node(&mut self, shard_id: u32, h: u64, node: Node) -> u32 {
        let slot = u32::try_from(self.nodes.len()).expect("expression arena overflow");
        assert!(
            slot <= MAX_SLOT,
            "expression arena shard overflow: {} nodes exceed the per-shard \
             capacity of 2^{} this epoch; retire the arena between batches",
            self.nodes.len(),
            INDEX_BITS - SHARD_BITS,
        );
        let id = (slot << SHARD_BITS) | shard_id;
        if let Node::App(_, args) = &node {
            self.child_slots += args.len();
        }
        self.nodes.push(node);
        self.seqs.push(SEQ.fetch_add(1, Ordering::Relaxed));
        match self.dedup.entry(h) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(id);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                self.dedup_overflow.entry(h).or_default().push(id);
            }
        }
        id
    }

    fn clear(&mut self) {
        self.nodes = Vec::new();
        self.seqs = Vec::new();
        self.child_slots = 0;
        self.dedup = HashMap::new();
        self.dedup_overflow = HashMap::new();
        self.app_cache = HashMap::new();
    }
}

/// The sharded process-wide interner plus its global counters. The
/// epoch and interning sequence are atomics — they order across shards
/// without a global lock.
struct ShardedArena {
    shards: [RwLock<Shard>; NUM_SHARDS],
    epoch: AtomicU64,
}

static ARENA: LazyLock<ShardedArena> = LazyLock::new(|| ShardedArena {
    shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
    epoch: AtomicU64::new(0),
});

/// Global interning sequence (drives the topological export order).
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Memoized application-constructor hits/misses (process-wide).
static APP_HITS: AtomicU64 = AtomicU64::new(0);
static APP_MISSES: AtomicU64 = AtomicU64::new(0);

// ----- thread-local L1 caches ---------------------------------------------
//
// In front of the sharded interner each thread keeps two tiny
// direct-mapped caches: constants (`value → id`) and small
// applications (`(op, args) → simplified id`). A hit touches no shared
// lock at all, which is what lets the hot construction path scale
// across worker threads — and removes the lock-striping tax from
// serial runs. Entries are compared exactly (full key, not just the
// slot hash), stamped with the arena epoch, and flushed lazily the
// first time the owning thread constructs after [`retire_arena`], so a
// retired id can never leak into a new epoch through a thread cache.

/// Slots in the per-thread constant cache (direct-mapped).
const LOCAL_CONST_SLOTS: usize = 1 << 9;
/// Slots in the per-thread application cache (direct-mapped).
const LOCAL_APP_SLOTS: usize = 1 << 12;
/// Largest application arity the thread cache holds; covers the hot
/// constructors (unary/binary ops plus `Csel`). Wider applications fall
/// through to the sharded cache.
const LOCAL_APP_MAX_ARGS: usize = 4;

/// One thread-cache application entry: the exact key and the
/// simplified result, all as raw [`ExprRef`] bits.
#[derive(Clone, Copy)]
struct LocalApp {
    op: OpCode,
    argc: u8,
    args: [u32; LOCAL_APP_MAX_ARGS],
    result: u32,
}

struct LocalCaches {
    epoch: u64,
    consts: Box<[Option<(u64, u32)>]>,
    apps: Box<[Option<LocalApp>]>,
}

impl LocalCaches {
    fn new(epoch: u64) -> LocalCaches {
        LocalCaches {
            epoch,
            consts: vec![None; LOCAL_CONST_SLOTS].into_boxed_slice(),
            apps: vec![None; LOCAL_APP_SLOTS].into_boxed_slice(),
        }
    }
}

thread_local! {
    static LOCAL_CACHES: RefCell<Option<LocalCaches>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's L1 caches, allocating them on first use and
/// flushing them when the arena epoch moved since the last touch.
fn with_local_caches<R>(f: impl FnOnce(&mut LocalCaches) -> R) -> R {
    LOCAL_CACHES.with(|cell| {
        let mut slot = cell.borrow_mut();
        let epoch = ARENA.epoch.load(Ordering::Acquire);
        let caches = match slot.as_mut() {
            Some(c) => {
                if c.epoch != epoch {
                    c.consts.fill(None);
                    c.apps.fill(None);
                    c.epoch = epoch;
                }
                c
            }
            None => slot.insert(LocalCaches::new(epoch)),
        };
        f(caches)
    })
}

fn local_const_slot(v: u64) -> usize {
    (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (LOCAL_CONST_SLOTS - 1)
}

fn local_app_slot(opcode: OpCode, args: &[ExprRef]) -> usize {
    let mut h = (opcode as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &a in args {
        h = (h ^ u64::from(a.bits())).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    (h >> 32) as usize & (LOCAL_APP_SLOTS - 1)
}

/// Drop the calling thread's L1 intern caches (the shared arena is
/// untouched).
pub(crate) fn flush_local_caches() {
    LOCAL_CACHES.with(|cell| {
        if let Some(c) = cell.borrow_mut().as_mut() {
            c.consts.fill(None);
            c.apps.fill(None);
        }
    });
}

/// The deterministic structural hash the dedup index is keyed by
/// (SipHash with fixed keys; stable within a process, not across).
fn node_hash(node: &Node) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

fn shard_of_hash(h: u64) -> usize {
    (h as usize) & (NUM_SHARDS - 1)
}

/// Read-lock a shard. Poisoned locks are ignored because shards are
/// append-only and stay structurally valid.
fn read_shard(i: usize) -> RwLockReadGuard<'static, Shard> {
    ARENA.shards[i].read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock a shard (poison ignored, as in [`read_shard`]).
fn write_shard(i: usize) -> RwLockWriteGuard<'static, Shard> {
    ARENA.shards[i].write().unwrap_or_else(PoisonError::into_inner)
}

/// The current epoch's tag. Loaded while a shard lock is held so the
/// tag and the shard contents are from the same epoch (retirement takes
/// every shard's write lock before bumping).
fn current_tag() -> u8 {
    ARENA.epoch.load(Ordering::Acquire) as u8
}

/// Intern a node, returning the reference and whether it was fresh.
/// The dominant path (structure already interned) takes one shard
/// *read* lock.
fn intern_node(node: Node) -> (ExprRef, bool) {
    let h = node_hash(&node);
    let si = shard_of_hash(h);
    {
        let shard = read_shard(si);
        if let Some(id) = shard.find(h, &node) {
            return (ExprRef::pack(current_tag(), id), false);
        }
    }
    let mut shard = write_shard(si);
    // Re-check: another thread may have interned it between the probes.
    if let Some(id) = shard.find(h, &node) {
        return (ExprRef::pack(current_tag(), id), false);
    }
    let id = shard.push_node(si as u32, h, node);
    (ExprRef::pack(current_tag(), id), true)
}

/// Run `f` on the node behind `e` (one shard read lock).
///
/// # Panics
///
/// Panics when `e` is stale — interned under an epoch tag that no
/// longer matches the arena's (the reference outlived
/// [`retire_arena`]).
pub(crate) fn with_node<R>(e: ExprRef, f: impl FnOnce(&Node) -> R) -> R {
    let shard = read_shard(e.shard());
    let tag = current_tag();
    assert!(
        e.epoch_tag() == tag,
        "stale ExprRef: interned under epoch tag {} but the arena \
         is at epoch {} — the reference outlived retire_arena()",
        e.epoch_tag(),
        ARENA.epoch.load(Ordering::Acquire),
    );
    f(shard.node_at(e.index()))
}

pub(crate) fn constant_global(v: u64) -> ExprRef {
    let slot = local_const_slot(v);
    if let Some(hit) = with_local_caches(|c| match c.consts[slot] {
        Some((val, bits)) if val == v => Some(ExprRef(bits)),
        _ => None,
    }) {
        return hit;
    }
    let e = intern_node(Node::Const(v)).0;
    with_local_caches(|c| c.consts[slot] = Some((v, e.0)));
    e
}

pub(crate) fn var_global(v: VarId) -> ExprRef {
    intern_node(Node::Var(v)).0
}

pub(crate) fn raw_app_global(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    intern_node(Node::App(opcode, args.into_boxed_slice())).0
}

pub(crate) fn as_const_global(e: ExprRef) -> Option<u64> {
    with_node(e, |n| match n {
        Node::Const(v) => Some(*v),
        _ => None,
    })
}

/// Fold, simplify, and intern an application; memoized per raw
/// interned node. The (dominant) cache-hit path costs one shard read
/// lock: the raw node's interned id and its cached simplification live
/// in the same shard, so one acquisition answers both. The miss path
/// computes the simplification with **no lock held** (the simplifier
/// re-enters the public constructors, which lock per operation), so two
/// shards are never locked at once and worker threads cannot deadlock.
pub(crate) fn app_global(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    // L0: the thread cache. A hit would also have hit the sharded
    // constructor cache, so it counts toward the global hit counter.
    let small = args.len() <= LOCAL_APP_MAX_ARGS;
    if small {
        let slot = local_app_slot(opcode, &args);
        if let Some(hit) = with_local_caches(|c| match &c.apps[slot] {
            Some(e)
                if e.op == opcode
                    && usize::from(e.argc) == args.len()
                    && e.args[..args.len()]
                        .iter()
                        .zip(&args)
                        .all(|(&cached, arg)| cached == arg.bits()) =>
            {
                Some(ExprRef(e.result))
            }
            _ => None,
        }) {
            APP_HITS.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        let mut entry = LocalApp {
            op: opcode,
            argc: args.len() as u8,
            args: [0; LOCAL_APP_MAX_ARGS],
            result: 0,
        };
        for (dst, arg) in entry.args.iter_mut().zip(&args) {
            *dst = arg.bits();
        }
        let result = app_global_shared(opcode, args);
        entry.result = result.bits();
        with_local_caches(|c| c.apps[slot] = Some(entry));
        result
    } else {
        app_global_shared(opcode, args)
    }
}

fn app_global_shared(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
    let raw_node = Node::App(opcode, args.into_boxed_slice());
    let h = node_hash(&raw_node);
    let si = shard_of_hash(h);
    // Fast path: raw interned and its simplification cached.
    let raw = {
        let shard = read_shard(si);
        if let Some(id) = shard.find(h, &raw_node) {
            if let Some(&res) = shard.app_cache.get(&id) {
                APP_HITS.fetch_add(1, Ordering::Relaxed);
                return ExprRef::pack(current_tag(), res);
            }
            Some(ExprRef::pack(current_tag(), id))
        } else {
            None
        }
    };
    let raw = match raw {
        Some(r) => r,
        None => {
            let mut shard = write_shard(si);
            if let Some(id) = shard.find(h, &raw_node) {
                if let Some(&res) = shard.app_cache.get(&id) {
                    APP_HITS.fetch_add(1, Ordering::Relaxed);
                    return ExprRef::pack(current_tag(), res);
                }
                ExprRef::pack(current_tag(), id)
            } else {
                let id = shard.push_node(si as u32, h, raw_node);
                ExprRef::pack(current_tag(), id)
            }
        }
    };
    APP_MISSES.fetch_add(1, Ordering::Relaxed);
    let args: Vec<ExprRef> = with_node(raw, |n| match n {
        Node::App(_, a) => a.to_vec(),
        _ => unreachable!("raw app interned above"),
    });
    // Constant folding through the concrete evaluator.
    let result = if let Some(consts) = args
        .iter()
        .map(|&a| as_const_global(a))
        .collect::<Option<Vec<u64>>>()
    {
        let vals: Vec<Val> = consts.into_iter().map(Val::public).collect();
        let folded = op::eval(opcode, &vals).expect("arity checked upstream");
        constant_global(folded.bits)
    } else {
        crate::simplify::simplify_app(opcode, args)
    };
    // Two racing computations of the same raw node produce the same
    // structural result (simplification is deterministic), so first
    // insert wins and the values agree.
    write_shard(si).app_cache.entry(raw.index()).or_insert(result.index());
    result
}

// ----- local read view ----------------------------------------------------

/// A cheap multiplicative hasher for `u32`-keyed local caches (the
/// default SipHash costs more than the lookup it guards here).
#[derive(Default)]
pub(crate) struct FibHasher(u64);

impl Hasher for FibHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type FastMap<V> = HashMap<u32, V, std::hash::BuildHasherDefault<FibHasher>>;

/// A query-local cache of arena nodes: each distinct node is fetched
/// from its shard exactly once (one read lock) and then read without
/// any locking.
///
/// The sharded interner has no "hold one big read lock for the whole
/// query" mode on purpose — a long-held all-shard read guard would
/// block every writer in every thread, serializing exactly the workload
/// the shards exist for. The solver's hot loops (hundreds of `eval`s
/// over the same constraint expressions per query) go through a
/// `LocalView` instead.
#[derive(Default)]
pub(crate) struct LocalView {
    cache: FastMap<Rc<Node>>,
}

impl LocalView {
    pub(crate) fn new() -> Self {
        LocalView::default()
    }

    fn node(&mut self, e: ExprRef) -> Rc<Node> {
        if let Some(n) = self.cache.get(&e.bits()) {
            return Rc::clone(n);
        }
        let n = Rc::new(with_node(e, Clone::clone));
        self.cache.insert(e.bits(), Rc::clone(&n));
        n
    }

    pub(crate) fn as_const(&mut self, e: ExprRef) -> Option<u64> {
        match &*self.node(e) {
            Node::Const(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_var(&mut self, e: ExprRef) -> Option<VarId> {
        match &*self.node(e) {
            Node::Var(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn as_app(&mut self, e: ExprRef) -> Option<(OpCode, Vec<ExprRef>)> {
        match &*self.node(e) {
            Node::App(op, args) => Some((*op, args.to_vec())),
            _ => None,
        }
    }

    pub(crate) fn kind(&mut self, e: ExprRef) -> ExprKind {
        match &*self.node(e) {
            Node::Const(v) => ExprKind::Const(*v),
            Node::Var(v) => ExprKind::Var(*v),
            Node::App(op, args) => ExprKind::App(*op, args.to_vec()),
        }
    }

    pub(crate) fn eval(&mut self, e: ExprRef, model: &Model) -> u64 {
        let node = self.node(e);
        match &*node {
            Node::Const(v) => *v,
            Node::Var(v) => model.get(*v),
            Node::App(opcode, args) => {
                let vals: Vec<Val> = args
                    .iter()
                    .map(|&a| Val::public(self.eval(a, model)))
                    .collect();
                op::eval(*opcode, &vals)
                    .expect("arity checked at construction")
                    .bits
            }
        }
    }

    pub(crate) fn collect_vars(&mut self, e: ExprRef, out: &mut BTreeSet<VarId>) {
        let node = self.node(e);
        match &*node {
            Node::Const(_) => {}
            Node::Var(v) => {
                out.insert(*v);
            }
            Node::App(_, args) => {
                for &a in args.iter() {
                    self.collect_vars(a, out);
                }
            }
        }
    }

    pub(crate) fn collect_consts(&mut self, e: ExprRef, out: &mut BTreeSet<u64>) {
        let node = self.node(e);
        match &*node {
            Node::Const(v) => {
                out.insert(*v);
            }
            Node::Var(_) => {}
            Node::App(_, args) => {
                for &a in args.iter() {
                    self.collect_consts(a, out);
                }
            }
        }
    }

    fn display(&mut self, e: ExprRef, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.node(e);
        match &*node {
            Node::Const(v) => write!(f, "{v:#x}"),
            Node::Var(v) => write!(f, "{v}"),
            Node::App(opcode, args) => {
                write!(f, "{}(", opcode.mnemonic())?;
                for (i, &a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    self.display(a, f)?;
                }
                write!(f, ")")
            }
        }
    }
}

// ----- stats, epoch -------------------------------------------------------

/// Counters describing the process-wide expression arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaStats {
    /// Distinct interned nodes (all shards).
    pub nodes: usize,
    /// Memoized application-constructor hits.
    pub app_cache_hits: u64,
    /// Application-constructor misses (simplifier actually ran).
    pub app_cache_misses: u64,
    /// Current arena epoch (bumped by [`retire_arena`]).
    pub epoch: u64,
    /// Approximate bytes held by the node tables themselves (node
    /// headers plus `App` child slots).
    pub node_bytes: usize,
    /// Approximate bytes held by the dedup indices. With the id-keyed
    /// layout this is a hash and an id per node; the old node-keyed
    /// layout paid `node_bytes` again here.
    pub dedup_bytes: usize,
    /// Lock stripes the interner is divided into.
    pub shards: usize,
}

/// Snapshot the arena counters (used by batch analyses to report
/// structural sharing across programs). Shards are sampled one at a
/// time, so concurrent interning can skew individual counters by a few
/// nodes — the numbers are for reporting, not synchronization.
pub fn arena_stats() -> ArenaStats {
    let mut nodes = 0usize;
    let mut child_slots = 0usize;
    let mut dedup_len = 0usize;
    let mut overflow_ids = 0usize;
    for i in 0..NUM_SHARDS {
        let shard = read_shard(i);
        nodes += shard.nodes.len();
        child_slots += shard.child_slots;
        dedup_len += shard.dedup.len();
        overflow_ids += shard.dedup_overflow.values().map(Vec::len).sum::<usize>();
    }
    ArenaStats {
        nodes,
        app_cache_hits: APP_HITS.load(Ordering::Relaxed),
        app_cache_misses: APP_MISSES.load(Ordering::Relaxed),
        epoch: ARENA.epoch.load(Ordering::Acquire),
        node_bytes: nodes * std::mem::size_of::<Node>()
            + child_slots * std::mem::size_of::<ExprRef>(),
        dedup_bytes: dedup_len * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + overflow_ids * std::mem::size_of::<u32>(),
        shards: NUM_SHARDS,
    }
}

/// The current arena epoch. References interned before the last
/// [`retire_arena`] call belong to earlier epochs and must not be used.
pub fn arena_epoch() -> u64 {
    ARENA.epoch.load(Ordering::Acquire)
}

/// Retire the process-wide expression arena: every interned node, the
/// dedup indices, the memoized application caches, and the solver's
/// verdict memo are dropped, and the epoch is bumped.
///
/// Long-lived processes call this between batches so the arena does not
/// grow monotonically. Any [`ExprRef`] minted before the reset is
/// *stale*: its packed epoch tag no longer matches the arena's, and
/// using it **panics** with a clear message rather than aliasing a node
/// of the new epoch. (The tag is 8 bits, so detection is generational
/// modulo 256 — a stale reference would have to survive 256 retirements
/// unused before it could be misread; holding `ExprRef`s across even
/// one retirement is already a bug.) Retirement takes every shard's
/// write lock, so it must not run while analyses are in flight — the
/// service layer defers policy-triggered retirement until its job
/// count drains.
///
/// Returns the new epoch number.
pub fn retire_arena() -> u64 {
    let epoch = {
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> =
            (0..NUM_SHARDS).map(write_shard).collect();
        for g in guards.iter_mut() {
            g.clear();
        }
        // Bumped while every shard is exclusively held: no interner can
        // mint a new-epoch reference into an old shard or vice versa.
        ARENA.epoch.fetch_add(1, Ordering::AcqRel) + 1
    };
    crate::solver::reset_memo_for_new_epoch();
    epoch
}

// ----- snapshot export / import ------------------------------------------

/// One interned node in flat, id-free form: children are indices into
/// the exported node table (always smaller than the node's own index —
/// the export is emitted in global interning order, and children are
/// always interned before their parents).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExportedNode {
    /// A constant.
    Const(u64),
    /// A variable (by [`VarId`] number).
    Var(u32),
    /// An application of an opcode to earlier table entries.
    App(OpCode, Vec<u32>),
}

/// A flat copy of the arena: the node table in interning order plus the
/// memoized application cache as `(raw index, simplified index)` pairs.
/// This is what [`import_arena`] consumes and what the `sct-cache`
/// crate serializes.
#[derive(Clone, Default, Debug)]
pub struct ArenaExport {
    /// Every interned node, children as table indices.
    pub nodes: Vec<ExportedNode>,
    /// The `(op, args) → simplified` constructor cache, as indices.
    pub app_cache: Vec<(u32, u32)>,
}

/// Flatten the shards into an export while holding `guards` (read
/// guards on every shard, in order), returning the export plus the
/// live-id → table-position map the memo export needs.
fn export_arena_locked(guards: &[RwLockReadGuard<'static, Shard>]) -> (ArenaExport, FastMap<u32>) {
    // Global interning order: children precede parents.
    let mut order: Vec<(u64, u32)> = Vec::new();
    for (si, shard) in guards.iter().enumerate() {
        for (slot, &seq) in shard.seqs.iter().enumerate() {
            order.push((seq, ((slot as u32) << SHARD_BITS) | si as u32));
        }
    }
    order.sort_unstable();
    let mut pos_of: FastMap<u32> = FastMap::default();
    let mut nodes = Vec::with_capacity(order.len());
    for (pos, &(_, id)) in order.iter().enumerate() {
        let node = guards[(id & SHARD_MASK) as usize].node_at(id);
        let exported = match node {
            Node::Const(v) => ExportedNode::Const(*v),
            Node::Var(v) => ExportedNode::Var(v.0),
            Node::App(op, args) => ExportedNode::App(
                *op,
                args.iter()
                    .map(|c| *pos_of.get(&c.index()).expect("children precede parents"))
                    .collect(),
            ),
        };
        nodes.push(exported);
        pos_of.insert(id, pos as u32);
    }
    let mut app_cache: Vec<(u32, u32)> = Vec::new();
    for shard in guards {
        for (&raw, &result) in &shard.app_cache {
            app_cache.push((pos_of[&raw], pos_of[&result]));
        }
    }
    app_cache.sort_unstable();
    (ArenaExport { nodes, app_cache }, pos_of)
}

/// Flatten the process-wide arena into an [`ArenaExport`].
pub fn export_arena() -> ArenaExport {
    let guards: Vec<_> = (0..NUM_SHARDS).map(read_shard).collect();
    export_arena_locked(&guards).0
}

/// Flatten the arena **and** the solver-verdict memo consistently: the
/// arena shards stay read-locked while the memo is exported, so every
/// memo key id resolves to a position in the very node table being
/// written. This is what `sct-cache` snapshots call.
pub fn export_all() -> (ArenaExport, crate::solver::MemoExport) {
    let guards: Vec<_> = (0..NUM_SHARDS).map(read_shard).collect();
    let (arena, pos_of) = export_arena_locked(&guards);
    let memo = crate::solver::export_memo_with(|index| pos_of.get(&index).copied());
    (arena, memo)
}

/// [`export_all`] plus the node-table positions of `roots`: live
/// [`ExprRef`]s the caller wants kept by a reachability-pruned
/// snapshot in addition to the memo keys (`sct-cache`'s
/// `Snapshot::capture_rooted`). The arena shards stay read-locked
/// across all three parts, so the positions index the very table
/// being returned. Roots from an earlier epoch (stale tag) are
/// skipped rather than panicking — a pruning caller holding
/// pre-retirement refs just loses those roots.
pub fn export_all_rooted(
    roots: &[ExprRef],
) -> (ArenaExport, crate::solver::MemoExport, Vec<u32>) {
    let guards: Vec<_> = (0..NUM_SHARDS).map(read_shard).collect();
    let (arena, pos_of) = export_arena_locked(&guards);
    let memo = crate::solver::export_memo_with(|index| pos_of.get(&index).copied());
    let tag = ARENA.epoch.load(Ordering::Acquire) as u8;
    let mut positions: Vec<u32> = roots
        .iter()
        .filter(|r| r.epoch_tag() == tag)
        .filter_map(|r| pos_of.get(&r.index()).copied())
        .collect();
    positions.sort_unstable();
    positions.dedup();
    (arena, memo, positions)
}

/// Why an [`ArenaExport`] was rejected by [`import_arena`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArenaImportError {
    /// An `App` child referred to a node at or after its parent.
    ChildOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The out-of-range child index.
        child: u32,
    },
    /// An `App` operand count violated its opcode's arity.
    BadArity {
        /// Index of the offending node.
        node: usize,
        /// The application's opcode.
        opcode: OpCode,
        /// The operand count found.
        argc: usize,
    },
    /// An app-cache pair referred outside the node table.
    CacheOutOfRange {
        /// The out-of-range index.
        index: u32,
    },
}

impl fmt::Display for ArenaImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaImportError::ChildOutOfRange { node, child } => {
                write!(f, "node {node} references child {child} at or after itself")
            }
            ArenaImportError::BadArity { node, opcode, argc } => {
                write!(f, "node {node}: {} does not take {argc} operands", opcode.mnemonic())
            }
            ArenaImportError::CacheOutOfRange { index } => {
                write!(f, "app-cache entry references missing node {index}")
            }
        }
    }
}

impl std::error::Error for ArenaImportError {}

/// What [`import_arena`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ArenaImportStats {
    /// Nodes in the imported snapshot.
    pub snapshot_nodes: usize,
    /// Snapshot nodes that were already interned (identical structure).
    pub preexisting: usize,
    /// Snapshot nodes newly added to the arena.
    pub added: usize,
    /// App-cache pairs merged (pairs whose raw node already had a cached
    /// result are kept as-is and not counted).
    pub app_cache_merged: usize,
}

/// Hydrate the process-wide arena from an export, returning the
/// remapping table `snapshot index → live ExprRef` plus import
/// statistics.
///
/// The arena need not be empty: every snapshot node is re-interned
/// structurally, so ids are remapped, shared structure lands on the
/// existing ids, and snapshots taken by different processes compose.
/// Nodes are inserted verbatim (no re-simplification — the snapshot
/// already stores post-simplification structure), and the app cache is
/// merged without overwriting live entries.
///
/// Every reference in `export` is validated before anything is
/// interned; a malformed export leaves the arena untouched.
pub fn import_arena(export: &ArenaExport) -> Result<(Vec<ExprRef>, ArenaImportStats), ArenaImportError> {
    // Validate up front so no partial import can corrupt the arena.
    for (i, node) in export.nodes.iter().enumerate() {
        if let ExportedNode::App(op, args) = node {
            if let Some(arity) = op.arity() {
                if args.len() != arity {
                    return Err(ArenaImportError::BadArity {
                        node: i,
                        opcode: *op,
                        argc: args.len(),
                    });
                }
            } else if args.is_empty() {
                return Err(ArenaImportError::BadArity {
                    node: i,
                    opcode: *op,
                    argc: 0,
                });
            }
            for &c in args {
                if c as usize >= i {
                    return Err(ArenaImportError::ChildOutOfRange { node: i, child: c });
                }
            }
        }
    }
    let n = export.nodes.len() as u32;
    for &(raw, result) in &export.app_cache {
        for index in [raw, result] {
            if index >= n {
                return Err(ArenaImportError::CacheOutOfRange { index });
            }
        }
    }
    let mut stats = ArenaImportStats {
        snapshot_nodes: export.nodes.len(),
        ..Default::default()
    };
    let mut remap: Vec<ExprRef> = Vec::with_capacity(export.nodes.len());
    for node in &export.nodes {
        let node = match node {
            ExportedNode::Const(v) => Node::Const(*v),
            ExportedNode::Var(v) => Node::Var(VarId(*v)),
            ExportedNode::App(op, args) => Node::App(
                *op,
                args.iter().map(|&c| remap[c as usize]).collect(),
            ),
        };
        let (e, fresh) = intern_node(node);
        if fresh {
            stats.added += 1;
        } else {
            stats.preexisting += 1;
        }
        remap.push(e);
    }
    for &(raw, result) in &export.app_cache {
        let (raw, result) = (remap[raw as usize], remap[result as usize]);
        let mut shard = write_shard(raw.shard());
        if let std::collections::hash_map::Entry::Vacant(v) = shard.app_cache.entry(raw.index()) {
            v.insert(result.index());
            stats.app_cache_merged += 1;
        }
    }
    Ok((remap, stats))
}

impl ExprRef {
    /// A constant.
    pub fn constant(v: u64) -> ExprRef {
        constant_global(v)
    }

    /// A variable.
    pub fn var(v: VarId) -> ExprRef {
        var_global(v)
    }

    /// Apply an opcode, folding constants and simplifying. Structurally
    /// identical results — however they were derived, on whatever
    /// thread — intern to the same id.
    ///
    /// # Panics
    ///
    /// Panics if the operand count violates the opcode's arity — callers
    /// construct applications from machine instructions, which were
    /// arity-checked at assembly time.
    pub fn app(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
        app_global(opcode, args)
    }

    /// Intern an application verbatim, without simplification. Used by
    /// tests and diagnostics to compare raw against simplified forms;
    /// production construction goes through [`ExprRef::app`].
    pub fn raw_app(opcode: OpCode, args: Vec<ExprRef>) -> ExprRef {
        raw_app_global(opcode, args)
    }

    /// The constant value, if this expression is a constant.
    pub fn as_const(self) -> Option<u64> {
        as_const_global(self)
    }

    /// The variable, if this expression is one.
    pub fn as_var(self) -> Option<VarId> {
        with_node(self, |n| match n {
            Node::Var(v) => Some(*v),
            _ => None,
        })
    }

    /// The node shape: constant, variable, or application (children as
    /// [`ExprRef`]s).
    pub fn kind(self) -> ExprKind {
        with_node(self, |n| match n {
            Node::Const(v) => ExprKind::Const(*v),
            Node::Var(v) => ExprKind::Var(*v),
            Node::App(op, args) => ExprKind::App(*op, args.to_vec()),
        })
    }

    /// Evaluate under a model (total: missing variables read 0).
    pub fn eval(self, model: &Model) -> u64 {
        LocalView::new().eval(self, model)
    }

    /// Collect the variables occurring in the expression.
    pub fn collect_vars(self, out: &mut BTreeSet<VarId>) {
        LocalView::new().collect_vars(self, out);
    }

    /// The variables occurring in the expression.
    pub fn vars(self) -> BTreeSet<VarId> {
        let mut s = BTreeSet::new();
        self.collect_vars(&mut s);
        s
    }

    /// Structural equality — with hash-consing this is id equality.
    /// Kept for readability at call sites predating the arena.
    pub fn same(self, other: ExprRef) -> bool {
        self == other
    }

    /// All constants occurring in the expression (seed values for the
    /// solver's candidate search).
    pub fn collect_consts(self, out: &mut BTreeSet<u64>) {
        LocalView::new().collect_consts(self, out);
    }
}

impl From<u64> for ExprRef {
    fn from(v: u64) -> Self {
        ExprRef::constant(v)
    }
}

impl fmt::Display for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        LocalView::new().display(*self, f)
    }
}

impl fmt::Debug for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}`{self}`", self.index())
    }
}

/// Mints fresh variables with remembered debug names.
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
}

impl VarPool {
    /// An empty pool.
    pub fn new() -> Self {
        VarPool::default()
    }

    /// Mint a fresh variable with a debug name.
    pub fn fresh(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// The debug name of a variable from this pool.
    pub fn name(&self, v: VarId) -> Option<&str> {
        self.names.get(v.0 as usize).map(String::as_str)
    }

    /// Number of minted variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no variable was minted.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_through_concrete_evaluator() {
        let e = Expr::app(
            OpCode::Add,
            vec![Expr::constant(2), Expr::constant(3), Expr::constant(4)],
        );
        assert_eq!(e.as_const(), Some(9));
        let e = Expr::app(OpCode::Gt, vec![Expr::constant(4), Expr::constant(9)]);
        assert_eq!(e.as_const(), Some(0));
    }

    #[test]
    fn interning_is_structural() {
        let a = Expr::app(OpCode::Add, vec![Expr::var(VarId(0)), Expr::constant(3)]);
        let b = Expr::app(OpCode::Add, vec![Expr::var(VarId(0)), Expr::constant(3)]);
        assert_eq!(a, b, "same structure must intern to the same id");
        let c = Expr::app(OpCode::Add, vec![Expr::var(VarId(1)), Expr::constant(3)]);
        assert_ne!(a, c);
    }

    #[test]
    fn interning_is_structural_across_threads() {
        // The whole point of shard-by-hash: two threads interning the
        // same structure get the same id, whoever wins the race.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64u64)
                        .map(|k| {
                            Expr::app(
                                OpCode::Add,
                                vec![Expr::var(VarId(900)), Expr::constant(0x5eed_0000 + k)],
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<Vec<Expr>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "concurrent interning must agree on ids");
        }
    }

    #[test]
    fn eval_matches_concrete_semantics_on_random_exprs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..500 {
            let op = OpCode::ALL[rng.gen_range(0..OpCode::ALL.len())];
            let n = op.arity().unwrap_or(2).max(1);
            let args: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let sym = Expr::app(op, args.iter().map(|&v| Expr::constant(v)).collect());
            let conc = op::eval(op, &args.iter().map(|&v| Val::public(v)).collect::<Vec<_>>())
                .unwrap()
                .bits;
            assert_eq!(sym.as_const(), Some(conc), "{op:?} {args:?}");
        }
    }

    #[test]
    fn variables_evaluate_under_models() {
        let x = VarId(0);
        let e = Expr::app(OpCode::Add, vec![Expr::var(x), Expr::constant(5)]);
        let mut m = Model::new();
        assert_eq!(e.eval(&m), 5);
        m.set(x, 10);
        assert_eq!(e.eval(&m), 15);
    }

    #[test]
    fn vars_and_consts_are_collected() {
        let x = VarId(0);
        let y = VarId(1);
        let e = Expr::app(
            OpCode::Add,
            vec![
                Expr::var(x),
                Expr::app(OpCode::Mul, vec![Expr::var(y), Expr::constant(8)]),
            ],
        );
        assert_eq!(e.vars().len(), 2);
        let mut consts = BTreeSet::new();
        e.collect_consts(&mut consts);
        assert!(consts.contains(&8));
    }

    #[test]
    fn pool_names_variables() {
        let mut pool = VarPool::new();
        let a = pool.fresh("ra");
        let b = pool.fresh("mem_0x48");
        assert_eq!(pool.name(a), Some("ra"));
        assert_eq!(pool.name(b), Some("mem_0x48"));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::app(OpCode::Add, vec![Expr::var(VarId(3)), Expr::constant(0x44)]);
        assert_eq!(e.to_string(), "add(v3, 0x44)");
    }

    #[test]
    fn app_constructor_is_memoized() {
        let before = arena_stats();
        let x = Expr::var(VarId(7));
        let a = Expr::app(OpCode::Add, vec![x, Expr::constant(41)]);
        let b = Expr::app(OpCode::Add, vec![x, Expr::constant(41)]);
        assert_eq!(a, b);
        let after = arena_stats();
        assert!(
            after.app_cache_hits > before.app_cache_hits,
            "second construction must hit the cache"
        );
    }

    #[test]
    fn stats_report_shards() {
        let stats = arena_stats();
        assert_eq!(stats.shards, NUM_SHARDS);
    }
}
