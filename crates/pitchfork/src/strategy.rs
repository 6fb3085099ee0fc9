//! Frontier orders for the worklist explorer.
//!
//! The explorer of [`crate::explorer`] is agnostic to the order in
//! which frontier states are expanded: any order visits the same set of
//! distinct states (the visited set is order-insensitive), so every
//! strategy reaches the same *verdict* — but the number of states
//! expanded before the **first witness** differs. Under a tight state
//! budget the order decides whether a violation is found before the
//! search truncates. The strategy-equivalence test suite pins the
//! verdict invariant; each run reports the rest in
//! [`crate::ExploreStats::first_witness_states`] and
//! [`crate::ExploreStats::first_witness_depth`].
//!
//! Two orders ship:
//!
//! * [`Lifo`] — depth-first (the default): follows one schedule to
//!   completion before backtracking, cheap and cache-friendly;
//! * [`Fifo`] — breadth-first: finds *shortest* witness schedules,
//!   at the cost of a wide frontier.
//!
//! Strategies are selected by [`StrategyKind`] (builder-, job- and
//! CLI-facing); the explorer builds a fresh [`SearchStrategy`] frontier
//! from it for every exploration.

use crate::state::SymState;
use std::collections::VecDeque;

/// A frontier order: the mutable worklist the explorer pushes successor
/// states into and pops the next state to expand from.
///
/// One strategy instance lives for exactly one exploration; the
/// explorer constructs a fresh frontier per [`crate::Explorer::explore`]
/// call through [`StrategyKind::frontier`]. Implementations must be
/// deterministic: two explorations of the same program with the same
/// options must pop states in the same order, or reports stop being
/// reproducible. (Parallel exploration
/// gives each worker its own private frontier of this type and
/// rebalances by donating batches between workers, so *global* pop
/// order additionally depends on steal timing there — each worker
/// still pops its own states in strategy order, and the strategy acts
/// as a priority *hint* across workers; see the crate-level "Parallel
/// exploration" notes.)
pub trait SearchStrategy: Send {
    /// The strategy's stable display name (appears in
    /// [`crate::ExploreStats::strategy`], JSON reports, and `--strategy`).
    fn name(&self) -> &'static str;

    /// Enqueue a successor state.
    fn push(&mut self, state: SymState);

    /// Dequeue the next state to expand; `None` ends the exploration.
    fn pop(&mut self) -> Option<SymState>;

    /// States currently enqueued (drives `frontier_peak`).
    fn len(&self) -> usize;

    /// `true` when no state is enqueued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The built-in strategies, as a `Copy` selector for options structs,
/// builders, and CLI flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StrategyKind {
    /// Depth-first stack order (the default).
    #[default]
    Lifo,
    /// Breadth-first queue order.
    Fifo,
}

impl StrategyKind {
    /// Every built-in strategy, in canonical order.
    pub const ALL: [StrategyKind; 2] = [StrategyKind::Lifo, StrategyKind::Fifo];

    /// The stable name (`lifo`, `fifo`).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Lifo => "lifo",
            StrategyKind::Fifo => "fifo",
        }
    }

    /// Parse a CLI/JSON strategy name (the inverse of
    /// [`StrategyKind::name`]).
    pub fn parse(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.name() == name.trim())
    }

    /// A fresh frontier implementing this order.
    pub fn frontier(self) -> Box<dyn SearchStrategy + Send> {
        match self {
            StrategyKind::Lifo => Box::new(Lifo::default()),
            StrategyKind::Fifo => Box::new(Fifo::default()),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// Depth-first: successors are expanded before their siblings.
#[derive(Default)]
pub struct Lifo {
    stack: Vec<SymState>,
}

impl SearchStrategy for Lifo {
    fn name(&self) -> &'static str {
        "lifo"
    }

    fn push(&mut self, state: SymState) {
        self.stack.push(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// Breadth-first: states are expanded in discovery order, so the first
/// witness found has a minimal-length schedule among all witnesses.
#[derive(Default)]
pub struct Fifo {
    queue: VecDeque<SymState>,
}

impl SearchStrategy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn push(&mut self, state: SymState) {
        self.queue.push_back(state);
    }

    fn pop(&mut self) -> Option<SymState> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::examples::fig1;

    fn states(n: usize) -> Vec<SymState> {
        let (_, cfg) = fig1();
        (0..n)
            .map(|i| {
                let mut st = SymState::from_config(&cfg);
                st.pc = i as u64;
                st
            })
            .collect()
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.frontier().name(), kind.name());
        }
        assert_eq!(StrategyKind::parse("nope"), None);
        assert_eq!(StrategyKind::parse(" fifo "), Some(StrategyKind::Fifo));
    }

    #[test]
    fn lifo_pops_last_fifo_pops_first() {
        for (kind, want) in [(StrategyKind::Lifo, 2u64), (StrategyKind::Fifo, 0u64)] {
            let mut f = kind.frontier();
            for st in states(3) {
                f.push(st);
            }
            assert_eq!(f.len(), 3);
            assert_eq!(f.pop().unwrap().pc, want, "{}", kind.name());
        }
    }

    #[test]
    fn frontier_drains_empty() {
        for kind in StrategyKind::ALL {
            let mut f = kind.frontier();
            assert!(f.is_empty());
            for st in states(2) {
                f.push(st);
            }
            assert!(f.pop().is_some());
            assert!(f.pop().is_some());
            assert!(f.pop().is_none(), "{}", kind.name());
        }
    }
}
