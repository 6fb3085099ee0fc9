//! Worst-case schedule exploration (§4.1, Definition B.18) as an
//! explicit worklist engine.
//!
//! Exploration keeps a frontier of symbolic states and a visited set
//! keyed by [`SymState::fingerprint`] (ROB contents, interned
//! register/memory expressions, path condition). Distinct schedule
//! prefixes frequently reconverge on identical states — e.g. the
//! delayed and the eager store-address resolutions of a non-hazarding
//! store, or branch guesses after rollback — and the visited set prunes
//! every such duplicate, turning the seed's exponential re-exploration
//! into work proportional to the number of *distinct* states. The
//! pruning is sound for violation detection because a state's future
//! (and therefore every future observation) depends only on the
//! fingerprinted components; only the already-emitted schedule prefix
//! differs, and that prefix is known clean or it would have been
//! reported when first reached.
//!
//! The explorer enumerates the *tool schedules* `DT(n)`:
//!
//! * instructions are fetched eagerly until the reorder buffer holds
//!   `n` (the **speculation bound**) entries;
//! * value-producing instructions execute immediately after fetch;
//! * conditional branches fork four ways: guessed-correct (executed
//!   immediately) and guessed-wrong (executed as late as possible,
//!   delaying the rollback — maximal transient execution) for each
//!   guess;
//! * store *data* resolves immediately; store *addresses* resolve
//!   immediately in v1 mode, or fork between immediate and delayed
//!   resolution when **forwarding-hazard detection** is enabled
//!   (§4.2.1's Spectre v4 mode);
//! * for every load, one schedule per prior store with a pending address
//!   resolves exactly that store first (all possible forwarding
//!   outcomes), plus one schedule that reads memory;
//! * once the buffer is full, only the oldest instruction makes
//!   progress: retire when resolved, forced (rollback-only) execution
//!   for delayed branches, address resolution for delayed stores.

use crate::machine::SymMachine;
use crate::observe::{BoxObserver, DirectSink, Event, EventSink};
use crate::report::{Report, Violation};
use crate::state::{SymState, SymStoreAddr, SymTransient};
use crate::strategy::StrategyKind;
use sct_core::{Directive, Instr, Observation, Params, Program};
use sct_telemetry::SpanStamp;
use std::sync::LazyLock;
use std::time::Instant;

static STATE_EXPAND_HIST: LazyLock<&'static sct_telemetry::Histogram> =
    LazyLock::new(|| sct_telemetry::histogram(sct_telemetry::names::STATE_EXPAND));

/// Per-state expansion timing at one clock read per state: each
/// [`ExpandTimer::stamp`] records the span since the previous stamp
/// (or [`ExpandTimer::reset`] baseline) into the process-wide
/// `state_expand_ns` histogram through a thread-owned buffer that
/// publishes when the timer drops. When telemetry is disabled the
/// timer is inert and never touches the clock.
pub(crate) struct ExpandTimer {
    spans: Option<(sct_telemetry::LocalHist, SpanStamp)>,
}

impl ExpandTimer {
    pub(crate) fn start() -> ExpandTimer {
        ExpandTimer {
            spans: sct_telemetry::enabled()
                .then(|| (sct_telemetry::LocalHist::new(*STATE_EXPAND_HIST), SpanStamp::now())),
        }
    }

    /// Record one finished expansion; returns the span in nanoseconds
    /// (0 when telemetry is off).
    #[inline]
    pub(crate) fn stamp(&mut self) -> u64 {
        match self.spans.as_mut() {
            Some((hist, last)) => {
                let now = SpanStamp::now();
                let ns = last.ns_until(now);
                hist.record_ns(ns);
                *last = now;
                ns
            }
            None => 0,
        }
    }

    /// Move the baseline to now without recording (excludes a
    /// steal/park gap from the next stamp).
    #[inline]
    pub(crate) fn reset(&mut self) {
        if let Some((_, last)) = self.spans.as_mut() {
            *last = SpanStamp::now();
        }
    }
}

/// Explorer options.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerOptions {
    /// The speculation bound `n` (maximum reorder-buffer occupancy).
    pub spec_bound: usize,
    /// The frontier order (which state expands next); every strategy
    /// reaches the same verdict, but states-to-first-witness differ.
    pub strategy: StrategyKind,
    /// Explore delayed store-address resolution (Spectre v4 mode;
    /// §4.2.1 "forwarding hazard detection").
    pub forwarding_hazards: bool,
    /// **Extension beyond the paper's tool**: explore the aliasing
    /// predictor (§3.5) — for every load, additionally try forwarding
    /// from each prior data-resolved, address-*unresolved* store via
    /// `execute i : fwd j`. Only meaningful together with
    /// [`ExplorerOptions::forwarding_hazards`] (otherwise store
    /// addresses resolve eagerly and no candidate stores exist). The
    /// paper's Pitchfork skips this because of schedule explosion (§4);
    /// our budgeted explorer makes it practical on small programs and
    /// finds the Figure 2 attack automatically.
    pub alias_prediction: bool,
    /// **Extension beyond the paper's tool**: explore mistrained
    /// indirect-jump predictions — on every `jmpi` fetch, speculate to
    /// every program point (up to [`ExplorerOptions::jmpi_target_cap`])
    /// in addition to the correct target, modelling a fully
    /// attacker-controlled branch-target buffer (Spectre v2,
    /// Appendix A). The paper's Pitchfork follows correct targets only.
    pub jmpi_mistraining: bool,
    /// Cap on explored mistrained targets per `jmpi` (keeps the v2
    /// exploration bounded).
    pub jmpi_target_cap: usize,
    /// Prune states whose fingerprint was already expanded (on by
    /// default; the bench compares both settings).
    pub dedup_states: bool,
    /// Worker threads for the frontier. `1` (the default) runs the
    /// serial engine, byte-identical to every release before parallel
    /// exploration existed; `n > 1` runs the work-stealing engine of
    /// [`crate::parallel`] on `n` workers; `0` is **adaptive** — the
    /// exploration starts serial and hands its frontier to one worker
    /// per available core only once the frontier grows wide enough to
    /// feed them (so litmus-sized programs never pay parallel
    /// overhead, and a 1-core host always stays serial). Verdicts and
    /// witness *sets* match the serial engine (the determinism
    /// contract is documented at the crate level); witness *order* and
    /// event interleaving may differ.
    pub threads: usize,
    /// Seed rotating the work-stealing victim order (see
    /// [`crate::parallel`]). Affects steal timing only, never results —
    /// the equivalence proptest varies it to hammer steal/terminate
    /// races. Leave 0 unless stress-testing.
    pub steal_seed: u64,
    /// State-expansion budget; exploration truncates beyond it.
    pub max_states: usize,
    /// Stop extending a path once it has produced a violation.
    pub stop_path_on_violation: bool,
    /// Stop the whole exploration after this many violations.
    pub max_violations: usize,
    /// Wall-clock deadline in milliseconds, measured from exploration
    /// start; `None` (the default) never times out. Enforced
    /// cooperatively at the same stop points as [`crate::Explorer::
    /// with_cancel`] cancellation: when the deadline expires the search
    /// truncates (setting [`crate::ExploreStats::deadline_exceeded`]
    /// and `truncated`) and reports what it found so far — a timed-out
    /// clean run is `Unknown`, never a false `Secure`. Deliberately
    /// *not* part of the incremental-analysis config fingerprint:
    /// a deadline changes how long the search may run, not what any
    /// completed analysis means. So a result the deadline cut short
    /// does not match its fingerprint, and the CI gate
    /// ([`crate::IncrementalGate`]) prints it without recording it.
    pub deadline_ms: Option<u64>,
}

impl ExplorerOptions {
    /// The worker count [`ExplorerOptions::threads`] denotes: `0`
    /// resolves to the machine's available parallelism (1 when that
    /// cannot be determined), anything else is taken literally. For
    /// `threads == 0` this is the pool size the *adaptive* engine
    /// hands over to if the frontier ever grows wide enough — the
    /// exploration itself may stay serial throughout.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for ExplorerOptions {
    fn default() -> Self {
        ExplorerOptions {
            spec_bound: 20,
            strategy: StrategyKind::Lifo,
            forwarding_hazards: false,
            alias_prediction: false,
            jmpi_mistraining: false,
            jmpi_target_cap: 32,
            dedup_states: true,
            threads: 1,
            steal_seed: 0,
            max_states: 50_000,
            stop_path_on_violation: true,
            max_violations: 64,
            deadline_ms: None,
        }
    }
}

/// A continuation: a micro-sequence of directives plus a successor
/// filter implementing Definition B.18's branch-schedule pairing.
#[derive(Clone, Debug)]
pub(crate) enum Cont {
    /// Apply all directives, keep all successors.
    Seq(Vec<Directive>),
    /// Apply all directives, keep only successors whose final step did
    /// **not** roll back (correct-guess branch schedules).
    SeqNoRollback(Vec<Directive>),
    /// Apply all directives, keep only successors whose final step
    /// **did** roll back (forced execution of delayed wrong guesses).
    SeqRollbackOnly(Vec<Directive>),
}

impl Cont {
    fn directives(&self) -> &[Directive] {
        match self {
            Cont::Seq(d) | Cont::SeqNoRollback(d) | Cont::SeqRollbackOnly(d) => d,
        }
    }
}

/// Floor on the adaptive spill width: even on a 2-core host the
/// frontier must be this wide before the pool is worth waking.
const SPILL_WIDTH_MIN: usize = 32;

/// What [`Explorer::explore_serial_core`] ended with: a finished
/// report, or (adaptive mode) a frontier wide enough to hand to the
/// parallel engine.
enum SerialOutcome {
    Done(Report),
    Spill(crate::parallel::ParallelSeed),
}

/// The worst-case schedule explorer.
pub struct Explorer<'p> {
    pub(crate) machine: SymMachine<'p>,
    pub(crate) options: ExplorerOptions,
    /// Cooperative cancellation flag (daemon `Cancel` requests): the
    /// state loop polls it and stops early with `truncated` set, the
    /// same early-exit shape as an exhausted state budget.
    pub(crate) cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl<'p> Explorer<'p> {
    /// An explorer over `program` with paper parameters.
    pub fn new(program: &'p Program, options: ExplorerOptions) -> Self {
        Explorer {
            machine: SymMachine::new(program),
            options,
            cancel: None,
        }
    }

    /// An explorer with explicit machine parameters.
    pub fn with_params(program: &'p Program, params: Params, options: ExplorerOptions) -> Self {
        Explorer {
            machine: SymMachine::with_params(program, params),
            options,
            cancel: None,
        }
    }

    /// Attach a cooperative cancellation flag: once it reads `true`,
    /// the exploration (serial or work-stealing) stops at the next
    /// state-loop iteration and returns a truncated partial report.
    pub fn with_cancel(mut self, cancel: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `true` once an attached cancellation flag has been raised.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(std::sync::atomic::Ordering::Acquire))
    }

    /// The wall-clock cut-off implied by
    /// [`ExplorerOptions::deadline_ms`], anchored at the instant of
    /// this call (exploration start); `None` when no deadline is set.
    pub(crate) fn deadline_from_now(&self) -> Option<Instant> {
        self.options
            .deadline_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms))
    }

    /// Explore all worst-case schedules from `initial` with a worklist.
    ///
    /// The frontier order is [`ExplorerOptions::strategy`];
    /// deduplication happens at push time: a successor whose
    /// fingerprint is already in the visited set is dropped before it
    /// occupies frontier memory, and everything enqueued is distinct,
    /// so the pop path needs no second check. Every state is
    /// fingerprinted exactly once.
    pub fn explore(&self, initial: SymState) -> Report {
        self.explore_observed(initial, &mut [])
    }

    /// [`Explorer::explore`], streaming [`Event`]s (state expansions,
    /// violations) to `observers` as they happen.
    ///
    /// With [`ExplorerOptions::threads`] at its default of 1 this is
    /// the serial worklist engine; above 1 the frontier is worked by
    /// the work-stealing pool (see [`crate::parallel`]) with the same
    /// verdict and witness-set semantics; 0 is adaptive — serial until
    /// the frontier is wide enough to feed one worker per core, then
    /// the frontier, visited set, and partial stats are handed to the
    /// pool mid-exploration.
    pub fn explore_observed(
        &self,
        initial: SymState,
        observers: &mut [BoxObserver],
    ) -> Report {
        match self.options.threads {
            1 => match self.explore_serial_core(initial, observers, None) {
                SerialOutcome::Done(report) => report,
                SerialOutcome::Spill(..) => unreachable!("no spill threshold given"),
            },
            0 => {
                let cores = self.options.effective_threads();
                if cores <= 1 {
                    return match self.explore_serial_core(initial, observers, None) {
                        SerialOutcome::Done(report) => report,
                        SerialOutcome::Spill(..) => unreachable!("no spill threshold given"),
                    };
                }
                // Serial until the frontier could feed every core a
                // few states each; small programs finish before then
                // and never pay for the pool.
                let spill_at = (cores * 4).max(SPILL_WIDTH_MIN);
                match self.explore_serial_core(initial, observers, Some(spill_at)) {
                    SerialOutcome::Done(report) => report,
                    SerialOutcome::Spill(seed) => {
                        crate::parallel::explore_parallel(self, seed, observers, cores)
                    }
                }
            }
            threads => crate::parallel::explore_parallel(
                self,
                crate::parallel::ParallelSeed::fresh(self, initial),
                observers,
                threads,
            ),
        }
    }

    /// The serial worklist engine. With `spill_at` set (the adaptive
    /// path), the loop stops as soon as the frontier reaches that
    /// width and returns everything a parallel continuation needs;
    /// stats accumulated so far travel along in the seed's base report,
    /// and the parallel merge adds its own on top.
    fn explore_serial_core(
        &self,
        initial: SymState,
        observers: &mut [BoxObserver],
        spill_at: Option<usize>,
    ) -> SerialOutcome {
        let memo_before = sct_symx::solver_memo_stats();
        let mut sink = DirectSink(observers);
        let mut report = Report::default();
        report.stats.strategy = self.options.strategy.name();
        let dedup = self.options.dedup_states;
        let mut visited: std::collections::HashSet<u128> = std::collections::HashSet::new();
        if dedup {
            visited.insert(initial.fingerprint());
        }
        let mut frontier = self.options.strategy.frontier();
        frontier.push(initial);
        let mut spilled = false;
        let deadline = self.deadline_from_now();
        let mut expand_timer = ExpandTimer::start();
        while let Some(state) = frontier.pop() {
            let deadline_hit = deadline.is_some_and(|d| Instant::now() >= d);
            if deadline_hit {
                report.stats.deadline_exceeded = true;
            }
            if report.stats.states >= self.options.max_states
                || report.violations.len() >= self.options.max_violations
                || self.is_cancelled()
                || deadline_hit
            {
                report.stats.truncated = true;
                break;
            }
            report.stats.states += 1;
            sink.emit(Event::StateExpanded {
                states: report.stats.states,
                frontier: frontier.len(),
                rob_depth: state.rob.len(),
            });
            let conts = self.continuations(&state);
            if conts.is_empty() {
                report.stats.schedules += 1;
                expand_timer.stamp();
                continue;
            }
            // Each continuation but the last steps a clone; the last one
            // takes the state itself.
            let sources = std::iter::repeat_n(state, conts.len());
            for (cont, state) in conts.iter().zip(sources) {
                for succ in self.apply(state, cont, &mut report, &mut sink) {
                    if dedup && !visited.insert(succ.fingerprint()) {
                        report.stats.deduped += 1;
                        continue;
                    }
                    frontier.push(succ);
                }
            }
            report.stats.frontier_peak = report.stats.frontier_peak.max(frontier.len());
            expand_timer.stamp();
            if spill_at.is_some_and(|w| frontier.len() >= w) {
                spilled = true;
                break;
            }
        }
        let memo_after = sct_symx::solver_memo_stats();
        report.stats.solver_queries = (memo_after.queries - memo_before.queries) as usize;
        report.stats.solver_memo_hits = (memo_after.hits - memo_before.hits) as usize;
        report.stats.solver_memo_misses = (memo_after.misses - memo_before.misses) as usize;
        report.stats.solver_memo_evicted = (memo_after.evicted - memo_before.evicted) as usize;
        if !spilled {
            return SerialOutcome::Done(report);
        }
        let mut initials = Vec::with_capacity(frontier.len());
        while let Some(state) = frontier.pop() {
            initials.push(state);
        }
        SerialOutcome::Spill(crate::parallel::ParallelSeed {
            initials,
            visited,
            base: report,
            deadline,
        })
    }

    /// Apply a continuation, checking each step's new observations for
    /// secret labels. Generic over the event sink so the serial and
    /// parallel engines share one implementation of the step/violation
    /// plumbing. It consumes `state`: each directive steps its sources
    /// by value ([`SymMachine::step`]), so a state is copied only where
    /// the machine forks, and a caller exploring several continuations
    /// from one state passes a clone to all but the last.
    pub(crate) fn apply<S: EventSink>(
        &self,
        state: SymState,
        cont: &Cont,
        report: &mut Report,
        sink: &mut S,
    ) -> Vec<SymState> {
        let mut frontier = vec![state];
        let directives = cont.directives();
        for (k, &d) in directives.iter().enumerate() {
            let last = k + 1 == directives.len();
            let mut next = Vec::new();
            for st in frontier {
                let depth = st.depth();
                let succs = match self.machine.step(st, d) {
                    Ok(s) => s,
                    // A continuation that turns out inapplicable (e.g. a
                    // forwarding variant whose store/load interaction is
                    // blocked) simply contributes no schedules.
                    Err(_) => continue,
                };
                for succ in succs {
                    report.stats.steps += 1;
                    debug_assert_eq!(succ.depth(), depth + 1, "one recorded step");
                    let fresh = succ.step_observations();
                    if last {
                        let rolled_back = fresh.contains(&Observation::Rollback);
                        match cont {
                            Cont::SeqNoRollback(_) if rolled_back => continue,
                            Cont::SeqRollbackOnly(_) if !rolled_back => continue,
                            _ => {}
                        }
                    }
                    // Scan only this step's fresh observations for leaks.
                    if let Some(p) = fresh.iter().position(|o| o.is_secret()) {
                        let observation = fresh[p];
                        let unflagged = fresh.len() - p - 1;
                        let mut trace = succ.trace();
                        trace.truncate(trace.len() - unflagged);
                        let violation = Violation {
                            observation,
                            schedule: succ.schedule(),
                            trace,
                            pc: succ.pc,
                            constraints: succ
                                .constraints
                                .iter()
                                .map(|c| c.to_string())
                                .collect(),
                        };
                        report
                            .stats
                            .first_witness_states
                            .get_or_insert(report.stats.states);
                        report
                            .stats
                            .first_witness_depth
                            .get_or_insert(violation.schedule.len());
                        sink.emit(Event::ViolationFound {
                            violation: &violation,
                            states: report.stats.states,
                        });
                        report.violations.push(violation);
                        if self.options.stop_path_on_violation {
                            report.stats.schedules += 1;
                            continue;
                        }
                    }
                    next.push(succ);
                }
            }
            frontier = next;
        }
        frontier
    }

    /// The Definition B.18 continuations available in `state`.
    ///
    /// While the buffer holds a fence, nothing younger may execute until
    /// it retires, so fetching past it would only reach continuations
    /// that fail with `FenceBlocked` and drop the path. The path drains
    /// up to and through the fence instead; fetch steps emit no
    /// observation, so delaying them loses none. Since nothing is ever
    /// fetched past a fence, an in-flight fence is the youngest entry,
    /// and checking that one entry suffices.
    pub(crate) fn continuations(&self, state: &SymState) -> Vec<Cont> {
        let fence_in_flight = state
            .rob
            .max()
            .and_then(|youngest| state.rob.get(youngest))
            .is_some_and(SymTransient::is_fence);
        debug_assert_eq!(
            fence_in_flight,
            state.rob.iter().any(|(_, t)| t.is_fence()),
            "an in-flight fence must be the youngest entry"
        );
        let fetchable = !fence_in_flight && self.machine.program.fetch(state.pc).is_some();
        if fetchable {
            let instr = self.machine.program.fetch(state.pc).expect("checked");
            let needed = match instr {
                Instr::Call { .. } => 3,
                Instr::Ret => 4,
                _ => 1,
            };
            if state.rob.len() + needed <= self.options.spec_bound {
                return self.fetch_continuations(state, instr);
            }
        }
        self.forced_continuations(state)
    }

    /// Indices of in-flight stores with pending addresses (forwarding
    /// candidates for a load about to execute).
    fn pending_addr_stores(&self, state: &SymState) -> Vec<usize> {
        state
            .rob
            .iter()
            .filter_map(|(j, t)| match t {
                SymTransient::Store {
                    addr: SymStoreAddr::Pending(_),
                    ..
                } => Some(j),
                _ => None,
            })
            .collect()
    }

    /// Indices of in-flight stores with resolved data but *unresolved*
    /// addresses — the stores an aliasing predictor (§3.5) can forward
    /// from before anyone knows whether the addresses match.
    fn alias_candidate_stores(&self, state: &SymState) -> Vec<usize> {
        state
            .rob
            .iter()
            .filter_map(|(j, t)| match t {
                SymTransient::Store {
                    addr: SymStoreAddr::Pending(_),
                    ..
                } if t.store_resolved_data().is_some() => Some(j),
                _ => None,
            })
            .collect()
    }

    fn fetch_continuations(&self, state: &SymState, instr: &Instr) -> Vec<Cont> {
        let i = state.rob.next_index();
        match instr {
            Instr::Op { .. } => vec![Cont::Seq(vec![Directive::Fetch, Directive::Execute(i)])],
            Instr::Fence { .. } => vec![Cont::Seq(vec![Directive::Fetch])],
            Instr::Load { .. } => {
                let mut out = vec![Cont::Seq(vec![Directive::Fetch, Directive::Execute(i)])];
                if self.options.forwarding_hazards {
                    for j in self.pending_addr_stores(state) {
                        out.push(Cont::Seq(vec![
                            Directive::Fetch,
                            Directive::ExecuteAddr(j),
                            Directive::Execute(i),
                        ]));
                    }
                }
                if self.options.alias_prediction {
                    // Aliasing predictor (§3.5): speculatively forward
                    // from each data-resolved store whose address is
                    // still unknown, then resolve the load (optimistic:
                    // the unresolved store address is assumed to match).
                    for j in self.alias_candidate_stores(state) {
                        out.push(Cont::Seq(vec![
                            Directive::Fetch,
                            Directive::ExecuteFwd(i, j),
                            Directive::Execute(i),
                        ]));
                    }
                }
                out
            }
            Instr::Store { .. } => {
                let immediate = Cont::Seq(vec![
                    Directive::Fetch,
                    Directive::ExecuteValue(i),
                    Directive::ExecuteAddr(i),
                ]);
                if self.options.forwarding_hazards {
                    vec![
                        Cont::Seq(vec![Directive::Fetch, Directive::ExecuteValue(i)]),
                        immediate,
                    ]
                } else {
                    vec![immediate]
                }
            }
            Instr::Br { .. } => vec![
                // Correct guess, executed immediately (keep non-rollback).
                Cont::SeqNoRollback(vec![
                    Directive::FetchBranch(true),
                    Directive::Execute(i),
                ]),
                Cont::SeqNoRollback(vec![
                    Directive::FetchBranch(false),
                    Directive::Execute(i),
                ]),
                // Wrong guess, executed as late as possible.
                Cont::Seq(vec![Directive::FetchBranch(true)]),
                Cont::Seq(vec![Directive::FetchBranch(false)]),
            ],
            Instr::Jmpi { .. } => {
                // The paper's Pitchfork follows the correct
                // indirect-jump target only (§4); with
                // `jmpi_mistraining` we additionally speculate to every
                // program point, executing the jump as late as possible
                // (the rollback-only pattern, like wrong branch guesses).
                let mut out = Vec::new();
                let correct = self.peek_jmpi_target(state);
                if let Some(target) = correct {
                    out.push(Cont::Seq(vec![
                        Directive::FetchJump(target),
                        Directive::Execute(i),
                    ]));
                }
                if self.options.jmpi_mistraining {
                    out.extend(
                        self.machine
                            .program
                            .iter()
                            .map(|(n, _)| n)
                            .filter(|&n| Some(n) != correct)
                            .take(self.options.jmpi_target_cap)
                            .map(|n| Cont::Seq(vec![Directive::FetchJump(n)])),
                    );
                }
                out
            }
            Instr::Call { .. } => {
                // Marker i, rsp-op i+1, return-address store i+2.
                let base = vec![
                    Directive::Fetch,
                    Directive::Execute(i + 1),
                    Directive::ExecuteValue(i + 2),
                ];
                let mut immediate = base.clone();
                immediate.push(Directive::ExecuteAddr(i + 2));
                if self.options.forwarding_hazards {
                    vec![Cont::Seq(base), Cont::Seq(immediate)]
                } else {
                    vec![Cont::Seq(immediate)]
                }
            }
            Instr::Ret => {
                if state.rsb.top().is_none() {
                    // Pitchfork does not model RSB underflow (§4).
                    return vec![];
                }
                // Marker i, ret-addr load i+1, rsp-op i+2, jmpi i+3.
                let mut variants: Vec<Vec<Directive>> =
                    vec![vec![Directive::Execute(i + 1)]];
                if self.options.forwarding_hazards {
                    for j in self.pending_addr_stores(state) {
                        variants.push(vec![
                            Directive::ExecuteAddr(j),
                            Directive::Execute(i + 1),
                        ]);
                    }
                }
                variants
                    .into_iter()
                    .map(|mid| {
                        let mut seq = vec![Directive::Fetch];
                        seq.extend(mid);
                        seq.push(Directive::Execute(i + 2));
                        seq.push(Directive::Execute(i + 3));
                        Cont::Seq(seq)
                    })
                    .collect()
            }
        }
    }

    /// Forced progress at the head of a full (or starved) buffer.
    fn forced_continuations(&self, state: &SymState) -> Vec<Cont> {
        let Some(min) = state.rob.min() else {
            return vec![]; // terminal: empty buffer, nothing to fetch
        };
        let head = state.rob.get(min).expect("min present");
        match head {
            // Delayed wrong-guess branch: rollback now (and only now).
            SymTransient::Br { .. } => {
                vec![Cont::SeqRollbackOnly(vec![Directive::Execute(min)])]
            }
            // Delayed mistrained indirect jump: resolve it now; the
            // rollback redirects to the architectural target.
            SymTransient::Jmpi { .. } => vec![Cont::Seq(vec![Directive::Execute(min)])],
            // Delayed store address (v4 mode): resolve, possibly hazard.
            SymTransient::Store {
                addr: SymStoreAddr::Pending(_),
                ..
            } => vec![Cont::Seq(vec![Directive::ExecuteAddr(min)])],
            // Call marker whose return-address store delayed its address.
            SymTransient::Call => {
                match state.rob.get(min + 2) {
                    Some(SymTransient::Store {
                        addr: SymStoreAddr::Pending(_),
                        ..
                    }) => vec![Cont::Seq(vec![Directive::ExecuteAddr(min + 2)])],
                    _ => vec![Cont::Seq(vec![Directive::Retire])],
                }
            }
            _ => vec![Cont::Seq(vec![Directive::Retire])],
        }
    }

    /// Resolve and concretize the indirect-jump target on a scratch
    /// state (the real fetch/execute repeats the concretization, which
    /// is deterministic).
    fn peek_jmpi_target(&self, state: &SymState) -> Option<u64> {
        let Some(Instr::Jmpi { args }) = self.machine.program.fetch(state.pc) else {
            return None;
        };
        let mut scratch = state.clone();
        let i = scratch.rob.next_index();
        scratch.rob.push(SymTransient::Jmpi {
            args: args.clone(),
            guess: 0,
        });
        let succs = self.machine.step(scratch, Directive::Execute(i)).ok()?;
        let succ = succs.first()?;
        match succ.rob.get(i) {
            Some(SymTransient::Jump { target }) => Some(*target),
            _ => {
                // Mispredicted against the dummy guess 0: the jump was
                // re-pushed after a rollback; read the redirect target.
                Some(succ.pc)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::examples::fig1;

    #[test]
    fn explorer_finds_spectre_v1_in_fig1() {
        let (p, cfg) = fig1();
        let explorer = Explorer::new(&p, ExplorerOptions::default());
        let report = explorer.explore(SymState::from_config(&cfg));
        assert!(report.has_violations(), "{report}");
        // The witness is the secret-address read of the second load.
        let v = &report.violations[0];
        assert!(v.observation.is_secret());
        assert!(!report.stats.truncated);
    }

    #[test]
    fn explorer_respects_tiny_bound() {
        // With a speculation bound of 1 the mispredicted path cannot
        // fetch the leaking loads: no violation is reachable.
        let (p, cfg) = fig1();
        let explorer = Explorer::new(
            &p,
            ExplorerOptions {
                spec_bound: 1,
                ..Default::default()
            },
        );
        let report = explorer.explore(SymState::from_config(&cfg));
        assert!(!report.has_violations(), "{report}");
    }

    #[test]
    fn bound_three_suffices_for_fig1() {
        let (p, cfg) = fig1();
        let explorer = Explorer::new(
            &p,
            ExplorerOptions {
                spec_bound: 3,
                ..Default::default()
            },
        );
        let report = explorer.explore(SymState::from_config(&cfg));
        assert!(report.has_violations());
    }

    #[test]
    fn schedule_counts_grow_with_bound() {
        let (p, cfg) = fig1();
        let count = |bound| {
            let explorer = Explorer::new(
                &p,
                ExplorerOptions {
                    spec_bound: bound,
                    stop_path_on_violation: false,
                    max_violations: usize::MAX,
                    ..Default::default()
                },
            );
            let r = explorer.explore(SymState::from_config(&cfg));
            r.stats.states
        };
        assert!(count(4) >= count(2), "more speculation, more states");
    }
}
