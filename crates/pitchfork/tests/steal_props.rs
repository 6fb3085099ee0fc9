//! Property test: the work-stealing engine never changes results.
//!
//! Random `proggen` programs, random worker counts, random strategies,
//! and — the point of the exercise — random `steal_seed` values that
//! rotate each worker's victim order, hammering the steal/terminate
//! races from different interleavings than the fixed-seed suites ever
//! reach. Whatever the timing, the parallel engine must reproduce the
//! serial engine's verdict, witness multiset, and exact distinct-state
//! and step counts (the dedup argument: with deduplication on and no
//! truncation, every expansion order expands the same state set).
//!
//! The witness multiset here is keyed by `(pc, observation)` — the
//! fingerprint-determined parts of a violation. The *schedule prefix*
//! naming a witness is deliberately excluded: when two distinct
//! schedule prefixes reconverge on one fingerprint whose future leaks,
//! which prefix the report names depends on which duplicate won the
//! visited-set insert — deterministic serially, a race in parallel.
//! `proggen` programs hit such reconvergent witnesses routinely, and
//! so do litmus cases such as `kocher_15`, which is why the corpus
//! suite pins the same multiset rather than full schedules.
//!
//! Small random programs are the adversarial case for *termination*,
//! not throughput: workers go hungry almost immediately, so the run
//! is dominated by steal sweeps, donation races, and the final
//! in-flight-counter countdown.

use pitchfork::{AnalysisSession, DetectorOptions, Report, StrategyKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::reg::Reg;
use sct_core::{Config, Program};

const BOUND: usize = 10;

fn generate(seed: u64) -> (Program, Config, Vec<Reg>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let opts = ProgGenOptions::default();
    let program = random_program(&mut rng, &opts);
    let config = random_config(&mut rng, &opts);
    let symbolic: Vec<Reg> = (0..opts.regs).map(Reg::gpr).collect();
    (program, config, symbolic)
}

fn analyze(
    program: &Program,
    config: &Config,
    symbolic: &[Reg],
    strategy: StrategyKind,
    threads: usize,
    steal_seed: u64,
) -> Report {
    let mut options = DetectorOptions::v1_mode(BOUND).strategy(strategy);
    options.explorer.threads = threads;
    options.explorer.steal_seed = steal_seed;
    // Equality is only promised for un-truncated runs (a truncated
    // prefix is timing-dependent by contract), so lift the violation
    // cap — leaky proggen programs routinely exceed the default 64.
    options.explorer.max_violations = usize::MAX;
    AnalysisSession::with_options(options).analyze_symbolic(program, config, symbolic)
}

/// The order-insensitive witness multiset two equivalent runs must
/// share: every `(pc, observation)` pair with its multiplicity,
/// sorted. (See the module docs for why schedules are excluded.)
fn witness_multiset(r: &Report) -> Vec<(u64, String)> {
    let mut keys: Vec<(u64, String)> = r
        .violations
        .iter()
        .map(|v| (v.pc, v.observation.to_string()))
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stealing_reproduces_serial_under_random_victim_order(
        (program_seed, threads, steal_seed, strategy_idx) in
            (any::<u64>(), 2usize..9, any::<u64>(), 0usize..StrategyKind::ALL.len()),
    ) {
        let strategy = StrategyKind::ALL[strategy_idx];
        let (program, config, symbolic) = generate(program_seed);
        let serial = analyze(&program, &config, &symbolic, strategy, 1, 0);
        prop_assert!(
            !serial.stats.truncated,
            "proggen program outgrew the budget; shrink ProgGenOptions"
        );
        let par = analyze(&program, &config, &symbolic, strategy, threads, steal_seed);
        prop_assert_eq!(par.verdict(), serial.verdict());
        prop_assert_eq!(par.stats.states, serial.stats.states, "distinct-state set");
        prop_assert_eq!(par.stats.steps, serial.stats.steps);
        prop_assert_eq!(witness_multiset(&par), witness_multiset(&serial));

        // Adaptive mode decides serial-vs-spill on its own; whatever it
        // picked must agree too.
        let adaptive = analyze(&program, &config, &symbolic, strategy, 0, steal_seed);
        prop_assert_eq!(adaptive.verdict(), serial.verdict());
        prop_assert_eq!(adaptive.stats.states, serial.stats.states);
        prop_assert_eq!(witness_multiset(&adaptive), witness_multiset(&serial));
    }

    /// Two runs with *different* steal seeds agree with each other on
    /// everything timing-invariant — the seed rotates victim order and
    /// nothing else.
    #[test]
    fn steal_seed_never_reaches_the_report(
        (program_seed, threads, seed_a, seed_b) in
            (any::<u64>(), 2usize..5, any::<u64>(), any::<u64>()),
    ) {
        let (program, config, symbolic) = generate(program_seed);
        let strategy = StrategyKind::Lifo;
        let a = analyze(&program, &config, &symbolic, strategy, threads, seed_a);
        let b = analyze(&program, &config, &symbolic, strategy, threads, seed_b);
        prop_assert!(!a.stats.truncated, "program outgrew the budget");
        prop_assert_eq!(a.verdict(), b.verdict());
        prop_assert_eq!(a.stats.states, b.stats.states);
        prop_assert_eq!(a.stats.steps, b.stats.steps);
        prop_assert_eq!(a.flagged_pcs(), b.flagged_pcs());
        prop_assert_eq!(witness_multiset(&a), witness_multiset(&b));
    }
}
