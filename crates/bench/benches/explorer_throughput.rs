//! Bench: worklist-engine throughput (states/sec) and explored-state
//! counts on fig1 and the whole litmus corpus at the paper's bounds
//! {20, 50, 250}, with deduplication on and off.
//!
//! Writes two provenance-stamped records, in this order (each appends
//! its line to `audit.jsonl`):
//!
//! * `BENCH_explorer_dedup.json` — the state counts both ways,
//!   quantifying exactly how much the fingerprint visited-set prunes,
//!   plus an interleaved on/off timing of the corpus passes that says
//!   whether pruning pays for its fingerprints;
//! * `BENCH_telemetry_overhead.json` — an interleaved A/B of the same
//!   cold symbolic corpus pass with the `sct-telemetry` registry
//!   disabled and enabled, gating the instrumentation's overhead (the
//!   CI metrics-smoke job asserts the upper bound of the median
//!   overhead's 95% confidence interval stays under 3%).

use pitchfork::{AnalysisSession, DetectorOptions, Report};
use sct_core::examples::fig1;
use sct_litmus::{all_cases, harness};
use std::fmt::Write as _;
use std::hint::black_box;

const BOUNDS: [usize; 3] = [20, 50, 250];

fn options(bound: usize, v4: bool, dedup: bool) -> DetectorOptions {
    let mut o = if v4 {
        DetectorOptions::v4_mode(bound)
    } else {
        DetectorOptions::v1_mode(bound)
    }
    .dedup(dedup);
    o.explorer.max_states = 200_000;
    o
}

/// Pre-parsed corpus items, so timed iterations measure exploration
/// only (cloning items is cheap; parsing `.sasm` fixtures is not).
fn corpus_items(bound: usize) -> Vec<pitchfork::BatchItem> {
    let cases = all_cases();
    let mut items = harness::batch_items(&cases);
    // One corpus-wide bound so the sweep actually exercises it.
    for item in &mut items {
        item.bound = Some(bound);
    }
    items
}

fn corpus_pass(items: &[pitchfork::BatchItem], bound: usize, v4: bool, dedup: bool) -> pitchfork::BatchReport {
    AnalysisSession::with_options(options(bound, v4, dedup)).run_batch(items.to_vec())
}

fn fig1_pass(bound: usize, v4: bool, dedup: bool) -> Report {
    let (p, cfg) = fig1();
    AnalysisSession::with_options(options(bound, v4, dedup)).analyze(&p, &cfg)
}

fn main() {
    // `cargo bench` passes harness flags; a plain main ignores them.
    write_dedup_counts();
    write_telemetry_overhead();
}

/// Interleaved on/off pairs per corpus workload in the dedup timing.
const DEDUP_PAIRS: usize = 60;
/// The bound of the dedup timing (the paper's v4 bound).
const DEDUP_TIMING_BOUND: usize = 20;

/// Median pass times in ms with dedup on and off over [`DEDUP_PAIRS`]
/// interleaved pairs, and how many pairs dedup-on won. Each pair
/// alternates which arm runs first, so neither arm always runs warm.
fn time_dedup_pairs(items: &[pitchfork::BatchItem], v4: bool) -> (f64, f64, usize) {
    let time = |dedup: bool| {
        let start = std::time::Instant::now();
        black_box(corpus_pass(items, DEDUP_TIMING_BOUND, v4, dedup).totals.states);
        start.elapsed().as_secs_f64() * 1e3
    };
    // One warm-up pass per arm.
    time(true);
    time(false);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for k in 0..DEDUP_PAIRS {
        if k % 2 == 0 {
            on.push(time(true));
            off.push(time(false));
        } else {
            off.push(time(false));
            on.push(time(true));
        }
    }
    let wins = on.iter().zip(&off).filter(|(a, b)| a < b).count();
    (median(&mut on), median(&mut off), wins)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One representative run per configuration, recording explored-state
/// counts with dedup on/off (the numbers the timings are explained by),
/// the interleaved on/off timing of the corpus passes at the v4 bound,
/// and the run's provenance manifest.
fn write_dedup_counts() {
    let manifest = sct_bench::manifest::RunManifest::capture(
        &format!(
            "explorer_dedup bounds={BOUNDS:?} timing_bound={DEDUP_TIMING_BOUND} pairs={DEDUP_PAIRS}"
        ),
        0,
        &[1],
    );
    let mut json = String::from("{\n");
    json.push_str(&manifest.json_fields("  "));
    json.push_str("  \"timing\": [\n");
    let timing_items = corpus_items(DEDUP_TIMING_BOUND);
    for (k, v4) in [false, true].into_iter().enumerate() {
        let name = if v4 { "corpus_v4" } else { "corpus_v1" };
        let (on_ms, off_ms, wins) = time_dedup_pairs(&timing_items, v4);
        let sep = if k == 0 { "" } else { ",\n" };
        let _ = write!(
            json,
            "{sep}    {{\"workload\": \"{name}\", \"bound\": {DEDUP_TIMING_BOUND}, \
             \"pairs\": {DEDUP_PAIRS}, \"median_ms_dedup\": {on_ms:.4}, \
             \"median_ms_nodedup\": {off_ms:.4}, \"dedup_faster_pairs\": {wins}}}"
        );
        println!(
            "dedup timing {name}: on {on_ms:.3} ms vs off {off_ms:.3} ms, on faster in {wins}/{DEDUP_PAIRS} pairs"
        );
    }
    json.push_str("\n  ],\n  \"workloads\": [\n");
    let mut first = true;
    let mut emit = |name: &str, bound: usize, on: (usize, usize, bool), off: (usize, bool)| {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let _ = write!(
            json,
            "{sep}    {{\"workload\": \"{name}\", \"bound\": {bound}, \
             \"states_dedup\": {}, \"pruned\": {}, \"truncated_dedup\": {}, \
             \"states_nodedup\": {}, \"truncated_nodedup\": {}}}",
            on.0, on.1, on.2, off.0, off.1
        );
    };
    for bound in BOUNDS {
        let items = corpus_items(bound);
        for v4 in [false, true] {
            let name = if v4 { "corpus_v4" } else { "corpus_v1" };
            let on = corpus_pass(&items, bound, v4, true);
            let off = corpus_pass(&items, bound, v4, false);
            emit(
                name,
                bound,
                (on.totals.states, on.totals.deduped, on.totals.truncated > 0),
                (off.totals.states, off.totals.truncated > 0),
            );
            let fig_on = fig1_pass(bound, v4, true);
            let fig_off = fig1_pass(bound, v4, false);
            emit(
                if v4 { "fig1_v4" } else { "fig1_v1" },
                bound,
                (
                    fig_on.stats.states,
                    fig_on.stats.deduped,
                    fig_on.stats.truncated,
                ),
                (fig_off.stats.states, fig_off.stats.truncated),
            );
        }
    }
    json.push_str("\n  ]\n}\n");
    let dir = sct_bench::manifest::output_dir();
    let path = dir.join("BENCH_explorer_dedup.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    let _ = manifest.append_audit(&dir, "BENCH_explorer_dedup.json");
}

/// Interleaved off/on pairs in the telemetry overhead gate.
const TELEMETRY_PAIRS: usize = 120;
/// The shortest pass the telemetry overhead gate times, in ms.
const TELEMETRY_MIN_PASS_MS: f64 = 50.0;

/// The order-statistic 95% confidence interval for the median of
/// `sorted` (ascending): `(sorted[k], sorted[n - 1 - k])`, with the
/// normal approximation to the binomial rank `k + 1 = ⌊n/2 − 0.98√n⌋`.
fn median_ci95(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let k = (n / 2.0 - 0.98 * n.sqrt()).floor().max(1.0) as usize - 1;
    (sorted[k], sorted[sorted.len() - 1 - k])
}

/// A/B overhead gate for the telemetry instrumentation: the same cold
/// symbolic corpus batch (bound 20, dedup on, `ra` symbolized, arena
/// and solver memo retired untimed before each batch, so every batch
/// pays its solver misses) with the registry disabled and enabled.
/// Each of [`TELEMETRY_PAIRS`] pairs runs the two arms' batches
/// interleaved in on-off-off-on units, so drift in the host's speed
/// lands on both arms alike, until each arm's pass has taken at least
/// [`TELEMETRY_MIN_PASS_MS`]. The gate reads the 95% confidence
/// interval of the median per-pair overhead: the CI metrics-smoke job
/// asserts its upper bound stays under 3%.
fn write_telemetry_overhead() {
    const BOUND: usize = 20;
    let items: Vec<_> = corpus_items(BOUND)
        .into_iter()
        .map(|item| item.symbolize([sct_core::reg::names::RA]))
        .collect();
    let batch = |enabled: bool| {
        sct_symx::retire_arena();
        sct_symx::flush_thread_caches();
        sct_telemetry::set_enabled(enabled);
        let start = std::time::Instant::now();
        black_box(corpus_pass(&items, BOUND, false, true).totals.states);
        start.elapsed().as_secs_f64() * 1e3
    };
    let batch_states = corpus_pass(&items, BOUND, false, true).totals.states;
    let (mut off, mut on, mut overheads, mut batches) = (vec![], vec![], vec![], 0);
    for _ in 0..TELEMETRY_PAIRS {
        let (mut t_off, mut t_on) = (0.0, 0.0);
        while t_off < TELEMETRY_MIN_PASS_MS || t_on < TELEMETRY_MIN_PASS_MS {
            for enabled in [true, false, false, true] {
                let ms = batch(enabled);
                if enabled {
                    t_on += ms;
                } else {
                    t_off += ms;
                }
            }
            batches += 2;
        }
        off.push(t_off);
        on.push(t_on);
        overheads.push((t_on / t_off - 1.0) * 100.0);
    }
    sct_telemetry::set_enabled(true);
    sct_symx::flush_thread_telemetry();
    // States and rates per arm, over all its passes.
    let states = batch_states * batches;
    let rate_off = states as f64 * 1e3 / off.iter().sum::<f64>();
    let rate_on = states as f64 * 1e3 / on.iter().sum::<f64>();
    let (pass_ms_off, pass_ms_on) = (median(&mut off), median(&mut on));
    // `median` sorts in place, as `median_ci95` needs.
    let overhead_pct = median(&mut overheads);
    let (ci_lo, ci_hi) = median_ci95(&overheads);

    // The instrumented arm's own histograms, as the registry saw them.
    let hist = |name: &str| -> (u64, u64, u64) {
        sct_telemetry::global()
            .snapshot()
            .into_iter()
            .find(|m| m.name == name)
            .map(|m| (m.value, m.percentile_ns(0.50), m.percentile_ns(0.99)))
            .unwrap_or((0, 0, 0))
    };
    let (hit_n, hit_p50, hit_p99) = hist(sct_telemetry::names::SOLVER_CHECK_HIT);
    let (miss_n, miss_p50, miss_p99) = hist(sct_telemetry::names::SOLVER_CHECK_MISS);
    let (exp_n, exp_p50, exp_p99) = hist(sct_telemetry::names::STATE_EXPAND);

    let manifest = sct_bench::manifest::RunManifest::capture(
        &format!(
            "telemetry_overhead corpus_v1_symbolic bound={BOUND} pairs={TELEMETRY_PAIRS} min_pass_ms={TELEMETRY_MIN_PASS_MS}"
        ),
        0,
        &[1],
    );
    let mut json = String::from("{\n");
    json.push_str(&manifest.json_fields("  "));
    let _ = write!(
        json,
        "  \"workload\": \"corpus_v1_symbolic\",\n  \"bound\": {BOUND},\n  \"reps\": {TELEMETRY_PAIRS},\n  \
         \"states\": {states},\n  \
         \"pass_ms_off\": {pass_ms_off:.3},\n  \"pass_ms_on\": {pass_ms_on:.3},\n  \
         \"rate_off\": {rate_off:.1},\n  \"rate_on\": {rate_on:.1},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \"overhead_ci95_pct\": [{ci_lo:.2}, {ci_hi:.2}],\n  \
         \"within_3pct\": {},\n  \
         \"solver_check_hit\": {{\"count\": {hit_n}, \"p50_ns\": {hit_p50}, \"p99_ns\": {hit_p99}}},\n  \
         \"solver_check_miss\": {{\"count\": {miss_n}, \"p50_ns\": {miss_p50}, \"p99_ns\": {miss_p99}}},\n  \
         \"state_expand\": {{\"count\": {exp_n}, \"p50_ns\": {exp_p50}, \"p99_ns\": {exp_p99}}}\n}}\n",
        ci_hi < 3.0
    );
    let dir = sct_bench::manifest::output_dir();
    let path = dir.join("BENCH_telemetry_overhead.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    let _ = manifest.append_audit(&dir, "BENCH_telemetry_overhead.json");
    println!(
        "telemetry overhead: {overhead_pct:.2}% median, 95% CI [{ci_lo:.2}%, {ci_hi:.2}%] over {TELEMETRY_PAIRS} pairs of {pass_ms_off:.1} ms passes (off {rate_off:.0} states/s, on {rate_on:.0} states/s)"
    );
}
