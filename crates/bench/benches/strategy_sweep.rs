//! Bench: frontier-order A/B comparison on the Kocher gadgets.
//!
//! Every `SearchStrategy` reaches the same verdicts (the corpus
//! equivalence tests pin that); what differs — and what this bench
//! measures — is **states-to-first-witness**: how much of the schedule
//! space each order burns before producing a violation witness. Under
//! a tight state budget that number decides whether the tool finds the
//! bug at all.
//!
//! Besides the criterion timings, the bench writes
//! `BENCH_strategy_sweep.json`: per strategy, the per-gadget
//! first-witness state count and schedule depth, plus aggregate totals.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitchfork::{AnalysisSession, BatchReport, StrategyKind};
use sct_litmus::{harness, kocher};
use std::fmt::Write as _;
use std::hint::black_box;

/// The Kocher suite as batch items (per-case bounds preserved).
fn kocher_items() -> Vec<pitchfork::BatchItem> {
    harness::batch_items(&kocher::all())
}

fn pass(items: &[pitchfork::BatchItem], strategy: StrategyKind) -> BatchReport {
    AnalysisSession::builder()
        .v1_mode(16)
        .strategy(strategy)
        .build()
        .expect("uncached session")
        .run_batch(items.to_vec())
}

fn bench_strategy_sweep(c: &mut Criterion) {
    let items = kocher_items();
    let mut group = c.benchmark_group("strategy_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for strategy in StrategyKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("kocher_v1", strategy.name()),
            &strategy,
            |b, &s| b.iter(|| black_box(pass(&items, s).totals.states)),
        );
    }
    group.finish();

    write_sweep_stats(&items);
}

/// One representative pass per strategy, recording the A/B numbers.
fn write_sweep_stats(items: &[pitchfork::BatchItem]) {
    let mut json = String::from("{\n  \"workload\": \"kocher gadgets, v1 mode\",\n  \"strategies\": [\n");
    let mut first_strategy = true;
    for strategy in StrategyKind::ALL {
        let report = pass(items, strategy);
        let witnesses = report.first_witnesses();
        let mean_states = if witnesses.is_empty() {
            0.0
        } else {
            witnesses.iter().map(|(_, s, _)| *s as f64).sum::<f64>() / witnesses.len() as f64
        };
        let sep = if first_strategy { "" } else { ",\n" };
        first_strategy = false;
        let _ = write!(
            json,
            "{sep}    {{\"strategy\": \"{}\", \"total_states\": {}, \"flagged\": {}, \
             \"mean_states_to_first_witness\": {mean_states:.1}, \"cases\": [",
            report.strategy, report.totals.states, report.totals.flagged,
        );
        let mut first_case = true;
        for (name, states, depth) in witnesses {
            let sep = if first_case { "" } else { ", " };
            first_case = false;
            let _ = write!(
                json,
                "{sep}{{\"name\": \"{name}\", \"states_to_first_witness\": {states}, \
                 \"witness_depth\": {depth}}}"
            );
        }
        let _ = write!(json, "]}}");
    }
    json.push_str("\n  ]\n}\n");
    let path = criterion::Criterion::output_dir().join("BENCH_strategy_sweep.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

criterion_group!(benches, bench_strategy_sweep);
criterion_main!(benches);
