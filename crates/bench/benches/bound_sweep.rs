//! Bench: exploration cost versus speculation bound, with and without
//! forwarding-hazard detection — the tractability observation of §4.2
//! (bound 250 feasible without forwarding hazards, only ~20 with).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pitchfork::{AnalysisSession, DetectorOptions};
use std::hint::black_box;

fn bench_bound_sweep(c: &mut Criterion) {
    let study = sct_casestudies::ssl3::fact_variant();
    let mut group = c.benchmark_group("bound_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for bound in [4usize, 8, 16, 32, 64] {
        group.bench_with_input(
            BenchmarkId::new("v1_mode", bound),
            &bound,
            |b, &bound| {
                let mut det = AnalysisSession::with_options(DetectorOptions::v1_mode(bound));
                b.iter(|| black_box(det.analyze(&study.program, &study.config).stats.states))
            },
        );
    }
    for bound in [4usize, 8, 12, 16, 20] {
        group.bench_with_input(
            BenchmarkId::new("v4_mode", bound),
            &bound,
            |b, &bound| {
                let mut det = AnalysisSession::with_options(DetectorOptions::v4_mode(bound));
                b.iter(|| black_box(det.analyze(&study.program, &study.config).stats.states))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bound_sweep);
criterion_main!(benches);
