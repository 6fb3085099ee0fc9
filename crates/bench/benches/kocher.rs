//! Bench: detection time over the Kocher-style litmus suites (§4.2's
//! sanity-check corpus), per case and for the whole corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use pitchfork::{AnalysisSession, DetectorOptions};
use std::hint::black_box;

fn bench_kocher(c: &mut Criterion) {
    let mut group = c.benchmark_group("kocher");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for case in sct_litmus::kocher::all() {
        group.bench_function(case.name, |b| {
            let mut detector = AnalysisSession::with_options(DetectorOptions::v1_mode(case.bound));
            b.iter(|| black_box(detector.analyze(&case.program, &case.config).has_violations()))
        });
    }
    group.bench_function("whole_corpus_v1_and_v4", |b| {
        b.iter(|| {
            let mut flagged = 0usize;
            for case in sct_litmus::all_cases() {
                let v1 = AnalysisSession::with_options(DetectorOptions::v1_mode(case.bound))
                    .analyze(&case.program, &case.config);
                let v4 = AnalysisSession::with_options(DetectorOptions::v4_mode(case.bound))
                    .analyze(&case.program, &case.config);
                flagged += usize::from(v1.has_violations() || v4.has_violations());
            }
            black_box(flagged)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kocher);
criterion_main!(benches);
