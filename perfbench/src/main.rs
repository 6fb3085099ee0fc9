//! Benchmark-side tools for `run.py`.
//!
//! ```text
//! perfbench gen SEED COUNT DIR
//!     write COUNT proggen programs to DIR/gen_NNNN.sasm
//! perfbench seqleaks FILE...
//!     print the files whose sequential run on the reference machine
//!     makes a secret-labelled observation
//! perfbench manifest SEED CONFIG
//!     print the run's provenance (sct_bench::manifest::RunManifest)
//!     as one JSON object
//! perfbench trace SPANS symbolic_cold FILE...
//! perfbench trace SPANS table2_concrete
//! perfbench trace SPANS gate_replay BASELINE FILE...
//!     replay one pass of a workload through the library calls its CLI
//!     makes, print the CLI's verdict lines, and write the spans and
//!     counters of the pass to the JSON file SPANS
//! ```
//!
//! The traced pass times each layer from outside the program: a span
//! around every public call the CLI shell makes into a layer, with the
//! program's own counters (solver memo, arena, the `state_expand_ns` and
//! `solver_check_{hit,miss}_ns` histograms) read at the same
//! boundaries. Spans stay in memory until the pass ends.

use pitchfork::incremental::save_baseline;
use pitchfork::service::JobMode;
use pitchfork::{
    AnalysisSession, BaselineManifest, BatchItem, DetectorOptions, SessionBuilder, StrategyKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sct_core::proggen::{random_config, random_program, ProgGenOptions};
use sct_core::sched::sequential::run_sequential;
use sct_core::{Params, Reg};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Write `count` programs drawn from `proggen` at its default options
/// as `DIR/gen_NNNN.sasm`. One generator stream per seed, so the first
/// `k` programs of a larger draw equal a smaller draw of `k`.
fn gen(seed: u64, count: usize, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let opts = ProgGenOptions::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..count {
        let program = random_program(&mut rng, &opts);
        let config = random_config(&mut rng, &opts);
        let path = dir.join(format!("gen_{i:04}.sasm"));
        std::fs::write(&path, sct_asm::disassemble_with(&program, Some(&config)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The files among `files` whose sequential (non-speculative) run on the
/// reference machine, `sct_core::sched::sequential::run_sequential`, makes
/// a secret-labelled observation: a leak no speculation bound can hide, so
/// a `secure` verdict on any of them is wrong.
fn seqleaks(files: &[&str]) -> Result<(), String> {
    for file in files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let asm = sct_asm::assemble(&src).map_err(|e| format!("{file}: {e}"))?;
        let run = run_sequential(&asm.program, asm.config, Params::paper(), 10_000)
            .map_err(|e| format!("{file}: {e}"))?;
        if run.outcome.trace.first_secret().is_some() {
            println!("{file}");
        }
    }
    Ok(())
}

/// The program's own process-wide counters at one instant.
struct Counters {
    expand_ns: u64,
    expand_count: u64,
    hit_ns: u64,
    miss_ns: u64,
    queries: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Counters {
    fn read() -> Counters {
        use sct_telemetry::names;
        sct_symx::flush_thread_telemetry();
        let hist = |name: &str| sct_telemetry::histogram(name).snapshot(name);
        let (expand, hit, miss) = (
            hist(names::STATE_EXPAND),
            hist(names::SOLVER_CHECK_HIT),
            hist(names::SOLVER_CHECK_MISS),
        );
        let memo = sct_symx::solver_memo_stats();
        Counters {
            expand_ns: expand.sum_ns,
            expand_count: expand.value,
            hit_ns: hit.sum_ns,
            miss_ns: miss.sum_ns,
            queries: memo.queries,
            memo_hits: memo.hits,
            memo_misses: memo.misses,
        }
    }

    fn since(&self, before: &Counters) -> Vec<(&'static str, u64)> {
        vec![
            ("expand_ns", self.expand_ns - before.expand_ns),
            ("expand_count", self.expand_count - before.expand_count),
            ("hit_ns", self.hit_ns - before.hit_ns),
            ("miss_ns", self.miss_ns - before.miss_ns),
            ("queries", self.queries - before.queries),
            ("memo_hits", self.memo_hits - before.memo_hits),
            ("memo_misses", self.memo_misses - before.memo_misses),
        ]
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Spans of one pass, kept in memory and written once at the end. Every
/// layer span is a child of the `main` span, which runs from the start
/// of the traced pass to the write of the span file.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as the span `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.ns();
        let out = f();
        let end_ns = self.ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
        out
    }

    /// Time `f` as the span `name` and attach the deltas of the
    /// program's counters across it, plus the counts `extra` derives
    /// from its result.
    fn counted<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        extra: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> T {
        let before = Counters::read();
        let out = self.span(name, f);
        let span = self.spans.last_mut().expect("span just pushed");
        span.counts = Counters::read().since(&before);
        span.counts.extend(extra(&out));
        out
    }

    fn write(&self, path: &Path, totals: &[(&'static str, u64)]) -> Result<(), String> {
        let counts = |c: &[(&str, u64)]| {
            c.iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\"spans\": [\n");
        let main_end = self.ns();
        let _ = write!(
            out,
            "  {{\"name\": \"main\", \"start_ns\": 0, \"end_ns\": {main_end}, \"parent\": null, \"counts\": {{{}}}}}",
            counts(totals)
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": \"main\", \"counts\": {{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                counts(&s.counts)
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The register every workload symbolizes (`--symbolic ra`).
fn ra() -> Reg {
    Reg::parse("ra").expect("`ra` is a register name")
}

fn read_and_assemble(t: &mut Tracer, file: &str) -> Result<sct_asm::Assembled, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    t.span("sct_asm::assemble", || sct_asm::assemble(&src))
        .map_err(|e| format!("{file}: {e}"))
}

/// `pitchfork --symbolic ra FILE...`: one session, one `analyze` per
/// file, one report line per file. Returns the CLI's exit code.
fn trace_oneshot(t: &mut Tracer, files: &[String]) -> Result<u8, String> {
    let mut session = t
        .span("SessionBuilder::build", || {
            SessionBuilder::new()
                .bound(20)
                .strategy(StrategyKind::Lifo)
                .parallelism(1)
                .symbolize([ra()])
                .build()
        })
        .map_err(|e| e.to_string())?;
    let mut any_violation = false;
    for file in files {
        let asm = read_and_assemble(t, file)?;
        let report = t.counted(
            "AnalysisSession::analyze",
            || session.analyze(&asm.program, &asm.config),
            |r| {
                vec![
                    ("states", r.stats.states as u64),
                    ("steps", r.stats.steps as u64),
                    ("deduped", r.stats.deduped as u64),
                ]
            },
        );
        any_violation |= report.has_violations();
        println!(
            "{}",
            pitchfork::fleet::report_line(
                file,
                report.verdict(),
                report.stats.states,
                report.stats.schedules,
                report.stats.strategy,
                report.stats.truncated,
            )
        );
    }
    Ok(u8::from(any_violation))
}

/// `reproduce --table 2`: the eight builds in v1 mode at bound 250,
/// then in v4 mode at bound 20, through one session.
fn trace_table2(t: &mut Tracer) -> Result<u8, String> {
    use sct_casestudies::table2;
    let (v1_bound, v4_bound) = (250, 20);
    let mut session: AnalysisSession = t
        .span("SessionBuilder::build", || {
            SessionBuilder::new().v1_mode(v1_bound).build()
        })
        .map_err(|e| e.to_string())?;
    let batch_counts = |b: &pitchfork::BatchReport| {
        vec![
            ("states", b.totals.states as u64),
            ("steps", b.totals.steps as u64),
            ("deduped", b.totals.deduped as u64),
        ]
    };
    let items = table2::batch_items();
    let v1 = t.counted(
        "AnalysisSession::run_batch",
        || session.run_batch(items),
        batch_counts,
    );
    session.set_options(DetectorOptions::v4_mode(v4_bound));
    let items = table2::batch_items();
    let v4 = t.counted(
        "AnalysisSession::run_batch",
        || session.run_batch(items),
        batch_counts,
    );
    println!("{}", table2::from_batches(&v1, &v4, v1_bound, v4_bound));
    Ok(0)
}

/// `pitchfork ci-gate --baseline DIR --symbolic ra FILE...`: load the
/// manifest, warm-start from the baseline snapshot, replay or
/// re-analyse every entry, and promote the baseline on a pass.
fn trace_gate(t: &mut Tracer, dir: &Path, files: &[String]) -> Result<u8, String> {
    let baseline = t
        .span("BaselineManifest::load_dir", || {
            BaselineManifest::load_dir(dir)
        })
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache_path = dir.join(BaselineManifest::CACHE_NAME);
    let mut session = t
        .span("SessionBuilder::build", || {
            SessionBuilder::new()
                .options(JobMode::V1.options(20))
                .cache(&cache_path)
                .build()
        })
        .map_err(|e| format!("{}: {e}", cache_path.display()))?;
    let snapshot_bytes = session.cache_load().map_or(0, |s| s.bytes as u64);
    let mut items = Vec::new();
    for file in files {
        let asm = read_and_assemble(t, file)?;
        items.push(BatchItem::new(file.clone(), asm.program, asm.config).symbolize([ra()]));
    }
    let report = t.counted(
        "AnalysisSession::analyze_incremental",
        || session.analyze_incremental(items, &baseline),
        |r| {
            vec![
                ("states", r.states_explored as u64),
                ("reused", r.reused as u64),
                ("reanalyzed", r.reanalyzed as u64),
                ("snapshot_bytes", snapshot_bytes),
            ]
        },
    );
    for o in &report.outcomes {
        println!("{}", o.line);
    }
    eprintln!(
        "ci-gate: {} entries — {} replayed, {} re-analyzed; {} states explored, {} skipped ({:.1}%) in {:.1?}",
        report.outcomes.len(),
        report.reused,
        report.reanalyzed,
        report.states_explored,
        report.states_skipped,
        100.0 * report.skip_ratio(),
        report.wall,
    );
    if !report.regressions().is_empty() {
        eprintln!("ci-gate: FAIL");
        return Ok(3);
    }
    t.span("save_baseline", || save_baseline(dir, &report.manifest))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(0)
}

fn run(args: &[String]) -> Result<u8, String> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["gen", seed, count, dir] => {
            let seed = seed.parse().map_err(|_| "gen: SEED must be an integer")?;
            let count = count.parse().map_err(|_| "gen: COUNT must be an integer")?;
            gen(seed, count, Path::new(dir)).map(|()| 0)
        }
        ["seqleaks", files @ ..] => seqleaks(files).map(|()| 0),
        ["manifest", seed, config] => {
            let seed = seed
                .parse()
                .map_err(|_| "manifest: SEED must be an integer")?;
            let fields =
                sct_bench::manifest::RunManifest::capture(config, seed, &[1]).json_fields("");
            println!(
                "{{{}}}",
                fields.replace('\n', " ").trim_end().trim_end_matches(',')
            );
            Ok(0)
        }
        ["trace", spans, workload, rest @ ..] => {
            let mut t = Tracer {
                origin: Instant::now(),
                spans: Vec::new(),
            };
            let files = |fs: &[&str]| fs.iter().map(|f| f.to_string()).collect::<Vec<_>>();
            let code = match (*workload, rest) {
                ("symbolic_cold", fs) if !fs.is_empty() => trace_oneshot(&mut t, &files(fs))?,
                ("table2_concrete", []) => trace_table2(&mut t)?,
                ("gate_replay", [dir, fs @ ..]) if !fs.is_empty() => {
                    trace_gate(&mut t, Path::new(dir), &files(fs))?
                }
                _ => return Err(format!("trace: bad arguments for `{workload}`")),
            };
            let arena_nodes = sct_symx::arena_stats().nodes as u64;
            t.write(Path::new(spans), &[("arena_nodes", arena_nodes)])?;
            Ok(code)
        }
        _ => Err(
            "usage: perfbench gen SEED COUNT DIR | seqleaks FILE... | manifest SEED CONFIG \
             | trace SPANS WORKLOAD [ARG...]"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
