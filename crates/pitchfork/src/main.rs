//! The `pitchfork` command-line tool: analyze `.sasm` assembly files for
//! speculative constant-time violations — one-shot, as a resident
//! daemon, or as a client of one.
//!
//! ```text
//! # one-shot (classic) mode
//! pitchfork [--bound N] [--fwd-hazards] [--strategy NAME] [--symbolic ra,rb]
//!           [--verbose] [--cache PATH] [--trace PATH] FILE...
//!
//! # daemon mode: serve analyses over a Unix socket or TCP
//! pitchfork --serve SOCK [--listen HOST:PORT] [--token T] [--client-quota N]
//!           [--cache PATH] [--journal PATH] [--bound N] [--strategy NAME]
//!           [--retire-every N] [--retire-nodes N] [--memo-capacity N]
//!           [--trace PATH]
//!
//! # client verbs against a running daemon (--connect takes a socket
//! # path or HOST:PORT; --token authenticates first)
//! pitchfork submit   --connect SOCK [--mode v1|v4|alias|v2] [--bound N]
//!                    [--strategy NAME] [--symbolic ra,rb] [--max-states N]
//!                    [--deadline-ms N] [--verbose] FILE...
//! pitchfork status   --connect SOCK --job ID
//! pitchfork events   --connect SOCK --job ID
//! pitchfork cancel   --connect SOCK --job ID
//! pitchfork stats    --connect SOCK
//! pitchfork metrics  --connect SOCK [--watch SECONDS]
//! pitchfork retire   --connect SOCK
//! pitchfork shutdown --connect SOCK
//!
//! # incremental CI gate: replay unchanged entries, re-analyze the diff
//! pitchfork ci-gate --baseline DIR [--connect SOCK] [--mode M] [--bound N]
//!           [--strategy NAME] [--symbolic ra,rb] [--max-states N]
//!           [--deadline-ms N] FILE...
//!
//! # fleet mode: shard a corpus across workers, merge verdicts
//! pitchfork coordinate --worker ADDR [--worker ADDR ...] [--token T]
//!           [--seed CACHE] [--mode M] [--bound N] [--strategy NAME]
//!           [--symbolic ra,rb] [--max-states N] [--attempts N] FILE...
//! ```
//!
//! The one-shot CLI is a thin shell over
//! [`pitchfork::AnalysisSession`]; the daemon wraps the same session in
//! a [`pitchfork::service::SessionService`] behind
//! [`pitchfork::server::Server`], so verdicts are identical either way
//! (the CI serve-smoke job diffs them).

use pitchfork::client::Client;
use pitchfork::observe::OwnedEvent;
use pitchfork::service::{
    JobId, JobMode, JobSpec, JobStatus, RetirePolicy, ServiceStats, SessionService,
};
use pitchfork::{
    AnalysisSession, BaselineManifest, DetectorOptions, EntryPlan, IncrementalGate,
    IncrementalReport, SessionBuilder, StrategyKind,
};
use sct_core::Reg;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

struct Cli {
    bound: usize,
    fwd_hazards: bool,
    strategy: StrategyKind,
    threads: usize,
    symbolic: Vec<Reg>,
    verbose: bool,
    cache: Option<String>,
    trace: Option<String>,
    files: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pitchfork [--bound N] [--fwd-hazards] [--strategy NAME] [--threads N] [--symbolic ra,rb] [--verbose] [--cache PATH] [--trace PATH] FILE..."
    );
    eprintln!("       pitchfork --serve SOCK [--listen HOST:PORT] [--token T] [--client-quota N]");
    eprintln!("                 [--cache PATH] [--journal PATH] [--bound N] [--strategy NAME]");
    eprintln!("                 [--threads N] [--jobs K] [--retire-every N] [--retire-nodes N]");
    eprintln!("                 [--memo-capacity N] [--trace PATH]");
    eprintln!("       pitchfork submit --connect SOCK [--token T] [--mode v1|v4|alias|v2]");
    eprintln!("                 [--bound N] [--strategy NAME] [--threads N] [--symbolic ra,rb]");
    eprintln!("                 [--max-states N] [--deadline-ms N] [--verbose] FILE...");
    eprintln!("       pitchfork status|events|cancel --connect SOCK --job ID");
    eprintln!("       pitchfork stats|retire|shutdown --connect SOCK");
    eprintln!("       pitchfork metrics --connect SOCK [--watch SECONDS]");
    eprintln!("       pitchfork ci-gate --baseline DIR [--connect SOCK] [--mode M]");
    eprintln!("                 [--bound N] [--strategy NAME] [--threads N]");
    eprintln!("                 [--symbolic ra,rb] [--max-states N] [--deadline-ms N] FILE...");
    eprintln!("       pitchfork coordinate --worker ADDR [--worker ADDR ...] [--token T]");
    eprintln!("                 [--seed CACHE] [--mode M] [--bound N] [--strategy NAME]");
    eprintln!("                 [--symbolic ra,rb] [--max-states N] [--deadline-ms N]");
    eprintln!("                 [--attempts N] [--retry-budget N] FILE...");
    eprintln!();
    eprintln!("Analyze sct assembly files for speculative constant-time violations.");
    eprintln!("  --bound N        speculation bound (default 20; paper: 250 without");
    eprintln!("                   forwarding hazards, 20 with)");
    eprintln!("  --fwd-hazards    explore store-forwarding hazards (Spectre v4 mode)");
    eprintln!("  --strategy NAME  frontier order: lifo (depth-first, default) or fifo");
    eprintln!("                   (breadth-first) — same verdicts, different");
    eprintln!("                   states-to-first-witness");
    eprintln!("  --threads N      worker threads per exploration (default 1 = serial;");
    eprintln!("                   0 = adaptive: start serial, spill to one worker per");
    eprintln!("                   core only if the frontier grows wide enough to pay");
    eprintln!("                   for it). Verdicts, witness sets, and state counts");
    eprintln!("                   always match serial mode exactly");
    eprintln!("  --symbolic LIST  treat these registers as symbolic inputs");
    eprintln!("  --verbose        print schedules and traces for each violation");
    eprintln!("  --cache PATH     warm-start the expression arena and solver memo");
    eprintln!("                   from PATH (if it exists) and save back after the run");
    eprintln!("  --trace PATH     append structured JSONL trace records (job lifecycle,");
    eprintln!("                   violations, epoch retirements) to PATH");
    eprintln!();
    eprintln!("The metrics verb scrapes the daemon's telemetry registry (latency");
    eprintln!("histograms, per-worker utilization, job queue-wait/run totals) in");
    eprintln!("Prometheus text exposition format; --watch N re-scrapes every N");
    eprintln!("seconds and prints only what moved. Set SCT_TELEMETRY=0 to disable");
    eprintln!("metric collection entirely.");
    eprintln!();
    eprintln!("ci-gate re-analyzes a corpus against the baseline saved in --baseline");
    eprintln!("DIR. An entry replays its recorded verdict line byte-identically with zero");
    eprintln!("exploration when its source text is unchanged (it is not even assembled),");
    eprintln!("or when it assembles to an unchanged fingerprint (program + initial");
    eprintln!("registers and memory + analysis config), as after a comment-only edit;");
    eprintln!("dirty or new entries re-run against the baseline's warm-start snapshot,");
    eprintln!("and a file that fails to assemble exits 2. Exit 0 promotes the refreshed");
    eprintln!("baseline, exit 3 means an entry flipped to insecure (the baseline is left");
    eprintln!("untouched). With --connect the dirty and new entries run on the daemon,");
    eprintln!("submitted with every fingerprinted option explicit: same output, same");
    eprintln!("manifest.");
    eprintln!();
    eprintln!("Daemon mode (--serve) keeps one session resident: submissions share the");
    eprintln!("hash-consed arena and solver memo across clients, and the epoch-retire");
    eprintln!("policy (--retire-every jobs / --retire-nodes arena nodes) snapshots and");
    eprintln!("warm-starts without restarting the process. --threads sets the default");
    eprintln!("per-job parallelism (submit --threads overrides per job); --jobs K runs");
    eprintln!("up to K jobs concurrently against the shared sharded arena.");
    eprintln!();
    eprintln!("Fleet mode: --listen puts the daemon on TCP (same protocol, same verdict");
    eprintln!("bytes), --token requires clients to authenticate with an opening hello,");
    eprintln!("and --client-quota bounds submissions per connection. `coordinate` shards");
    eprintln!("a corpus across --worker daemons largest-first, warm-starts each from");
    eprintln!("--seed, requeues shards off dead workers, and prints merged verdict lines");
    eprintln!("in manifest order (byte-identical to a one-process batch).");
    eprintln!();
    eprintln!("Robustness: --deadline-ms bounds a job's wall clock (a job over budget");
    eprintln!("ends `timed-out` with verdict UNKNOWN — never a false SECURE); --journal");
    eprintln!("PATH write-ahead-logs every submission so a restarted daemon re-runs");
    eprintln!("interrupted and queued jobs with byte-identical verdicts; a corrupt");
    eprintln!("--cache/--baseline file is quarantined to FILE.bad and the run degrades");
    eprintln!("to a cold start. Set SCT_FAULTS (e.g. conn-drop@at:3) to inject");
    eprintln!("deterministic faults for testing; unset, the hooks cost nothing.");
    std::process::exit(2)
}

fn parse_args(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        bound: 20,
        fwd_hazards: false,
        strategy: StrategyKind::Lifo,
        threads: 1,
        symbolic: Vec::new(),
        verbose: false,
        cache: None,
        trace: None,
        files: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bound" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.bound = v.parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--fwd-hazards" => cli.fwd_hazards = true,
            "--strategy" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.strategy = StrategyKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown strategy `{v}`");
                    usage()
                });
            }
            "--cache" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.cache = Some(v);
            }
            "--trace" => {
                let v = args.next().unwrap_or_else(|| usage());
                cli.trace = Some(v);
            }
            "--symbolic" => {
                let v = args.next().unwrap_or_else(|| usage());
                // Repeated --symbolic flags accumulate.
                cli.symbolic.extend(parse_regs(&v));
            }
            "--verbose" => cli.verbose = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => cli.files.push(f.to_string()),
            _ => usage(),
        }
    }
    if cli.files.is_empty() {
        usage();
    }
    cli
}

fn parse_regs(list: &str) -> Vec<Reg> {
    let mut regs = Vec::new();
    for name in list.split(',') {
        match Reg::parse(name.trim()) {
            Some(r) => regs.push(r),
            None => {
                eprintln!("unknown register `{name}`");
                usage();
            }
        }
    }
    regs
}

/// Build the session; a cache that fails to load degrades to a cold,
/// cache-less start — it never aborts an analysis.
fn build_session(
    bound: usize,
    fwd_hazards: bool,
    strategy: StrategyKind,
    threads: usize,
    symbolic: &[Reg],
    cache: Option<&str>,
) -> AnalysisSession {
    let builder = || {
        let mut b = SessionBuilder::new()
            .bound(bound)
            .strategy(strategy)
            .parallelism(threads)
            .symbolize(symbolic.iter().copied());
        if fwd_hazards {
            b = b.v4_mode(bound);
        }
        b
    };
    let Some(path) = cache else {
        return builder().build().expect("cache-less session build cannot fail");
    };
    let (session, loaded) = open_cached(builder, Path::new(path), "cache:");
    match session.cache_load() {
        Some(stats) => println!(
            "cache: warm start from {path}: {} snapshot nodes ({} new, {} shared), {} verdicts",
            stats.snapshot_nodes, stats.added, stats.preexisting, stats.verdicts_imported,
        ),
        None if loaded => println!("cache: cold start ({path} not found)"),
        None => {}
    }
    session
}

/// Build `builder()`'s session warm-started from the snapshot at
/// `path`, and whether the snapshot loaded (a missing file loads as a
/// cold start). A snapshot that fails to load degrades to a cold start
/// — never a wrong verdict, never an abort: the bad file is quarantined
/// to `PATH.bad` (so the next save writes a fresh snapshot instead of
/// fighting the corruption, and the operator keeps the evidence), a
/// warning headed by `prefix` goes to stderr, and the cold session
/// keeps `path` attached.
fn open_cached(
    builder: impl Fn() -> SessionBuilder,
    path: &Path,
    prefix: &str,
) -> (AnalysisSession, bool) {
    let e = match builder().cache(path).build() {
        Ok(session) => return (session, true),
        Err(e) => e,
    };
    match sct_cache::quarantine(path) {
        Some(bad) => eprintln!(
            "{prefix} cold start ({}: {e}; corrupt snapshot quarantined to {})",
            path.display(),
            bad.display()
        ),
        None => eprintln!("{prefix} cold start ({}: {e})", path.display()),
    }
    let mut session = builder()
        .build()
        .expect("cache-less session build cannot fail");
    session.attach_cache(path);
    (session, false)
}

/// Open a `--trace PATH` JSONL writer with a manifest-style provenance
/// header (same shape as the daemon's `audit.jsonl` header: who wrote
/// the file, from what commit, on what machine). An unwritable path is
/// reported and disables tracing — it never aborts an analysis.
fn open_trace(
    path: &str,
    mode: &str,
    bound: usize,
    strategy: StrategyKind,
) -> Option<std::sync::Arc<sct_telemetry::TraceWriter>> {
    use sct_telemetry::TraceValue;
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
    let header = [
        ("artifact", TraceValue::Str("pitchfork-trace".to_string())),
        ("mode", TraceValue::Str(mode.to_string())),
        ("git_commit", TraceValue::Str(git_commit)),
        ("host_cpus", TraceValue::U64(host_cpus)),
        ("bound", TraceValue::U64(bound as u64)),
        ("strategy", TraceValue::Str(strategy.to_string())),
    ];
    match sct_telemetry::TraceWriter::create(std::path::Path::new(path), &header) {
        Ok(w) => Some(std::sync::Arc::new(w)),
        Err(e) => {
            eprintln!("--trace {path}: {e}");
            None
        }
    }
}

// The per-file report line lives in the library so one-shot, daemon,
// and fleet-coordinator output share it verbatim (CI diffs them).
use pitchfork::fleet::report_line;

fn run_oneshot(args: Vec<String>) -> ExitCode {
    let cli = parse_args(args);
    let mut session = build_session(
        cli.bound,
        cli.fwd_hazards,
        cli.strategy,
        cli.threads,
        &cli.symbolic,
        cli.cache.as_deref(),
    );
    let trace = cli
        .trace
        .as_deref()
        .and_then(|p| open_trace(p, "oneshot", cli.bound, cli.strategy));
    let mut any_violation = false;
    for (index, file) in cli.files.iter().enumerate() {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        let asm = match sct_asm::assemble(&src) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        // One-shot runs have no daemon job ids; number the files 1..N
        // so trace records stay joinable on the `job` key either way.
        let job = (index + 1) as u64;
        if let Some(t) = &trace {
            t.record(
                Some(job),
                "item_start",
                &[("name", sct_telemetry::TraceValue::Str(file.clone()))],
            );
        }
        let started = std::time::Instant::now();
        let report = session.analyze(&asm.program, &asm.config);
        if let Some(t) = &trace {
            use sct_telemetry::TraceValue;
            t.record(
                Some(job),
                "item_finished",
                &[
                    ("name", TraceValue::Str(file.clone())),
                    ("flagged", TraceValue::Bool(report.has_violations())),
                    ("states", TraceValue::U64(report.stats.states as u64)),
                    (
                        "elapsed_ms",
                        TraceValue::U64(started.elapsed().as_millis() as u64),
                    ),
                ],
            );
        }
        any_violation |= report.has_violations();
        println!(
            "{}",
            report_line(
                file,
                report.verdict(),
                report.stats.states,
                report.stats.schedules,
                report.stats.strategy,
                report.stats.truncated,
            )
        );
        if cli.verbose {
            for v in &report.violations {
                // Map the flagged program point back to a source line.
                if let Some(line) = asm.lines.get(&v.pc) {
                    println!("  (near source line {line})");
                }
                print!("{v}");
            }
        }
    }
    if cli.cache.is_some() {
        match session.save() {
            Ok(Some(stats)) => println!(
                "cache: saved {}: {stats}",
                cli.cache.as_deref().unwrap_or_default()
            ),
            Ok(None) => {}
            Err(e) => eprintln!(
                "cache: save failed ({}: {e})",
                cli.cache.as_deref().unwrap_or_default()
            ),
        }
    }
    if any_violation {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

// ----- daemon mode --------------------------------------------------------

fn run_serve(args: Vec<String>) -> ExitCode {
    let mut socket: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut cache: Option<String> = None;
    let mut bound = 20usize;
    let mut strategy = StrategyKind::Lifo;
    let mut threads = 1usize;
    let mut jobs = 1usize;
    let mut trace: Option<String> = None;
    let mut policy = RetirePolicy::never();
    let mut server_options = pitchfork::server::ServerOptions::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => cache = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--journal" => {
                server_options.journal =
                    Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| usage())))
            }
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--token" => server_options.token = Some(args.next().unwrap_or_else(|| usage())),
            "--client-quota" => {
                server_options.max_jobs_per_client = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--bound" => {
                bound = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage())
                    .max(1)
            }
            "--strategy" => {
                let v = args.next().unwrap_or_else(|| usage());
                strategy = StrategyKind::parse(&v).unwrap_or_else(|| usage());
            }
            "--retire-every" => {
                policy.every_jobs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--retire-nodes" => {
                policy.max_arena_nodes = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--memo-capacity" => {
                let cap = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                sct_symx::set_solver_memo_capacity(cap);
            }
            s if socket.is_none() && !s.starts_with('-') => socket = Some(s.to_string()),
            _ => usage(),
        }
    }
    // `--listen HOST:PORT` takes a TCP endpoint; otherwise the
    // positional SOCK path is a Unix socket, exactly as before.
    let endpoint = match (&listen, &socket) {
        (Some(addr), _) => pitchfork::transport::Endpoint::Tcp(addr.clone()),
        (None, Some(path)) => pitchfork::transport::Endpoint::Unix(path.into()),
        (None, None) => usage(),
    };
    let session = build_session(bound, false, strategy, threads, &[], cache.as_deref());
    let service = SessionService::with_policy(session, policy);
    if let Some(path) = &trace {
        if let Some(writer) = open_trace(path, "serve", bound, strategy) {
            service.monitor().set_trace(writer);
        }
    }
    let server =
        match pitchfork::server::Server::bind_endpoint(&endpoint, service, jobs, server_options) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("--serve {}: {e}", endpoint.display());
                return ExitCode::from(2);
            }
        };
    println!(
        "serving on {} (bound {bound}, strategy {strategy}, threads {threads}, jobs {jobs})",
        server.local_addr()
    );
    server.wait();
    println!("daemon stopped");
    ExitCode::SUCCESS
}

// ----- client verbs -------------------------------------------------------

struct ClientArgs {
    connect: Option<String>,
    token: Option<String>,
    job: Option<u64>,
    mode: JobMode,
    bound: Option<usize>,
    strategy: Option<StrategyKind>,
    threads: usize,
    max_states: Option<usize>,
    deadline_ms: Option<u64>,
    symbolic: Vec<Reg>,
    verbose: bool,
    files: Vec<String>,
    // coordinate-only
    workers: Vec<String>,
    seed: Option<String>,
    attempts: u32,
    retry_budget: Option<u32>,
    // ci-gate-only
    baseline: Option<String>,
    // metrics-only
    watch: Option<u64>,
}

fn parse_client_args(args: Vec<String>) -> ClientArgs {
    let mut out = ClientArgs {
        connect: None,
        token: None,
        job: None,
        mode: JobMode::V1,
        bound: None,
        strategy: None,
        threads: 0,
        max_states: None,
        deadline_ms: None,
        symbolic: Vec::new(),
        verbose: false,
        files: Vec::new(),
        workers: Vec::new(),
        seed: None,
        attempts: 3,
        retry_budget: None,
        baseline: None,
        watch: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => out.connect = Some(args.next().unwrap_or_else(|| usage())),
            "--token" => out.token = Some(args.next().unwrap_or_else(|| usage())),
            "--worker" => out.workers.push(args.next().unwrap_or_else(|| usage())),
            "--seed" => out.seed = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => out.baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--watch" => {
                out.watch = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--attempts" => {
                out.attempts = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--retry-budget" => {
                out.retry_budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-states" => {
                out.max_states = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--deadline-ms" => {
                out.deadline_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--job" => {
                out.job = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--mode" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.mode = JobMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown mode `{v}`");
                    usage()
                });
            }
            "--bound" => {
                out.bound = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--threads" => {
                out.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--strategy" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.strategy = Some(StrategyKind::parse(&v).unwrap_or_else(|| usage()));
            }
            "--symbolic" => {
                let v = args.next().unwrap_or_else(|| usage());
                // Repeated --symbolic flags accumulate.
                out.symbolic.extend(parse_regs(&v));
            }
            "--verbose" => out.verbose = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => out.files.push(f.to_string()),
            _ => usage(),
        }
    }
    out
}

fn connect(args: &ClientArgs) -> Client {
    let Some(addr) = args.connect.as_deref() else {
        eprintln!("missing --connect SOCK");
        usage();
    };
    let mut client = match Client::connect_addr(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("--connect {addr}: {e}");
            std::process::exit(2);
        }
    };
    if let Some(token) = &args.token {
        if let Err(e) = client.hello(token.clone()) {
            eprintln!("--connect {addr}: {e}");
            std::process::exit(2);
        }
    }
    client
}

/// Print one line, tolerating a closed stdout (`... | head` closes the
/// pipe mid-output; that must end output quietly, not panic).
fn out(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{line}");
}

macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

fn print_stats(stats: &ServiceStats) {
    outln!(
        "jobs: {} submitted, {} done, {} failed, {} cancelled, {} queued",
        stats.jobs_submitted, stats.jobs_done, stats.jobs_failed, stats.jobs_cancelled, stats.queued
    );
    outln!(
        "latency: {} ms queue-wait / {} ms run over {} timed jobs; {} events dropped",
        stats.queue_wait_ms_total, stats.run_ms_total, stats.jobs_timed, stats.events_dropped
    );
    outln!(
        "epochs_retired: {} ({} jobs since; last warm-start {} nodes, {} verdicts)",
        stats.epochs_retired,
        stats.jobs_since_retire,
        stats.last_reload_nodes,
        stats.last_reload_verdicts
    );
    outln!(
        "arena: {} nodes (epoch {})",
        stats.arena_nodes, stats.arena_epoch
    );
    outln!(
        "memo: {} entries (cap {}), {} hits / {} misses, {} evicted, {} stale",
        stats.memo_entries,
        stats.memo_capacity,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_evicted,
        stats.memo_stale_dropped
    );
    // New counters go on their own line after the historical ones — CI
    // smoke legs grep the exact text above.
    outln!(
        "robustness: {} timed out, {} replayed from journal",
        stats.jobs_timed_out, stats.jobs_replayed
    );
}

fn print_view(label: &str, view: &pitchfork::client::JobView, verbose: bool) -> bool {
    match (&view.verdict, &view.stats) {
        (Some(verdict), Some(stats)) => {
            outln!(
                "{}",
                report_line(
                    label,
                    verdict,
                    stats.states,
                    stats.schedules,
                    stats.strategy,
                    stats.truncated,
                )
            );
            outln!(
                "  memo: {} hits / {} misses; first witness at {:?} states",
                stats.solver_memo_hits, stats.solver_memo_misses, stats.first_witness_states
            );
            if let Some(ms) = view.elapsed_ms {
                outln!("  elapsed: {ms} ms");
            }
            if let Some(cap) = view.clamped_states {
                outln!("  state budget clamped to {cap} (requested more than the daemon cap)");
            }
            if verbose {
                for v in &view.violations {
                    outln!("  violation: {} near program point {}", v.observation, v.pc);
                    outln!("    schedule: {}", v.schedule);
                    for c in &v.constraints {
                        outln!("    constraint: {c}");
                    }
                }
            }
            verdict.is_insecure()
        }
        _ => {
            outln!(
                "{label}: {}{}{}",
                view.status,
                view.elapsed_ms
                    .map(|ms| format!(" ({ms} ms elapsed)"))
                    .unwrap_or_default(),
                view.error
                    .as_deref()
                    .map(|e| format!(" ({e})"))
                    .unwrap_or_default()
            );
            false
        }
    }
}

fn run_submit(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    if args.files.is_empty() {
        eprintln!("submit: no files");
        usage();
    }
    let mut client = connect(&args);
    let spec = JobSpec {
        mode: args.mode,
        bound: args.bound,
        strategy: args.strategy,
        threads: args.threads,
        symbolic: args.symbolic.clone(),
        max_states: args.max_states,
        deadline_ms: args.deadline_ms,
    };
    let mut ids = Vec::new();
    for file in &args.files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        match client.submit_source(file.clone(), source, spec.clone()) {
            Ok(id) => ids.push((file.clone(), id)),
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut any_violation = false;
    let mut any_failed = false;
    for (file, id) in ids {
        match client.wait(id, Duration::from_secs(120)) {
            Ok(view) => {
                any_violation |= print_view(&file, &view, args.verbose);
                any_failed |= view.error.is_some();
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if any_failed {
        ExitCode::from(2)
    } else if any_violation {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_status(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    let Some(job) = args.job else {
        eprintln!("missing --job ID");
        usage();
    };
    let mut client = connect(&args);
    match client.status(JobId::from_u64(job)) {
        Ok(view) => {
            let flagged = print_view(&format!("job {job}"), &view, args.verbose);
            // Exit codes mirror `submit`: 2 for a failed job, 1 for a
            // flagged one, 0 otherwise — scripts can tell "secure"
            // from "failed" without parsing output.
            if view.status == pitchfork::service::JobStatus::Failed {
                ExitCode::from(2)
            } else if flagged {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("status: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_cancel(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    let Some(job) = args.job else {
        eprintln!("missing --job ID");
        usage();
    };
    let mut client = connect(&args);
    if let Err(e) = client.cancel(JobId::from_u64(job)) {
        eprintln!("cancel: {e}");
        return ExitCode::from(2);
    }
    match client.wait(JobId::from_u64(job), Duration::from_secs(120)) {
        Ok(view) => {
            outln!("job {job}: {}", view.status);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cancel: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_events(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    let Some(job) = args.job else {
        eprintln!("missing --job ID");
        usage();
    };
    let mut client = connect(&args);
    let result = client.stream_events(JobId::from_u64(job), 0, |event| match event {
        OwnedEvent::StateExpanded {
            states,
            frontier,
            rob_depth,
        } => outln!("state-expanded: {states} states, frontier {frontier}, rob {rob_depth}"),
        OwnedEvent::ViolationFound {
            states,
            pc,
            observation,
        } => outln!("violation-found: {observation} near pc {pc} after {states} states"),
        OwnedEvent::ItemFinished {
            name,
            flagged,
            states,
        } => outln!("item-finished: {name} flagged={flagged} ({states} states)"),
        OwnedEvent::EpochRetired { epoch, rehydrated } => {
            outln!("epoch-retired: epoch {epoch}, {rehydrated} nodes rehydrated")
        }
    });
    match result {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("events: {e}");
            ExitCode::from(2)
        }
    }
}

/// [`ServiceStats`] as counter/gauge snapshots, one `service_*` family
/// per field, in exposition order. The scrape renders them ahead of the
/// registry families and `metrics --watch` deltas them alongside.
fn service_stat_snapshots(stats: &ServiceStats) -> Vec<sct_telemetry::MetricSnapshot> {
    use sct_telemetry::{MetricKind, MetricSnapshot};
    let families = [
        ("service_jobs_submitted", MetricKind::Counter, stats.jobs_submitted),
        ("service_jobs_done", MetricKind::Counter, stats.jobs_done),
        ("service_jobs_failed", MetricKind::Counter, stats.jobs_failed),
        ("service_jobs_cancelled", MetricKind::Counter, stats.jobs_cancelled),
        ("service_jobs_timed_out", MetricKind::Counter, stats.jobs_timed_out),
        ("service_jobs_replayed", MetricKind::Counter, stats.jobs_replayed),
        ("service_budget_clamped_jobs", MetricKind::Counter, stats.budget_clamped_jobs),
        ("service_seed_nodes_added", MetricKind::Counter, stats.seed_nodes_added),
        ("service_seed_verdicts_imported", MetricKind::Counter, stats.seed_verdicts_imported),
        ("service_jobs_queued", MetricKind::Gauge, stats.queued),
        ("service_queue_wait_ms_total", MetricKind::Counter, stats.queue_wait_ms_total),
        ("service_run_ms_total", MetricKind::Counter, stats.run_ms_total),
        ("service_jobs_timed", MetricKind::Counter, stats.jobs_timed),
        ("service_events_dropped", MetricKind::Counter, stats.events_dropped),
        ("service_epochs_retired", MetricKind::Counter, stats.epochs_retired),
        ("service_arena_nodes", MetricKind::Gauge, stats.arena_nodes),
        ("service_memo_entries", MetricKind::Gauge, stats.memo_entries),
        ("service_memo_hits", MetricKind::Counter, stats.memo_hits),
        ("service_memo_misses", MetricKind::Counter, stats.memo_misses),
    ];
    families
        .into_iter()
        .map(|(name, kind, value)| MetricSnapshot {
            name: name.to_string(),
            kind,
            value,
            sum_ns: 0,
            max_ns: 0,
            max_job: 0,
            buckets: Vec::new(),
        })
        .collect()
}

fn run_metrics(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    let mut client = connect(&args);
    let scrape = |client: &mut Client| -> Result<_, _> {
        client.metrics().map(|(stats, metrics)| {
            let mut snaps = service_stat_snapshots(&stats);
            snaps.extend(metrics);
            snaps
        })
    };
    let mut prev = match scrape(&mut client) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("metrics: {e}");
            return ExitCode::from(2);
        }
    };
    {
        use std::io::Write as _;
        let text = sct_telemetry::render_prometheus(&prev);
        // One write, tolerant of a closed stdout (`... | head`).
        let _ = std::io::stdout().write_all(text.as_bytes());
    }
    // --watch N: keep the connection open and re-scrape every N
    // seconds, printing only what moved since the previous scrape.
    let Some(every) = args.watch else {
        return ExitCode::SUCCESS;
    };
    let period = Duration::from_secs(every);
    loop {
        std::thread::sleep(period);
        let cur = match scrape(&mut client) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("metrics: {e}");
                return ExitCode::from(2);
            }
        };
        let delta = sct_telemetry::render_delta(&prev, &cur, every as f64);
        if delta.is_empty() {
            outln!("-- +{every}s: idle");
        } else {
            outln!("-- +{every}s:");
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(delta.as_bytes());
        }
        prev = cur;
    }
}

// ----- the incremental CI gate --------------------------------------------

/// `pitchfork ci-gate --baseline DIR FILE...`: diff-aware re-analysis
/// against a persisted baseline, through [`IncrementalGate`].
/// Unchanged entries (by source key, else by per-entry fingerprint)
/// replay their recorded verdict lines byte-identically with zero
/// exploration; dirty or new entries are re-analyzed — here against the
/// baseline's warm-start snapshot, or with `--connect` by a daemon (see
/// [`connect_gate`]).
/// Stdout, exit codes and the refreshed manifest are the same either
/// way. Exit 0 promotes the refreshed baseline; a secure→insecure flip
/// exits 3 and leaves the baseline untouched.
fn run_ci_gate(args: Vec<String>) -> ExitCode {
    use pitchfork::incremental::save_baseline;
    let args = parse_client_args(args);
    let Some(dir) = args.baseline.as_deref() else {
        eprintln!("ci-gate: missing --baseline DIR");
        usage();
    };
    let dir = std::path::PathBuf::from(dir);
    if args.files.is_empty() {
        eprintln!("ci-gate: no files");
        usage();
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ci-gate: --baseline {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    // A missing manifest is an empty baseline: the first run analyzes
    // everything, passes (nothing to flip from), and creates it. A
    // corrupt or unreadable manifest degrades the same way — the gate
    // warns, quarantines the bad file, and runs the full corpus cold
    // (exit 0/3 on the verdicts), so a torn baseline write can slow a
    // CI run but never wedge it. The pass at the end promotes a fresh
    // baseline over the wreckage.
    let baseline = match BaselineManifest::load_dir(&dir) {
        Ok(m) => m,
        Err(e) => {
            let manifest_path = dir.join(BaselineManifest::FILE_NAME);
            match sct_cache::quarantine(&manifest_path) {
                Some(bad) => eprintln!(
                    "ci-gate: --baseline {}: {e}; corrupt manifest quarantined to {}, running full cold analysis",
                    dir.display(),
                    bad.display()
                ),
                None => eprintln!(
                    "ci-gate: --baseline {}: {e}; running full cold analysis",
                    dir.display()
                ),
            }
            BaselineManifest::empty()
        }
    };

    let mut options = args.mode.options(args.bound.unwrap_or(20));
    if let Some(s) = args.strategy {
        options.explorer.strategy = s;
    }
    if args.threads > 0 {
        options.explorer.threads = args.threads;
    }
    if let Some(ms) = args.max_states {
        options.explorer.max_states = ms;
    }
    options.explorer.deadline_ms = args.deadline_ms;
    // Locally, warm-start the arena and verdict memo from the
    // baseline's pruned snapshot; an unreadable snapshot degrades to a
    // cold start.
    let session = args.connect.is_none().then(|| {
        let builder = || SessionBuilder::new().options(options);
        open_cached(builder, &dir.join(BaselineManifest::CACHE_NAME), "ci-gate:").0
    });
    // Plan each file from its source text: an entry whose source key
    // matches its record replays unassembled. The dirty and new ones
    // come back assembled; locally the session analyses them, and a
    // daemon is sent their source text instead.
    let mut gate = IncrementalGate::new(&baseline, &options);
    let (mut fresh, mut submits) = (Vec::new(), Vec::new());
    for file in &args.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        match gate.plan(file, &src, &args.symbolic) {
            Ok(None) => {}
            Ok(Some(item)) if session.is_some() => fresh.push(item),
            Ok(Some(item)) => submits.push((item.name, src)),
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match session {
        Some(mut session) => session.finish_gate(gate, fresh),
        None => match connect_gate(&args, &options, gate, submits) {
            Ok(report) => report,
            Err(code) => return code,
        },
    };
    // Verdict lines to stdout — byte-identical to a batch run over the
    // same corpus (and to the baseline's own lines for replayed
    // entries) — through one locked buffer; a closed stdout ends them
    // quietly. Bookkeeping goes to stderr so scripts can diff stdout.
    {
        use std::io::Write as _;
        let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
        for o in &report.outcomes {
            let _ = writeln!(stdout, "{}", o.line);
        }
        let _ = stdout.flush();
    }
    for o in &report.outcomes {
        if let Some(why) = o.unrecorded {
            let record = match o.plan {
                EntryPlan::New => "not recorded in the baseline",
                _ => "previous baseline record kept",
            };
            eprintln!("ci-gate: {}: {why}; {record}", o.name);
        }
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
    let regressions = report.regressions();
    for o in &regressions {
        let old = o.flip.expect("regressed implies a flip");
        eprintln!("REGRESSION: {} flipped {old} -> {}", o.name, o.verdict);
    }
    if !regressions.is_empty() {
        eprintln!(
            "ci-gate: FAIL — {} regression(s); baseline not promoted",
            regressions.len()
        );
        return ExitCode::from(3);
    }
    // Under --connect promote the manifest only: the warm memo lives
    // daemon-side, and overwriting baseline.cache with this process's
    // (empty) memo would cost the next local run its warm start.
    let promoted = if args.connect.is_some() {
        report.manifest.save_dir(&dir).map(|()| String::new())
    } else {
        save_baseline(&dir, &report.manifest).map(|stats| format!(" ({stats})"))
    };
    match promoted {
        Ok(stats) => eprintln!("ci-gate: PASS — baseline promoted at {}{stats}", dir.display()),
        Err(e) => {
            eprintln!("ci-gate: baseline save failed ({}: {e})", dir.display());
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The `--connect` analyser of [`run_ci_gate`]: `gate` planned and
/// replayed here, and each dirty or new entry in `submits` (its name and
/// source text) goes to the daemon as a plain job whose spec sets every
/// fingerprinted option explicitly (bound, strategy, state budget), so
/// the daemon runs exactly the analysis the fingerprint names whatever
/// its own defaults. A budget the daemon clamps is reported to the
/// gate, which then keeps the entry's previous record.
fn connect_gate(
    args: &ClientArgs,
    options: &DetectorOptions,
    gate: IncrementalGate<'_>,
    submits: Vec<(String, String)>,
) -> Result<IncrementalReport, ExitCode> {
    let spec = JobSpec {
        mode: args.mode,
        bound: Some(options.explorer.spec_bound),
        strategy: Some(options.explorer.strategy),
        threads: args.threads,
        symbolic: args.symbolic.clone(),
        max_states: Some(options.explorer.max_states),
        deadline_ms: options.explorer.deadline_ms,
    };
    let mut client = connect(args);
    let failed = |file: &str, e: &dyn std::fmt::Display| {
        eprintln!("{file}: {e}");
        ExitCode::from(2)
    };
    let mut jobs = Vec::new();
    for (file, source) in submits {
        let submitted = client.submit_source(file.clone(), source, spec.clone());
        let id = submitted.map_err(|e| failed(&file, &e))?;
        jobs.push((file, id));
    }
    let mut results = Vec::with_capacity(jobs.len());
    for (file, id) in jobs {
        let view = client
            .wait(id, Duration::from_secs(600))
            .map_err(|e| failed(&file, &e))?;
        match (view.status, view.verdict, view.stats) {
            (JobStatus::Done | JobStatus::TimedOut, Some(verdict), Some(stats)) => {
                results.push((verdict, stats, view.clamped_states.is_some()))
            }
            (status, ..) => {
                let why = view.error.map(|e| format!(" ({e})")).unwrap_or_default();
                return Err(failed(&file, &format!("{status}{why}")));
            }
        }
    }
    Ok(gate.finish(results))
}

// ----- fleet mode ---------------------------------------------------------

fn run_coordinate(args: Vec<String>) -> ExitCode {
    let args = parse_client_args(args);
    if args.workers.is_empty() {
        eprintln!("coordinate: no --worker addresses");
        usage();
    }
    if args.files.is_empty() {
        eprintln!("coordinate: no files");
        usage();
    }
    let mut manifest = Vec::new();
    for file in &args.files {
        match std::fs::read_to_string(file) {
            Ok(source) => manifest.push(pitchfork::fleet::ManifestEntry {
                name: file.clone(),
                source,
            }),
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let seed = match args.seed.as_deref() {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) => {
                eprintln!("--seed {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let options = pitchfork::fleet::FleetOptions {
        workers: args.workers.clone(),
        token: args.token.clone(),
        seed,
        spec: JobSpec {
            mode: args.mode,
            bound: args.bound,
            strategy: args.strategy,
            threads: args.threads,
            symbolic: args.symbolic.clone(),
            max_states: args.max_states,
            deadline_ms: args.deadline_ms,
        },
        max_attempts: args.attempts.max(1),
        job_timeout: Duration::from_secs(600),
        worker_retry_budget: args
            .retry_budget
            .unwrap_or(pitchfork::fleet::FleetOptions::default().worker_retry_budget),
        retry_backoff: pitchfork::fleet::FleetOptions::default().retry_backoff,
        read_timeout: pitchfork::fleet::FleetOptions::default().read_timeout,
    };
    let report = match pitchfork::fleet::run_fleet(&manifest, &options, |line| {
        eprintln!("{line}");
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coordinate: {e}");
            return ExitCode::from(2);
        }
    };
    // Verdict lines to stdout in manifest order — byte-identical to a
    // single-process batch over the same files; failures to stderr.
    for outcome in &report.outcomes {
        if let Some(line) = &outcome.line {
            outln!("{line}");
        }
        if let Some(error) = &outcome.error {
            eprintln!("{}: {error}", outcome.name);
        }
    }
    eprintln!(
        "fleet: {} entries over {} workers, {} flagged, {} failed, {} retries",
        report.outcomes.len(),
        options.workers.len(),
        report.flagged(),
        report.failed(),
        report.retries,
    );
    // The coordinator's own registry (fleet_dispatch_total,
    // fleet_retry_total, fleet_shard_ns with max_job exemplars) makes
    // the run inspectable; stderr keeps stdout byte-comparable.
    if sct_telemetry::enabled() {
        let snaps: Vec<_> = sct_telemetry::global()
            .snapshot()
            .into_iter()
            .filter(|s| s.name.starts_with("fleet_"))
            .collect();
        eprint!("{}", sct_telemetry::render_prometheus(&snaps));
    }
    if report.failed() > 0 {
        ExitCode::from(2)
    } else if report.flagged() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn run_simple_verb(args: Vec<String>, verb: &str) -> ExitCode {
    let args = parse_client_args(args);
    let mut client = connect(&args);
    let result = match verb {
        "stats" => client.stats(),
        "retire" => client.retire(),
        "shutdown" => client.shutdown(),
        _ => unreachable!("dispatcher only passes known verbs"),
    };
    match result {
        Ok(stats) => {
            print_stats(&stats);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{verb}: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            args.remove(0);
            run_serve(args)
        }
        Some("submit") => {
            args.remove(0);
            run_submit(args)
        }
        Some("status") => {
            args.remove(0);
            run_status(args)
        }
        Some("events") => {
            args.remove(0);
            run_events(args)
        }
        Some("cancel") => {
            args.remove(0);
            run_cancel(args)
        }
        Some("coordinate") => {
            args.remove(0);
            run_coordinate(args)
        }
        Some("ci-gate") => {
            args.remove(0);
            run_ci_gate(args)
        }
        Some("metrics") => {
            args.remove(0);
            run_metrics(args)
        }
        Some(verb @ ("stats" | "retire" | "shutdown")) => {
            let verb = verb.to_string();
            args.remove(0);
            run_simple_verb(args, &verb)
        }
        _ => run_oneshot(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scrape's `service_*` families, in exposition order: one table
    /// feeds both the scrape and `metrics --watch`, so a family added to
    /// one cannot go missing from the other.
    #[test]
    fn service_families_are_pinned() {
        let snaps = service_stat_snapshots(&ServiceStats::default());
        let names: Vec<&str> = snaps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "service_jobs_submitted",
                "service_jobs_done",
                "service_jobs_failed",
                "service_jobs_cancelled",
                "service_jobs_timed_out",
                "service_jobs_replayed",
                "service_budget_clamped_jobs",
                "service_seed_nodes_added",
                "service_seed_verdicts_imported",
                "service_jobs_queued",
                "service_queue_wait_ms_total",
                "service_run_ms_total",
                "service_jobs_timed",
                "service_events_dropped",
                "service_epochs_retired",
                "service_arena_nodes",
                "service_memo_entries",
                "service_memo_hits",
                "service_memo_misses",
            ]
        );
        let text = sct_telemetry::render_prometheus(&snaps);
        assert!(text.starts_with("# TYPE service_jobs_submitted counter\nservice_jobs_submitted 0\n"));
        assert!(text.contains("# TYPE service_jobs_queued gauge\nservice_jobs_queued 0\n"));

        let before = ServiceStats::default();
        let after = ServiceStats {
            events_dropped: 3,
            ..before
        };
        let delta = sct_telemetry::render_delta(
            &service_stat_snapshots(&before),
            &service_stat_snapshots(&after),
            1.0,
        );
        assert_eq!(delta, "service_events_dropped +3 (3.0/s)\n");
    }
}
