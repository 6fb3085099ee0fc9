//! Chaos suite: seeded fault schedules driven through real daemons,
//! asserting the robustness contract — **a fault can cost time, never
//! a verdict**. Every test that completes must produce output
//! byte-identical to a fault-free run; every fault that prevents
//! completion must surface as a clean degraded state (timed-out,
//! quarantined, replayed), never a wrong answer or a hang.
//!
//! The fault plan is process-global ([`sct_faults::install`] /
//! [`sct_faults::disarm`]), so every test here serializes on
//! `CHAOS_LOCK` and disarms before releasing it. Subprocess tests (the
//! corrupt-cache CLI runs) configure faults via `SCT_FAULTS` in the
//! child environment instead.

use pitchfork::client::Client;
use pitchfork::fleet::{self, FleetOptions, ManifestEntry};
use pitchfork::journal::Journal;
use pitchfork::protocol::Request;
use pitchfork::server::{Server, ServerOptions};
use pitchfork::service::{JobSpec, JobStatus, SessionService};
use pitchfork::transport::Endpoint;
use pitchfork::SessionBuilder;
use sct_core::examples::fig1;
use sct_core::reg::names::RA;
use sct_faults::{FaultPoint, Plan, Trigger};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(60);

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_path(label: &str, suffix: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sct_chaos_{label}_{}.{suffix}", std::process::id()))
}

fn fig1_source() -> String {
    let (program, config) = fig1();
    sct_asm::disassemble_with(&program, Some(&config))
}

fn spec_symbolic() -> JobSpec {
    JobSpec {
        symbolic: vec![RA],
        ..JobSpec::default()
    }
}

/// The fault-free reference verdict line for fig1 under `spec_symbolic`.
fn clean_fig1_line(name: &str) -> String {
    let mut session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let (p, cfg) = fig1();
    let report = session.analyze_symbolic(&p, &cfg, &[RA]);
    fleet::report_line(
        name,
        report.verdict(),
        report.stats.states,
        report.stats.schedules,
        report.stats.strategy,
        report.stats.truncated,
    )
}

// ----- stalls and drops over the wire -------------------------------------

#[test]
fn stalled_streams_delay_but_never_change_verdicts() {
    let _g = lock();
    let baseline = clean_fig1_line("fig1");
    sct_faults::install(
        Plan::new(11)
            .point(FaultPoint::ReadStall, Trigger::Every(3))
            .point(FaultPoint::WriteStall, Trigger::Every(4))
            .stall_ms(5),
    );
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let sock = temp_path("stall", "sock");
    let server = Server::bind(&sock, SessionService::new(session)).expect("bind");
    let mut client = Client::connect(&sock).expect("connect");
    let id = client
        .submit_source("fig1", fig1_source(), spec_symbolic())
        .expect("submit through stalled streams");
    let view = client.wait(id, WAIT).expect("job finishes despite stalls");
    assert_eq!(view.status, JobStatus::Done);
    let stats = view.stats.expect("stats");
    let line = fleet::report_line(
        "fig1",
        view.verdict.expect("verdict"),
        stats.states,
        stats.schedules,
        stats.strategy,
        stats.truncated,
    );
    assert!(
        sct_faults::fired(FaultPoint::ReadStall) + sct_faults::fired(FaultPoint::WriteStall) > 0,
        "the schedule actually injected stalls"
    );
    sct_faults::disarm();
    assert_eq!(line, baseline, "stalls must not perturb the verdict");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn fleet_requeues_around_injected_connection_drops() {
    let _g = lock();
    let manifest: Vec<ManifestEntry> = (0..4)
        .map(|i| ManifestEntry {
            name: format!("fig1-{i}.sasm"),
            source: fig1_source(),
        })
        .collect();
    let baseline: Vec<String> = manifest.iter().map(|e| clean_fig1_line(&e.name)).collect();

    let bind = |_: usize| {
        let session = SessionBuilder::new().v1_mode(16).build().unwrap();
        Server::bind_endpoint(
            &Endpoint::Tcp("127.0.0.1:0".to_string()),
            SessionService::new(session),
            1,
            ServerOptions::default(),
        )
        .expect("bind tcp")
    };
    let s1 = bind(0);
    let s2 = bind(1);
    // One injected drop somewhere in the run: whichever stream takes
    // it — a submit, a status poll, a server-side read — the entry is
    // requeued under the retry budget and completes elsewhere.
    sct_faults::install(Plan::new(23).point(FaultPoint::ConnDrop, Trigger::At(7)));
    let options = FleetOptions {
        workers: vec![s1.local_addr().to_string(), s2.local_addr().to_string()],
        spec: spec_symbolic(),
        retry_backoff: Duration::from_millis(5),
        ..FleetOptions::default()
    };
    let report = fleet::run_fleet(&manifest, &options, |_| {}).expect("fleet run");
    let dropped = sct_faults::fired(FaultPoint::ConnDrop);
    sct_faults::disarm();
    assert_eq!(dropped, 1, "the at:7 schedule fired exactly once");
    assert_eq!(report.failed(), 0, "outcomes: {:?}", report.outcomes);
    let merged: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| o.line.clone().expect("completed entry"))
        .collect();
    assert_eq!(
        merged, baseline,
        "verdicts after an injected drop are byte-identical to a clean run"
    );

    for server in [&s1, &s2] {
        let mut c = Client::connect_addr(server.local_addr()).unwrap();
        c.shutdown().unwrap();
    }
    s1.wait();
    s2.wait();
}

// ----- deadlines ----------------------------------------------------------

#[test]
fn expired_deadline_times_out_with_unknown_never_secure() {
    let _g = lock();
    sct_faults::disarm();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let mut svc = SessionService::new(session);
    // deadline_ms: 0 expires before the first state expansion — the
    // deterministic worst case.
    let doomed = svc.submit_source(
        "doomed",
        &fig1_source(),
        JobSpec {
            deadline_ms: Some(0),
            ..spec_symbolic()
        },
    );
    // A deadline-less job in the same queue is untouched.
    let fine = svc.submit_source("fine", &fig1_source(), spec_symbolic());
    svc.run_pending();

    assert_eq!(svc.status(doomed), Some(JobStatus::TimedOut));
    let rec = svc.record(doomed).expect("record");
    let report = rec.report.expect("timed-out jobs keep their partial report");
    assert!(report.stats.deadline_exceeded);
    assert!(report.stats.truncated, "deadline expiry implies truncation");
    assert!(
        !matches!(report.verdict(), pitchfork::Verdict::Secure),
        "a timed-out clean run must report unknown, never secure: {:?}",
        report.verdict()
    );

    assert_eq!(svc.status(fine), Some(JobStatus::Done));
    let stats = svc.stats();
    assert_eq!(stats.jobs_timed_out, 1);
    assert_eq!(stats.jobs_done, 1, "timed-out jobs do not count as done");
}

#[test]
fn deadline_rides_the_wire_and_pong_reports_liveness() {
    let _g = lock();
    sct_faults::disarm();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let sock = temp_path("deadline", "sock");
    let server = Server::bind(&sock, SessionService::new(session)).expect("bind");
    let mut client = Client::connect(&sock).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("socket timeout");
    // The health verb answers on the connection thread.
    let (in_flight, _queued) = client.ping().expect("pong");
    assert_eq!(in_flight, 0);
    let id = client
        .submit_source(
            "doomed",
            fig1_source(),
            JobSpec {
                deadline_ms: Some(0),
                ..spec_symbolic()
            },
        )
        .expect("submit");
    let view = client.wait(id, WAIT).expect("terminal");
    assert_eq!(view.status, JobStatus::TimedOut);
    let stats = view.stats.expect("partial stats survive the wire");
    assert!(stats.deadline_exceeded, "deadline flag round-trips");
    let service_stats = client.shutdown().expect("shutdown");
    assert_eq!(service_stats.jobs_timed_out, 1);
    server.wait();
}

// ----- journal replay -----------------------------------------------------

#[test]
fn journal_replays_interrupted_jobs_with_identical_verdicts() {
    let _g = lock();
    sct_faults::disarm();
    let baseline = clean_fig1_line("fig1-crashed");
    let dir = temp_path("journal", "d");
    let _ = std::fs::remove_dir_all(&dir);
    let journal_path = dir.join("daemon.journal");

    // Forge the journal a crashed daemon would leave behind: one job
    // that had started (died mid-run) and one still queued, plus a
    // torn half-record from the fatal append.
    {
        let mut j = Journal::create(&journal_path).expect("create journal");
        let line = |name: &str| {
            Request::Submit {
                name: name.into(),
                source: fig1_source(),
                spec: spec_symbolic(),
            }
            .to_line()
        };
        j.submitted(1, &line("fig1-crashed")).unwrap();
        j.submitted(2, &line("fig1-queued")).unwrap();
        j.started(1).unwrap();
        drop(j);
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .unwrap();
        f.write_all(b"{\"ev\":\"subm").unwrap();
    }

    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let sock = temp_path("journal", "sock");
    let server = Server::bind_endpoint(
        &Endpoint::Unix(sock.clone()),
        SessionService::new(session),
        1,
        ServerOptions {
            journal: Some(journal_path.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("bind with journal replay");

    let mut client = Client::connect(&sock).expect("connect");
    // Replayed jobs got fresh ids 1 and 2, in old-id order.
    let v1 = client.wait(pitchfork::JobId::from_u64(1), WAIT).expect("replayed job 1");
    let v2 = client.wait(pitchfork::JobId::from_u64(2), WAIT).expect("replayed job 2");
    for view in [&v1, &v2] {
        assert_eq!(view.status, JobStatus::Done);
    }
    let stats1 = v1.stats.as_ref().expect("stats");
    let line1 = fleet::report_line(
        "fig1-crashed",
        v1.verdict.as_ref().expect("verdict"),
        stats1.states,
        stats1.schedules,
        stats1.strategy,
        stats1.truncated,
    );
    assert_eq!(
        line1, baseline,
        "a replayed interrupted job re-runs to the byte-identical verdict"
    );
    let service_stats = client.shutdown().expect("shutdown");
    assert_eq!(service_stats.jobs_replayed, 2);
    assert_eq!(service_stats.jobs_done, 2);
    server.wait();

    // The journal was compacted on restart and now retires both jobs:
    // a second replay finds nothing live.
    assert!(
        Journal::replay(&journal_path).expect("re-replay").is_empty(),
        "finished replayed jobs must not replay again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_jobs_never_replay_across_clean_restarts() {
    let _g = lock();
    sct_faults::disarm();
    let dir = temp_path("journal2", "d");
    let _ = std::fs::remove_dir_all(&dir);
    let journal_path = dir.join("daemon.journal");
    let sock = temp_path("journal2", "sock");

    // Life 1: run a job to completion under the journal.
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let server = Server::bind_endpoint(
        &Endpoint::Unix(sock.clone()),
        SessionService::new(session),
        1,
        ServerOptions {
            journal: Some(journal_path.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&sock).expect("connect");
    let id = client
        .submit_source("fig1", fig1_source(), spec_symbolic())
        .expect("submit");
    assert_eq!(client.wait(id, WAIT).expect("done").status, JobStatus::Done);
    client.shutdown().expect("shutdown");
    server.wait();

    // Life 2: a clean restart replays nothing.
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let server = Server::bind_endpoint(
        &Endpoint::Unix(sock.clone()),
        SessionService::new(session),
        1,
        ServerOptions {
            journal: Some(journal_path.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("rebind");
    let mut client = Client::connect(&sock).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_replayed, 0);
    assert_eq!(stats.jobs_submitted, 0);
    client.shutdown().expect("shutdown");
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// ----- cache corruption (in-process) --------------------------------------

#[test]
fn corrupt_snapshot_is_quarantined_not_fatal() {
    let _g = lock();
    sct_faults::disarm();
    let cache = temp_path("quarantine", "cache");
    let bad = PathBuf::from(format!("{}.bad", cache.display()));
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bad);
    std::fs::write(&cache, b"these are not snapshot bytes").unwrap();
    // The CLI's degrade path: the cached build fails, the file is
    // quarantined, and a cold build takes over.
    let built = SessionBuilder::new().v1_mode(16).cache(&cache).build();
    assert!(built.is_err(), "a corrupt snapshot fails the cached build");
    assert_eq!(
        sct_cache::quarantine(&cache).as_deref(),
        Some(bad.as_path())
    );
    assert!(!cache.exists(), "the corrupt file was moved aside");
    assert!(bad.exists(), "the evidence is preserved at PATH.bad");
    // A missing path is an ordinary cold start, not a quarantine.
    let cold = SessionBuilder::new()
        .v1_mode(16)
        .cache(&cache)
        .build()
        .expect("a missing snapshot builds cold");
    assert!(cold.cache_load().is_none());
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn injected_snapshot_bit_flip_degrades_to_cold_start() {
    let _g = lock();
    // Build a genuine snapshot, then arm the bit-flip fault: the load
    // sees corrupted bytes, fails to decode (or decodes to a rejected
    // image), and the caller degrades instead of trusting it.
    let cache = temp_path("bitflip", "cache");
    let bad = PathBuf::from(format!("{}.bad", cache.display()));
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bad);
    let mut donor = SessionBuilder::new().v1_mode(16).cache(&cache).build().unwrap();
    let (p, cfg) = fig1();
    let _ = donor.analyze_symbolic(&p, &cfg, &[RA]);
    donor.save().expect("save").expect("snapshot written");

    sct_faults::install(Plan::new(3).point(FaultPoint::SnapshotBitFlip, Trigger::At(1)));
    let built = SessionBuilder::new().v1_mode(16).cache(&cache).build();
    let flipped = sct_faults::fired(FaultPoint::SnapshotBitFlip);
    sct_faults::disarm();
    assert_eq!(flipped, 1, "the load passed through the bit-flip point");
    // A single flipped bit may land in checksummed payload (decode
    // error → quarantine) — either way the process survived and the
    // arena was not poisoned; what is forbidden is pretending the load
    // was clean when decode failed.
    match built {
        Err(_) => {
            assert_eq!(
                sct_cache::quarantine(&cache).as_deref(),
                Some(bad.as_path())
            );
            assert!(bad.exists(), "quarantine preserved the corrupt image");
            SessionBuilder::new()
                .v1_mode(16)
                .build()
                .expect("cold build");
        }
        Ok(session) => {
            // The flip landed somewhere the codec tolerates; fine.
            assert!(session.cache_load().is_some(), "the snapshot existed");
        }
    }
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bad);
}

// ----- cache corruption (end-to-end, subprocess) --------------------------

fn run_cli(args: &[&str], env: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pitchfork"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("pitchfork binary runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.code(),
    )
}

/// Verdict payload of a one-shot run: stdout minus the cache
/// bookkeeping lines (which legitimately differ warm vs cold).
fn verdict_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .map(str::to_string)
        .collect()
}

#[test]
fn truncated_and_bitflipped_cache_files_fall_back_cold_with_identical_verdicts() {
    let _g = lock();
    sct_faults::disarm();
    let sasm = temp_path("e2e_corrupt", "sasm");
    std::fs::write(&sasm, fig1_source()).unwrap();
    let cache = temp_path("e2e_corrupt", "cache");
    let bad = PathBuf::from(format!("{}.bad", cache.display()));
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bad);
    let sasm_s = sasm.to_str().unwrap();
    let cache_s = cache.to_str().unwrap();

    // Reference run: cold, saves a valid snapshot.
    let (ref_out, _, ref_code) =
        run_cli(&["--bound", "16", "--symbolic", "ra", "--cache", cache_s, sasm_s], &[]);
    let reference = verdict_lines(&ref_out);
    assert!(cache.exists(), "first run saved a snapshot");
    let pristine = std::fs::read(&cache).unwrap();

    // Truncated snapshot: keep the first half.
    std::fs::write(&cache, &pristine[..pristine.len() / 2]).unwrap();
    let (out, err, code) =
        run_cli(&["--bound", "16", "--symbolic", "ra", "--cache", cache_s, sasm_s], &[]);
    assert_eq!(code, ref_code, "stderr: {err}");
    assert_eq!(
        verdict_lines(&out),
        reference,
        "a truncated cache must cold-start to identical verdicts"
    );
    assert!(err.contains("cold start"), "stderr: {err}");
    assert!(err.contains("quarantined"), "stderr: {err}");
    assert!(bad.exists(), "truncated snapshot quarantined to .bad");
    let _ = std::fs::remove_file(&bad);

    // Bit-flipped snapshot: injected by the subprocess's own fault
    // plan via SCT_FAULTS, exactly as the chaos-smoke CI leg does.
    std::fs::write(&cache, &pristine).unwrap();
    let (out, err, code) = run_cli(
        &["--bound", "16", "--symbolic", "ra", "--cache", cache_s, sasm_s],
        &[("SCT_FAULTS", "seed=9,snapshot-bit-flip=at:1")],
    );
    assert_eq!(code, ref_code, "stderr: {err}");
    assert_eq!(
        verdict_lines(&out),
        reference,
        "a bit-flipped cache must not change any verdict"
    );

    let _ = std::fs::remove_file(&sasm);
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn corrupt_baseline_directory_degrades_ci_gate_to_cold_full_run() {
    let _g = lock();
    sct_faults::disarm();
    let sasm = temp_path("e2e_gate", "sasm");
    std::fs::write(&sasm, fig1_source()).unwrap();
    let dir = temp_path("e2e_gate", "baseline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A manifest that is not a manifest.
    std::fs::write(dir.join("baseline.manifest"), "v999 utter nonsense\n").unwrap();
    let (out, err, code) = run_cli(
        &["ci-gate", "--baseline", dir.to_str().unwrap(), "--bound", "16", sasm.to_str().unwrap()],
        &[],
    );
    // fig1 is insecure but that is not a regression from an empty
    // baseline — the degraded gate passes and promotes a fresh one.
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(
        err.contains("running full cold analysis"),
        "the gate says why it went cold: {err}"
    );
    assert!(
        out.lines().any(|l| l.contains("INSECURE") || l.contains("VIOLATION")),
        "the cold run still analyzed the corpus: {out}"
    );
    assert!(
        dir.join("baseline.manifest").exists(),
        "a fresh baseline was promoted over the corrupt one"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sasm);
}
