//! End-to-end daemon tests: a real `Server` on a real Unix socket,
//! real `Client`s, byte-identical verdicts against batch mode,
//! memo-warm second submissions, `Retire` round-trips, and garbage
//! tolerance.
//!
//! Every test takes `E2E_LOCK`: the expression arena, the solver memo,
//! and the epoch counter are process-wide, and several tests retire
//! epochs — interleaving them with concurrent analyses would trip the
//! stale-`ExprRef` guard by design.

use pitchfork::client::{Client, ClientError};
use pitchfork::fleet::{self, FleetOptions, ManifestEntry};
use pitchfork::observe::OwnedEvent;
use pitchfork::server::{Server, ServerOptions};
use pitchfork::service::{Job, JobSpec, JobStatus, RetirePolicy, SessionService};
use pitchfork::transport::Endpoint;
use pitchfork::{AnalysisSession, SessionBuilder};
use sct_core::examples::fig1;
use sct_core::reg::names::RA;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

static E2E_LOCK: Mutex<()> = Mutex::new(());

const WAIT: Duration = Duration::from_secs(60);

fn lock() -> std::sync::MutexGuard<'static, ()> {
    E2E_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_path(label: &str, suffix: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct_e2e_{label}_{}.{suffix}",
        std::process::id()
    ))
}

fn fig1_source() -> String {
    let (program, config) = fig1();
    sct_asm::disassemble_with(&program, Some(&config))
}

fn serve(label: &str, session: AnalysisSession) -> (Server, PathBuf) {
    let sock = temp_path(label, "sock");
    let server = Server::bind(&sock, SessionService::new(session)).expect("bind socket");
    (server, sock)
}

#[test]
fn daemon_verdicts_match_batch_mode_and_warm_up() {
    let _guard = lock();
    let cache = temp_path("warm", "cache");
    let _ = std::fs::remove_file(&cache);
    let session = SessionBuilder::new()
        .v1_mode(16)
        .cache(&cache)
        .build()
        .expect("session over a fresh cache path");
    let (server, sock) = serve("warm", session);
    let source = fig1_source();
    let spec = JobSpec {
        symbolic: vec![RA],
        ..JobSpec::default()
    };

    // Batch-mode baseline: the same program, bound, and symbolized
    // registers through a plain session.
    let (program, config) = fig1();
    let mut baseline_session = AnalysisSession::builder().v1_mode(16).build().unwrap();
    let baseline = baseline_session.analyze_symbolic(&program, &config, &[RA]);

    // First client: cold submission.
    let mut client1 = Client::connect(&sock).expect("connect");
    let id1 = client1
        .submit_source("fig1", source.clone(), spec.clone())
        .expect("submit");
    let view1 = client1.wait(id1, WAIT).expect("first job finishes");
    assert_eq!(view1.status, JobStatus::Done);
    let verdict1 = view1.verdict.expect("done jobs carry a verdict");
    let stats1 = view1.stats.expect("done jobs carry stats");
    // Byte-identical verdict and matching exploration against batch mode.
    assert_eq!(verdict1.to_string(), baseline.verdict().to_string());
    assert_eq!(stats1.states, baseline.stats.states);
    assert_eq!(stats1.schedules, baseline.stats.schedules);
    assert_eq!(view1.violations.len(), baseline.violations.len());
    assert!(
        stats1.solver_queries > 0,
        "symbolic ra drives the solver: {stats1:?}"
    );

    // Second client, same program: answered from the warm memo and the
    // already-interned arena.
    let arena_before = sct_symx::arena_stats().nodes;
    let mut client2 = Client::connect(&sock).expect("second connect");
    let id2 = client2.submit_source("fig1-again", source.clone(), spec.clone()).unwrap();
    let view2 = client2.wait(id2, WAIT).expect("second job finishes");
    let stats2 = view2.stats.expect("stats");
    assert_eq!(view2.verdict.unwrap().to_string(), verdict1.to_string());
    assert_eq!(stats2.states, stats1.states);
    assert!(
        stats2.solver_memo_hits > 0,
        "second submission reuses memoized verdicts: {stats2:?}"
    );
    assert_eq!(
        stats2.solver_memo_misses, 0,
        "nothing new to solve on a repeat submission: {stats2:?}"
    );
    assert_eq!(
        sct_symx::arena_stats().nodes,
        arena_before,
        "a repeat submission interns no new arena structure"
    );

    // Retire round-trip: snapshot saved, epoch cycled, next job
    // warm-starts — all without restarting the process.
    let stats = client2.retire().expect("retire");
    assert_eq!(stats.epochs_retired, 1);
    assert!(
        stats.last_reload_nodes > 0,
        "retire warm-starts from the snapshot it just saved: {stats:?}"
    );
    assert!(cache.exists(), "retire persisted the snapshot");

    let id3 = client2.submit_source("fig1-after-retire", source, spec).unwrap();
    let view3 = client2.wait(id3, WAIT).expect("post-retire job finishes");
    let stats3 = view3.stats.expect("stats");
    assert_eq!(view3.verdict.unwrap().to_string(), verdict1.to_string());
    assert_eq!(stats3.states, stats1.states);
    assert!(
        stats3.solver_memo_hits > 0,
        "the re-imported memo answers the post-retire run: {stats3:?}"
    );

    let final_stats = client2.shutdown().expect("shutdown");
    assert_eq!(final_stats.jobs_done, 3);
    server.wait();
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn event_stream_covers_the_whole_exploration() {
    let _guard = lock();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let (server, sock) = serve("events", session);
    let mut client = Client::connect(&sock).expect("connect");
    let id = client
        .submit_source("fig1", fig1_source(), JobSpec::default())
        .expect("submit");

    // Subscribe immediately — batches flow while (or right after) the
    // worker analyzes; the stream ends exactly at the terminal event.
    let mut events = Vec::new();
    let final_cursor = client
        .stream_events(id, 0, |e| events.push(e.clone()))
        .expect("stream to completion");
    assert_eq!(final_cursor as usize, events.len());

    let view = client.status(id).expect("status");
    let stats = view.stats.expect("done");
    let expanded = events
        .iter()
        .filter(|e| matches!(e, OwnedEvent::StateExpanded { .. }))
        .count();
    assert_eq!(expanded, stats.states, "one event per expanded state");
    assert!(
        events.iter().any(|e| matches!(e, OwnedEvent::ViolationFound { .. })),
        "fig1's witness streams as an event"
    );
    assert!(
        matches!(events.last(), Some(OwnedEvent::ItemFinished { flagged: true, .. })),
        "the stream closes with the terminal item-finished event"
    );

    // Resuming from the final cursor yields an immediately-done empty
    // batch.
    let mut tail = Vec::new();
    let cursor2 = client
        .stream_events(id, final_cursor, |e| tail.push(e.clone()))
        .expect("resume");
    assert_eq!(cursor2, final_cursor);
    assert!(tail.is_empty());

    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn garbage_lines_get_error_responses_and_the_connection_survives() {
    let _guard = lock();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let (server, sock) = serve("garbage", session);

    let stream = std::os::unix::net::UnixStream::connect(&sock).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for garbage in [
        "{ not json",
        "{\"req\":\"submit\"}",
        "{\"req\":\"nope\"}",
        "[1,2,3]",
        "{\"req\":\"status\",\"id\":\"seven\"}",
    ] {
        writer.write_all(garbage.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("server answers");
        let response = pitchfork::protocol::Response::parse(line.trim_end()).unwrap();
        assert!(
            matches!(response, pitchfork::protocol::Response::Error { .. }),
            "garbage {garbage:?} → {response:?}"
        );
    }
    // The same connection still serves valid requests afterwards.
    writer.write_all(b"{\"req\":\"stats\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        pitchfork::protocol::Response::parse(line.trim_end()).unwrap(),
        pitchfork::protocol::Response::Stats { .. }
    ));
    drop(writer);

    // An oversized line (no newline in sight) is answered with an
    // error and the connection closes — the daemon never buffers more
    // than the protocol cap.
    let oversized = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let mut big_reader = BufReader::new(oversized.try_clone().unwrap());
    let mut big_writer = oversized;
    let chunk = vec![b'x'; pitchfork::protocol::MAX_LINE_BYTES + 2];
    big_writer.write_all(&chunk).unwrap();
    let mut line = String::new();
    big_reader.read_line(&mut line).expect("server answers before EOF");
    assert!(
        matches!(
            pitchfork::protocol::Response::parse(line.trim_end()).unwrap(),
            pitchfork::protocol::Response::Error { .. }
        ),
        "oversized line → {line:?}"
    );
    line.clear();
    assert_eq!(
        big_reader.read_line(&mut line).unwrap(),
        0,
        "the desynced connection is closed, not reused"
    );

    // Unknown jobs and unassemblable sources are errors/failures, not
    // hangs.
    let mut client = Client::connect(&sock).unwrap();
    assert!(client.status(pitchfork::JobId::from_u64(999)).is_err());
    let id = client
        .submit_source("bad", "definitely not assembly !!!", JobSpec::default())
        .expect("bad sources are accepted then failed");
    let view = client.wait(id, WAIT).expect("terminal immediately");
    assert_eq!(view.status, JobStatus::Failed);
    assert!(view.error.is_some());

    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn retire_starts_a_new_epoch() {
    let _guard = lock();
    let (p, cfg) = fig1();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("sct_session_retire_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut session = AnalysisSession::builder()
        .v1_mode(16)
        .cache(&path)
        .build()
        .unwrap();
    assert!(session.cache_load().is_none(), "no snapshot yet");
    let before = session.analyze(&p, &cfg);
    let reloaded = session.retire().unwrap().expect("snapshot written");
    assert!(reloaded.added > 0, "warm start hydrates nodes");
    assert_eq!(session.epochs_retired(), 1);
    let after = session.analyze(&p, &cfg);
    assert_eq!(before.verdict(), after.verdict());
    assert_eq!(before.stats.states, after.stats.states);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retire_policy_cycles_epochs_under_service() {
    let _guard = lock();
    let cache = temp_path("policy", "cache");
    let _ = std::fs::remove_file(&cache);
    let session = SessionBuilder::new()
        .v1_mode(16)
        .cache(&cache)
        .build()
        .unwrap();
    let mut svc = SessionService::with_policy(session, RetirePolicy::every_jobs(2));
    let epochs_before = svc.session().epochs_retired();
    let (p, cfg) = fig1();
    for i in 0..4 {
        svc.submit(Job::new(format!("fig1-{i}"), p.clone(), cfg.clone()));
    }
    svc.run_pending();
    let stats = svc.stats();
    assert_eq!(stats.jobs_done, 4);
    assert_eq!(
        stats.epochs_retired as usize - epochs_before,
        2,
        "retire every 2 jobs over 4 jobs"
    );
    assert!(
        stats.last_reload_nodes > 0,
        "cache-backed retirement warm-starts: {stats:?}"
    );
    assert!(svc.last_retire_error().is_none());
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn retire_defers_while_jobs_in_flight() {
    let _guard = lock();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let mut svc = SessionService::new(session);
    let (p, cfg) = fig1();
    svc.submit(Job::new("held", p, cfg));
    let prepared = svc.begin_next().expect("queued job");
    assert_eq!(svc.in_flight(), 1);
    let epochs_before = svc.session().epochs_retired();
    // Retiring now would invalidate the prepared job's ExprRefs: the
    // service defers instead of retiring under it.
    assert!(matches!(svc.retire(), Ok(None)));
    assert_eq!(svc.session().epochs_retired(), epochs_before);
    let finished = prepared.run();
    assert!(finished.report().verdict().is_insecure());
    svc.finish(finished);
    assert_eq!(svc.in_flight(), 0);
    // The deferred retirement was applied by the last finisher, and
    // the job's record survived it.
    assert_eq!(svc.session().epochs_retired(), epochs_before + 1);
    assert_eq!(svc.stats().jobs_done, 1);
}

#[test]
fn concurrent_job_workers_serve_parallel_submissions() {
    let _guard = lock();
    let sock = temp_path("jobs", "sock");
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let service = SessionService::new(session);
    let server = Server::bind_with_workers(&sock, service, 3).unwrap();
    let source = fig1_source();
    let mut client = Client::connect(&sock).unwrap();
    // Burst-submit: with 3 job workers the daemon runs several at
    // once; all must complete with the batch-mode verdict.
    let ids: Vec<_> = (0..6)
        .map(|i| {
            client
                .submit_source(format!("fig1-{i}"), source.clone(), JobSpec::default())
                .unwrap()
        })
        .collect();
    let mut session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let (p, cfg) = fig1();
    let direct = session.analyze(&p, &cfg);
    for (i, id) in ids.into_iter().enumerate() {
        let view = client.wait(id, WAIT).unwrap();
        assert_eq!(view.status, JobStatus::Done);
        assert_eq!(view.verdict.as_ref(), Some(&direct.verdict()));
        let stats = view.stats.expect("done job has stats");
        assert_eq!(stats.states, direct.stats.states);
        // Event streams stayed per-job under concurrency: each log has
        // exactly its job's expansions and closes with its own
        // terminal event.
        let mut events = Vec::new();
        client
            .stream_events(id, 0, |e| events.push(e.clone()))
            .unwrap();
        let expanded = events
            .iter()
            .filter(|e| matches!(e, OwnedEvent::StateExpanded { .. }))
            .count();
        assert_eq!(expanded, stats.states);
        assert!(
            matches!(
                events.last(),
                Some(OwnedEvent::ItemFinished { name, flagged: true, .. })
                    if *name == format!("fig1-{i}")
            ),
            "{:?}",
            events.last()
        );
    }
    let stats = client.shutdown().unwrap();
    assert_eq!(stats.jobs_done, 6);
    server.wait();
}

// ----- fleet mode ---------------------------------------------------------

/// A TCP loopback daemon on an OS-assigned port.
fn serve_tcp(options: ServerOptions) -> Server {
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    Server::bind_endpoint(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        SessionService::new(session),
        1,
        options,
    )
    .expect("bind tcp loopback")
}

#[test]
fn tcp_daemon_authenticates_and_enforces_quota() {
    let _guard = lock();
    let server = serve_tcp(ServerOptions {
        token: Some("sesame".to_string()),
        max_jobs_per_client: 2,
        ..ServerOptions::default()
    });
    let addr = server.local_addr().to_string();
    let source = fig1_source();

    // A wrong token errors and the daemon closes the connection.
    let mut intruder = Client::connect_addr(&addr).expect("connect");
    assert!(matches!(
        intruder.hello("open says me"),
        Err(ClientError::Server(m)) if m.contains("invalid token")
    ));
    assert!(intruder.stats().is_err(), "wrong-token connection is closed");

    // Requests before the handshake are rejected, connection stays up.
    let mut hasty = Client::connect_addr(&addr).expect("connect");
    assert!(matches!(
        hasty.stats(),
        Err(ClientError::Server(m)) if m.contains("authentication required")
    ));
    hasty.hello("sesame").expect("handshake after a rejection");
    hasty.stats().expect("authenticated requests flow");

    // The per-client quota bites on the third submission.
    let id1 = hasty
        .submit_source("q1", source.clone(), JobSpec::default())
        .expect("first submit");
    let id2 = hasty
        .submit_source("q2", source.clone(), JobSpec::default())
        .expect("second submit");
    assert!(matches!(
        hasty.submit_source("q3", source.clone(), JobSpec::default()),
        Err(ClientError::Server(m)) if m.contains("quota")
    ));
    assert_eq!(hasty.wait(id1, WAIT).unwrap().status, JobStatus::Done);
    assert_eq!(hasty.wait(id2, WAIT).unwrap().status, JobStatus::Done);
    // A fresh connection gets a fresh quota.
    let mut next = Client::connect_addr(&addr).unwrap();
    next.hello("sesame").unwrap();
    let id3 = next.submit_source("q3", source, JobSpec::default()).unwrap();
    assert_eq!(next.wait(id3, WAIT).unwrap().status, JobStatus::Done);

    // Cancelling a terminal job is an idempotent no-op; unknown ids
    // are errors.
    next.cancel(id3).expect("terminal cancel is a no-op");
    assert_eq!(next.status(id3).unwrap().status, JobStatus::Done);
    assert!(next.cancel(pitchfork::JobId::from_u64(999)).is_err());

    next.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn cancelling_a_running_job_stops_it_cooperatively() {
    let _guard = lock();
    let session = SessionBuilder::new().v1_mode(16).build().unwrap();
    let mut svc = SessionService::new(session);
    let (p, cfg) = fig1();
    let id = svc.submit(Job::new("doomed", p, cfg));
    let prepared = svc.begin_next().expect("queued job");
    assert_eq!(svc.status(id), Some(JobStatus::Running));
    // Cancel while the job is mid-run: the explorer observes the flag
    // at its next budget check and stops with a truncated report.
    assert_eq!(svc.monitor().request_cancel(id), Some(JobStatus::Running));
    svc.finish(prepared.run());
    assert_eq!(svc.status(id), Some(JobStatus::Cancelled));
    let rec = svc.record(id).expect("record");
    assert!(
        rec.report.expect("cancelled jobs keep their partial report").stats.truncated,
        "a cancelled exploration reports as truncated"
    );
    let stats = svc.stats();
    assert_eq!(stats.jobs_cancelled, 1);
    assert_eq!(stats.jobs_done, 0, "cancelled jobs do not count as done");
}

#[test]
fn seed_warm_starts_a_daemon_over_the_wire() {
    let _guard = lock();
    // Produce a genuine snapshot: analyze fig1, save the cache.
    let cache = temp_path("seed_src", "cache");
    let _ = std::fs::remove_file(&cache);
    let mut donor = SessionBuilder::new().v1_mode(16).cache(&cache).build().unwrap();
    let (p, cfg) = fig1();
    let _ = donor.analyze_symbolic(&p, &cfg, &[RA]);
    donor.save().expect("save snapshot").expect("snapshot written");
    let snapshot = std::fs::read(&cache).expect("read snapshot bytes");

    let server = serve_tcp(ServerOptions::default());
    let addr = server.local_addr().to_string();
    let mut client = Client::connect_addr(&addr).unwrap();
    // Garbage is rejected without poisoning the connection.
    assert!(matches!(client.seed(b"not a snapshot"), Err(ClientError::Server(_))));
    // The real snapshot hydrates; the daemon's stats carry the exact
    // import counts the response reported.
    let (nodes, verdicts) = client.seed(&snapshot).expect("seed");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.seed_nodes_added, nodes);
    assert_eq!(stats.seed_verdicts_imported, verdicts);
    // A post-seed submission runs against the hydrated memo/arena and
    // still answers with the canonical verdict.
    let id = client
        .submit_source(
            "fig1",
            fig1_source(),
            JobSpec {
                symbolic: vec![RA],
                ..JobSpec::default()
            },
        )
        .unwrap();
    let view = client.wait(id, WAIT).unwrap();
    assert_eq!(view.status, JobStatus::Done);
    assert!(view.verdict.unwrap().is_insecure());

    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn coordinator_merges_fleet_verdicts_byte_identically() {
    let _guard = lock();
    let options = ServerOptions {
        token: Some("fleet".to_string()),
        max_jobs_per_client: 0,
        ..ServerOptions::default()
    };
    let s1 = serve_tcp(options.clone());
    let s2 = serve_tcp(options);
    let manifest: Vec<ManifestEntry> = (0..5)
        .map(|i| ManifestEntry {
            name: format!("fig1-{i}.sasm"),
            source: fig1_source(),
        })
        .collect();
    // Single-process baseline: the same entries through a plain
    // session, rendered with the shared report-line formatter.
    let baseline: Vec<String> = manifest
        .iter()
        .map(|entry| {
            let mut session = SessionBuilder::new().v1_mode(16).build().unwrap();
            let (p, cfg) = fig1();
            let report = session.analyze_symbolic(&p, &cfg, &[RA]);
            fleet::report_line(
                &entry.name,
                report.verdict(),
                report.stats.states,
                report.stats.schedules,
                report.stats.strategy,
                report.stats.truncated,
            )
        })
        .collect();
    let fleet_options = FleetOptions {
        workers: vec![s1.local_addr().to_string(), s2.local_addr().to_string()],
        token: Some("fleet".to_string()),
        spec: JobSpec {
            symbolic: vec![RA],
            ..JobSpec::default()
        },
        ..FleetOptions::default()
    };
    let progress = Mutex::new(Vec::new());
    let report = fleet::run_fleet(&manifest, &fleet_options, |line| {
        progress.lock().unwrap().push(line);
    })
    .expect("fleet run");
    assert_eq!(report.failed(), 0, "outcomes: {:?}", report.outcomes);
    let merged: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| o.line.clone().expect("completed entry"))
        .collect();
    assert_eq!(
        merged, baseline,
        "fleet verdict lines must be byte-identical to batch mode, in manifest order"
    );
    assert_eq!(report.flagged(), manifest.len(), "fig1 flags everywhere");

    for server in [&s1, &s2] {
        let mut c = Client::connect_addr(server.local_addr()).unwrap();
        c.hello("fleet").unwrap();
        c.shutdown().unwrap();
    }
    s1.wait();
    s2.wait();
}

#[test]
fn coordinator_survives_a_worker_dying_mid_run() {
    let _guard = lock();
    let survivor = serve_tcp(ServerOptions::default());
    // A fake worker that accepts exactly one connection, then goes
    // away for good: first the listener closes (no reconnects), then
    // the accepted connection drops mid-conversation (EOF on the
    // in-flight entry).
    let fake = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let fake_addr = fake.local_addr().unwrap().to_string();
    let killer = std::thread::spawn(move || {
        let accepted = fake.accept().map(|(conn, _)| conn);
        drop(fake);
        if let Ok(conn) = accepted {
            // Give the coordinator a moment to send its submit into
            // the doomed connection.
            std::thread::sleep(Duration::from_millis(30));
            drop(conn);
        }
    });
    let manifest: Vec<ManifestEntry> = (0..6)
        .map(|i| ManifestEntry {
            name: format!("fig1-{i}.sasm"),
            source: fig1_source(),
        })
        .collect();
    let fleet_options = FleetOptions {
        workers: vec![survivor.local_addr().to_string(), fake_addr],
        spec: JobSpec {
            symbolic: vec![RA],
            ..JobSpec::default()
        },
        ..FleetOptions::default()
    };
    let progress = Mutex::new(Vec::new());
    let report = fleet::run_fleet(&manifest, &fleet_options, |line| {
        progress.lock().unwrap().push(line);
    })
    .expect("fleet run");
    killer.join().unwrap();
    // Every entry completed despite the dead worker: whatever the fake
    // took was requeued to the survivor.
    assert_eq!(report.failed(), 0, "outcomes: {:?}", report.outcomes);
    assert!(
        report.outcomes.iter().all(|o| o.line.is_some() && o.worker == Some(0)),
        "all verdicts come from the survivor: {:?}",
        report.outcomes
    );

    let mut c = Client::connect_addr(survivor.local_addr()).unwrap();
    c.shutdown().unwrap();
    survivor.wait();
}
