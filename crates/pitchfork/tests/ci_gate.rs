//! The incremental CI gate as one piece of code: the remote gate
//! (`ci-gate --connect`) must print and record exactly what the local
//! gate does, whatever defaults the daemon was started with; and a
//! result that is not the analysis its fingerprint names must never
//! replace the entry's baseline record.

use pitchfork::server::Server;
use pitchfork::service::SessionService;
use pitchfork::{
    BaselineEntry, BaselineManifest, BatchItem, DetectorOptions, EntryPlan, ExploreStats,
    IncrementalGate, IncrementalReport, SessionBuilder, StrategyKind, Verdict,
};
use sct_core::examples::fig1;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sct_ci_gate_{label}_{}", std::process::id()))
}

/// The litmus corpus files, in name order.
fn corpus_files() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../litmus/corpus");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("litmus corpus dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sasm"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    files
}

/// Run `pitchfork ci-gate --baseline DIR EXTRA... --symbolic ra` over
/// `files` and check it passed; returns stdout, stderr and the exit code.
fn gate(baseline: &Path, extra: &[&OsStr], files: &[String]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_pitchfork"))
        .args(["ci-gate", "--baseline"])
        .arg(baseline)
        .args(extra)
        .args(["--symbolic", "ra"])
        .args(files)
        .output()
        .expect("pitchfork binary runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let stderr = text(&out.stderr);
    assert!(stderr.contains("ci-gate: PASS"), "stderr: {stderr}");
    (text(&out.stdout), stderr, out.status.code())
}

/// A daemon whose own defaults (bound 2, `fifo`) differ from the
/// gate's must still run exactly the fingerprinted analysis: the remote
/// gate's stdout and manifest equal a cold local gate's, and a local
/// gate on the remote gate's baseline replays the same lines — no
/// replayed false `secure`.
#[test]
fn remote_gate_matches_the_local_gate_whatever_the_daemon_defaults() {
    let files = corpus_files();
    let session = SessionBuilder::new()
        .bound(2)
        .strategy(StrategyKind::Fifo)
        .build()
        .expect("cache-less session build cannot fail");
    let sock = temp_path("daemon.sock");
    let server = Server::bind(&sock, SessionService::new(session)).expect("bind socket");
    let (remote_dir, local_dir) = (temp_path("remote"), temp_path("local"));
    let _ = std::fs::remove_dir_all(&remote_dir);
    let _ = std::fs::remove_dir_all(&local_dir);

    let remote = ["--connect".as_ref(), sock.as_os_str()];
    let (remote_cold, _, remote_code) = gate(&remote_dir, &remote, &files);
    let (remote_warm, ..) = gate(&remote_dir, &remote, &files);
    server.shutdown();
    server.wait();
    let (local_cold, _, local_code) = gate(&local_dir, &[], &files);
    let (local_on_remote, ..) = gate(&remote_dir, &[], &files);

    assert_eq!(remote_code, local_code);
    assert_eq!(remote_cold, local_cold, "the remote gate ran another analysis");
    assert_eq!(remote_warm, local_cold);
    assert_eq!(local_on_remote, local_cold, "a local gate replayed another verdict");
    let manifest = |dir: &Path| std::fs::read(dir.join(BaselineManifest::FILE_NAME)).unwrap();
    assert_eq!(manifest(&remote_dir), manifest(&local_dir), "manifests differ");
    let v1 = local_on_remote
        .lines()
        .find(|l| l.contains("/spectre_v1.sasm: "))
        .expect("spectre_v1 has a verdict line");
    assert!(v1.contains(": VIOLATION ("), "{v1}");
    let _ = std::fs::remove_dir_all(&remote_dir);
    let _ = std::fs::remove_dir_all(&local_dir);
}

// ----- what the gate records ----------------------------------------------

/// `ci-gate --deadline-ms 1` cuts short the deep v4 fixture, whose full
/// exploration (about 42,000 states) takes hundreds of milliseconds, so
/// the gate prints `unknown`, says so on stderr, and leaves the entry
/// out of a fresh baseline.
#[test]
fn ci_gate_applies_the_deadline_and_records_nothing_it_cut_short() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/deep_v4_chain.sasm")
        .to_string_lossy()
        .into_owned();
    let dir = temp_path("deadline");
    let _ = std::fs::remove_dir_all(&dir);
    let extra = ["--mode", "v4", "--deadline-ms", "1"].map(OsStr::new);
    let (stdout, stderr, code) = gate(&dir, &extra, std::slice::from_ref(&file));
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with(&format!("{file}: unknown")), "{stdout}");
    let note = format!("ci-gate: {file}: cut short by its deadline; not recorded in the baseline");
    assert!(stderr.contains(&note), "{stderr}");
    assert!(dir.join(BaselineManifest::FILE_NAME).exists(), "baseline promoted");
    let manifest = BaselineManifest::load_dir(&dir).expect("manifest readable");
    assert!(manifest.get(&file).is_none(), "a deadline-cut result was recorded");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A baseline in the version-1 format (per-block hashes, stored report
/// lines) is rejected whole: the gate says why, analyses every entry
/// cold — so a stale `secure` is never replayed — and promotes a
/// version-2 baseline.
#[test]
fn a_version_1_baseline_is_rejected_and_the_gate_runs_cold() {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fence_then_leak.sasm")
        .to_string_lossy()
        .into_owned();
    let dir = temp_path("v1_baseline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let v1 = format!(
        "{{\"manifest\":\"pitchfork-baseline\",\"version\":1,\"entries\":1}}\n\
         {{\"entry\":\"{file}\",\"fp\":1,\"blocks\":[[1,2]],\"verdict\":\"secure\",\
         \"witnesses\":0,\"explored\":0,\"line\":\"{file}: secure (within bound) \
         (2 states, 0 schedules explored, strategy lifo)\",\"states\":2,\"schedules\":0,\
         \"strategy\":\"lifo\",\"truncated\":false}}\n"
    );
    std::fs::write(dir.join(BaselineManifest::FILE_NAME), v1).unwrap();
    let (stdout, stderr, code) = gate(&dir, &[], std::slice::from_ref(&file));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("baseline version 1 not supported"), "{stderr}");
    assert!(stderr.contains("running full cold analysis"), "{stderr}");
    assert!(stderr.contains("1 entries — 0 replayed, 1 re-analyzed"), "{stderr}");
    assert!(stdout.starts_with(&format!("{file}: VIOLATION (")), "{stdout}");
    let manifest = BaselineManifest::load_dir(&dir).expect("a version-2 baseline was promoted");
    assert!(manifest.get(&file).is_some_and(|e| e.verdict.is_insecure()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verdict block goes out through one buffered write; a reader that
/// has already gone (`ci-gate ... | head -0`) must still leave the gate
/// quiet: no panic, no error, the same exit code and baseline.
#[test]
fn a_closed_stdout_leaves_the_gate_quiet() {
    let dir = temp_path("closed_stdout");
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pitchfork"))
        .args(["ci-gate", "--baseline"])
        .arg(&dir)
        .args(["--symbolic", "ra"])
        .args(corpus_files())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("pitchfork binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("gate finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("ci-gate: PASS"), "{stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("Broken pipe"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn stats(states: usize, deadline_exceeded: bool) -> ExploreStats {
    ExploreStats {
        states,
        schedules: 3,
        truncated: deadline_exceeded,
        deadline_exceeded,
        ..ExploreStats::default()
    }
}

/// One gate run over `fig1` (at `bound`, or the options' 16),
/// recording a synthesized result.
fn run(
    baseline: &BaselineManifest,
    bound: Option<usize>,
    verdict: Verdict,
    stats: &ExploreStats,
    clamped: bool,
) -> IncrementalReport {
    let (program, config) = fig1();
    let item = BatchItem { bound, ..BatchItem::new("fig1", program, config) };
    let (gate, dirty) = IncrementalGate::plan(baseline, &DetectorOptions::v1_mode(16), [item]);
    assert_eq!(dirty.len(), 1, "fig1 is dirty or new");
    gate.finish([(verdict, *stats, clamped)])
}

/// A secure baseline record for `fig1` at the options' bound.
fn secure_baseline() -> (BaselineManifest, BaselineEntry) {
    let cold = run(&BaselineManifest::empty(), None, Verdict::Secure, &stats(7, false), false);
    let record = cold.manifest.get("fig1").expect("recorded").clone();
    (cold.manifest, record)
}

#[test]
fn a_result_the_deadline_cut_short_keeps_the_previous_record() {
    let (baseline, secure) = secure_baseline();
    let unknown = Verdict::Unknown { explored: 2 };
    let report = run(&baseline, Some(4), unknown, &stats(2, true), false);
    let o = &report.outcomes[0];
    assert!(matches!(o.plan, EntryPlan::Dirty));
    assert_eq!(o.verdict, unknown);
    assert!(o.line.starts_with("fig1: unknown"), "{}", o.line);
    assert!(report.regressions().is_empty());
    assert_eq!(report.manifest.get("fig1"), Some(&secure), "carried forward unchanged");

    // The next run still plans against the secure record, so a flip to
    // insecure is a regression, not a new entry.
    let insecure = Verdict::Insecure { witnesses: 1 };
    let next = run(&report.manifest, Some(4), insecure, &stats(9, false), false);
    assert!(matches!(next.outcomes[0].plan, EntryPlan::Dirty));
    assert_eq!(next.regressions().len(), 1);
    assert_eq!(next.manifest.get("fig1").map(|e| e.verdict), Some(insecure));
}

#[test]
fn a_result_under_a_clamped_budget_keeps_the_previous_record() {
    let (baseline, secure) = secure_baseline();
    let insecure = Verdict::Insecure { witnesses: 1 };
    let report = run(&baseline, Some(4), insecure, &stats(3, false), true);
    assert_eq!(report.outcomes[0].verdict, insecure);
    assert_eq!(report.outcomes[0].unrecorded, Some("state budget clamped by the daemon"));
    assert_eq!(report.regressions().len(), 1, "a found violation still fails the gate");
    assert_eq!(report.manifest.get("fig1"), Some(&secure));
}
