//! CLI smoke tests: run the `pitchfork` binary on corpus-shaped inputs
//! and check exit codes and output.

use std::io::Write as _;
use std::process::Command;

fn run_cli(args: &[&str]) -> (String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_pitchfork"))
        .args(args)
        .output()
        .expect("pitchfork binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (text, out.status.code())
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pitchfork_cli_{}_{}.sasm", name, std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const GADGET: &str = r"
.entry start
.reg ra = 9
.public 0x40 = 1, 0, 2, 1
.secret 0x48 = 0x11, 0x22, 0x33, 0x44
start:
    br gt(4, ra), then, out
then:
    rb = load [0x40, ra]
    rc = load [0x44, rb]
out:
";

#[test]
fn flags_a_gadget_with_exit_code_one() {
    let path = write_temp("gadget", GADGET);
    let (text, code) = run_cli(&["--bound", "16", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("VIOLATION"), "{text}");
}

/// Two programs whose sequential run leaks, which the explorer once
/// called secure: a leak behind a fence (the path was dropped at the
/// fence), and a load whose symbolic address was pinned to a secret
/// cell that an older in-flight store had overwritten with a public
/// value. Both must be flagged in v1 and v4 mode.
#[test]
fn leaks_behind_a_fence_or_a_shadowing_store_are_flagged() {
    for fixture in ["fence_then_leak", "store_shadows_secret"] {
        let path = format!("{}/tests/fixtures/{fixture}.sasm", env!("CARGO_MANIFEST_DIR"));
        for mode in [&[][..], &["--fwd-hazards"][..]] {
            let (text, code) = run_cli(&[mode, &["--symbolic", "ra", &path]].concat());
            assert_eq!(code, Some(1), "{fixture} {mode:?}: {text}");
            let line = format!("{fixture}.sasm: VIOLATION");
            assert!(text.contains(&line), "{fixture} {mode:?}: {text}");
        }
    }
}

#[test]
fn verbose_mode_prints_schedules() {
    let path = write_temp("verbose", GADGET);
    let (text, code) = run_cli(&["--verbose", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1));
    assert!(text.contains("schedule:"), "{text}");
    assert!(text.contains("fetch"), "{text}");
}

#[test]
fn clean_program_exits_zero() {
    let clean = "start:\n    ra = add 1, 2\n";
    let path = write_temp("clean", clean);
    let (text, code) = run_cli(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("secure"), "{text}");
}

#[test]
fn parse_errors_exit_two() {
    let path = write_temp("bad", "start:\n    bogus ra\n");
    let (text, code) = run_cli(&[path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(2), "{text}");
    assert!(text.contains("unknown mnemonic"), "{text}");
}

#[test]
fn missing_file_exits_two() {
    let (_, code) = run_cli(&["/nonexistent/file.sasm"]);
    assert_eq!(code, Some(2));
}

#[test]
fn usage_on_no_files() {
    let (text, code) = run_cli(&[]);
    assert_eq!(code, Some(2));
    assert!(text.contains("usage"), "{text}");
}

#[test]
fn strategy_flag_selects_the_frontier_order() {
    let path = write_temp("strategy", GADGET);
    for strategy in ["lifo", "fifo"] {
        let (text, code) = run_cli(&["--strategy", strategy, "--bound", "16", path.to_str().unwrap()]);
        assert_eq!(code, Some(1), "{strategy}: {text}");
        assert!(text.contains("VIOLATION"), "{strategy}: {text}");
        assert!(
            text.contains(&format!("strategy {strategy}")),
            "{strategy}: {text}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_strategy_exits_two() {
    let path = write_temp("badstrategy", GADGET);
    // The deleted priority orders are unknown names like any other.
    for strategy in ["bogo", "deepest-rob", "violation-likely"] {
        let (text, code) = run_cli(&["--strategy", strategy, path.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{strategy}: {text}");
        assert!(text.contains("unknown strategy"), "{strategy}: {text}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cache_flag_goes_cold_then_warm() {
    let gadget = write_temp("cache_gadget", GADGET);
    let mut cache = std::env::temp_dir();
    cache.push(format!("pitchfork_cli_cache_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&cache);

    // First run: cold start, then a snapshot is saved.
    let args = [
        "--cache",
        cache.to_str().unwrap(),
        "--symbolic",
        "ra",
        gadget.to_str().unwrap(),
    ];
    let (text, code) = run_cli(&args);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("cache: cold start"), "{text}");
    assert!(text.contains("cache: saved"), "{text}");
    assert!(cache.exists(), "snapshot file must be written");

    // Second run: warm start with a non-zero node count, same verdict.
    let (text, code) = run_cli(&args);
    std::fs::remove_file(&gadget).ok();
    std::fs::remove_file(&cache).ok();
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("cache: warm start"), "{text}");
    let warm_nodes: usize = text
        .lines()
        .find(|l| l.contains("warm start"))
        .and_then(|l| l.split(": ").nth(2))
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    assert!(warm_nodes > 0, "warm start must hydrate nodes: {text}");
    assert!(text.contains("VIOLATION"), "{text}");
}
