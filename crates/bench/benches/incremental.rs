//! Bench: incremental re-analysis — a cold CI-gate pass over the
//! litmus corpus versus a one-line-edit resubmit against the baseline
//! the cold pass saved.
//!
//! Records the acceptance numbers in `BENCH_incremental.json`: after
//! editing a single corpus entry, the diff-aware resubmit must
//! re-explore under 20% of the cold run's states
//! (`reexplored_fraction`), and the fence-removal edit must surface as
//! a detected regression. Phases are separated by
//! [`sct_symx::retire_arena`], exactly like separate CLI invocations of
//! `pitchfork ci-gate`.

use pitchfork::incremental::save_baseline;
use pitchfork::{BaselineManifest, BatchItem, DetectorOptions, IncrementalReport, SessionBuilder};
use sct_core::Reg;
use sct_symx::retire_arena;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const BOUND: usize = 16;
/// The corpus entry the "one-line edit" mutates: dropping its fence
/// reintroduces the Spectre v1 leak the fence suppressed, so the edit
/// both dirties exactly one fingerprint and flips a verdict.
const EDIT_TARGET: &str = "spectre_v1_fenced";

fn baseline_dir() -> PathBuf {
    std::env::temp_dir().join(format!("sct_bench_incremental_{}", std::process::id()))
}

/// The shipped corpus as symbolic-`ra` batch items, optionally with
/// the one-line fence-removal edit applied to [`EDIT_TARGET`].
fn corpus_items(edit: bool) -> Vec<BatchItem> {
    let ra = Reg::parse("ra").expect("ra parses");
    sct_litmus::corpus::entries()
        .iter()
        .map(|e| {
            let mut source = e.source.to_string();
            if edit && e.name == EDIT_TARGET {
                source = source
                    .lines()
                    .filter(|l| l.trim() != "fence")
                    .collect::<Vec<_>>()
                    .join("\n");
            }
            let asm = sct_asm::assemble(&source).expect("corpus entry assembles");
            BatchItem::new(e.name, asm.program, asm.config).symbolize([ra])
        })
        .collect()
}

/// One `ci-gate`-shaped pass: a fresh session warm-started from the
/// baseline directory's pruned snapshot (cold start when absent), run
/// through the diff planner.
fn gate_pass(dir: &Path, items: Vec<BatchItem>, baseline: &BaselineManifest) -> IncrementalReport {
    let options = DetectorOptions::v1_mode(BOUND);
    let cache = dir.join(BaselineManifest::CACHE_NAME);
    let mut session = match SessionBuilder::new().options(options).cache(&cache).build() {
        Ok(s) => s,
        Err(_) => {
            let mut s = SessionBuilder::new()
                .options(options)
                .build()
                .expect("cache-less session build cannot fail");
            s.attach_cache(&cache);
            s
        }
    };
    session.analyze_incremental(items, baseline)
}

fn main() {
    // `cargo bench` passes harness flags; a plain main ignores them.
    let dir = baseline_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("baseline dir");

    // Cold gate: empty epoch, empty baseline — every entry is New. It
    // seeds the baseline the replay and one-edit runs diff against.
    retire_arena();
    let cold = gate_pass(&dir, corpus_items(false), &BaselineManifest::empty());
    save_baseline(&dir, &cold.manifest).expect("baseline saves");
    let baseline = BaselineManifest::load_dir(&dir).expect("baseline loads");

    write_incremental_stats(&dir, &baseline, &cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One representative cold / replay / one-edit triple, recording the
/// acceptance-criteria numbers.
fn write_incremental_stats(dir: &Path, baseline: &BaselineManifest, cold: &IncrementalReport) {
    let cold_states = cold.states_explored;
    let cold_wall = cold.wall;

    retire_arena();
    let replay_start = Instant::now();
    let replay = gate_pass(dir, corpus_items(false), baseline);
    let replay_wall = replay_start.elapsed();

    retire_arena();
    let edit_start = Instant::now();
    let edited = gate_pass(dir, corpus_items(true), baseline);
    let edit_wall = edit_start.elapsed();

    let reexplored_fraction = edited.states_explored as f64 / cold_states.max(1) as f64;
    let speedup = cold_wall.as_secs_f64() / edit_wall.as_secs_f64().max(1e-9);
    let regressions: Vec<String> = edited
        .regressions()
        .iter()
        .map(|o| o.name.clone())
        .collect();

    let manifest = sct_bench::manifest::RunManifest::capture(
        &format!(
            "incremental litmus_corpus_v1_symbolic bound={BOUND} edit={EDIT_TARGET} entries={}",
            cold.outcomes.len()
        ),
        0,
        &[1],
    );
    let mut json = String::from("{\n");
    json.push_str(&manifest.json_fields("  "));
    let _ = writeln!(json, "  \"workload\": \"litmus corpus, symbolic ra, v1 mode\",");
    let _ = writeln!(json, "  \"bound\": {BOUND},");
    let _ = writeln!(json, "  \"entries\": {},", cold.outcomes.len());
    let _ = writeln!(json, "  \"edit_target\": \"{EDIT_TARGET}\",");
    let _ = writeln!(json, "  \"cold_wall_ms\": {},", cold_wall.as_millis());
    let _ = writeln!(json, "  \"cold_states\": {cold_states},");
    let _ = writeln!(json, "  \"replay_wall_us\": {},", replay_wall.as_micros());
    let _ = writeln!(json, "  \"replay_reused\": {},", replay.reused);
    let _ = writeln!(json, "  \"replay_states\": {},", replay.states_explored);
    let _ = writeln!(json, "  \"edit_wall_ms\": {},", edit_wall.as_millis());
    let _ = writeln!(json, "  \"edit_reused\": {},", edited.reused);
    let _ = writeln!(json, "  \"edit_reanalyzed\": {},", edited.reanalyzed);
    let _ = writeln!(json, "  \"edit_states\": {},", edited.states_explored);
    let _ = writeln!(json, "  \"edit_skip_ratio\": {:.4},", edited.skip_ratio());
    let _ = writeln!(json, "  \"reexplored_fraction\": {reexplored_fraction:.4},");
    let _ = writeln!(
        json,
        "  \"under_20pct\": {},",
        reexplored_fraction < 0.20
    );
    let _ = writeln!(json, "  \"edit_speedup\": {speedup:.1},");
    let regs: Vec<String> = regressions.iter().map(|n| format!("\"{n}\"")).collect();
    let _ = writeln!(json, "  \"regressions\": [{}],", regs.join(", "));
    let _ = writeln!(
        json,
        "  \"regression_detected\": {}",
        regressions.iter().any(|n| n == EDIT_TARGET)
    );
    json.push_str("}\n");

    let out_dir = sct_bench::manifest::output_dir();
    let path = out_dir.join("BENCH_incremental.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
    let _ = manifest.append_audit(&out_dir, "BENCH_incremental.json");
    println!(
        "incremental one-edit resubmit: {}/{} states ({:.1}% of cold), {:.0}x faster, regression {}",
        edited.states_explored,
        cold_states,
        100.0 * reexplored_fraction,
        speedup,
        if regressions.iter().any(|n| n == EDIT_TARGET) {
            "detected"
        } else {
            "MISSED"
        }
    );
}
