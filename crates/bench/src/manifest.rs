//! Per-run provenance for bench artifacts.
//!
//! Every bench that emits a `BENCH_*.json` artifact stamps it with a
//! [`RunManifest`] — the git commit, a hash of the measurement
//! configuration, the steal seed, the host's CPU count, and the thread
//! counts exercised — and appends one line to `audit.jsonl` next to
//! the artifact, both in [`output_dir`]. The manifest answers "what
//! produced this number?" months later, and the audit log accumulates
//! a local history of runs so a regression can be bisected against the
//! environment (a 1-CPU CI container and an 8-core workstation produce
//! very different "speedups"; without `host_cpus` in the artifact they
//! are indistinguishable).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Provenance captured once per bench invocation.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// `git rev-parse HEAD` at run time (`"unknown"` outside a
    /// checkout or when git is unavailable — never an error: a bench
    /// must run from a tarball too).
    pub git_commit: String,
    /// FNV-1a hash of the bench's rendered configuration string
    /// (bounds, rep counts, workload names). Two artifacts with equal
    /// `config_hash` measured the same thing.
    pub config_hash: u64,
    /// The deterministic seed the run used (0 = default victim
    /// rotation for work-stealing benches; benches without a seeded
    /// component pass 0).
    pub seed: u64,
    /// CPUs available to this process when the run started.
    pub host_cpus: usize,
    /// Worker-thread counts the bench exercised.
    pub threads: Vec<usize>,
}

impl RunManifest {
    /// Capture a manifest now: resolve the git commit, hash `config`,
    /// and record the host parallelism.
    pub fn capture(config: &str, seed: u64, threads: &[usize]) -> RunManifest {
        RunManifest {
            git_commit: git_head(),
            config_hash: fnv1a(config.as_bytes()),
            seed,
            host_cpus: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            threads: threads.to_vec(),
        }
    }

    /// The manifest as JSON object *fields* (no braces), indented for
    /// embedding into a hand-rolled `BENCH_*.json` artifact.
    pub fn json_fields(&self, indent: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{indent}\"git_commit\": \"{}\",",
            escape(&self.git_commit)
        );
        let _ = writeln!(out, "{indent}\"config_hash\": \"{:016x}\",", self.config_hash);
        let _ = writeln!(out, "{indent}\"seed\": {},", self.seed);
        let _ = writeln!(out, "{indent}\"host_cpus\": {},", self.host_cpus);
        let threads: Vec<String> = self.threads.iter().map(|t| t.to_string()).collect();
        let _ = writeln!(out, "{indent}\"threads\": [{}],", threads.join(", "));
        out
    }

    /// Append one audit line for `artifact` to `audit.jsonl` in `dir`
    /// (created on first use). Each line is a self-contained JSON
    /// object: unix timestamp, artifact name, and the manifest.
    pub fn append_audit(&self, dir: &Path, artifact: &str) -> std::io::Result<()> {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let threads: Vec<String> = self.threads.iter().map(|t| t.to_string()).collect();
        let line = format!(
            "{{\"ts\": {ts}, \"artifact\": \"{}\", \"git_commit\": \"{}\", \
             \"config_hash\": \"{:016x}\", \"seed\": {}, \"host_cpus\": {}, \
             \"threads\": [{}]}}\n",
            escape(artifact),
            escape(&self.git_commit),
            self.config_hash,
            self.seed,
            self.host_cpus,
            threads.join(", ")
        );
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("audit.jsonl"))?;
        f.write_all(line.as_bytes())
    }
}

/// Where `BENCH_*.json` records and `audit.jsonl` land:
/// `$BENCH_OUT_DIR` when set, else the workspace root (the nearest
/// ancestor of the working directory whose `Cargo.toml` declares
/// `[workspace]`; `cargo bench` runs a bench from its package
/// directory), else the working directory.
pub fn output_dir() -> PathBuf {
    if let Ok(d) = std::env::var("BENCH_OUT_DIR") {
        return PathBuf::from(d);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for dir in cwd.ancestors() {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml"));
        if manifest.is_ok_and(|t| t.contains("[workspace]")) {
            return dir.to_path_buf();
        }
    }
    cwd
}

/// `git rev-parse HEAD`, or `"unknown"`.
fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// 64-bit FNV-1a (the artifact only needs a stable fingerprint, not a
/// cryptographic digest).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_stable_per_config() {
        let a = RunManifest::capture("workload=x bound=20", 0, &[1, 2, 4]);
        let b = RunManifest::capture("workload=x bound=20", 0, &[1, 2, 4]);
        let c = RunManifest::capture("workload=x bound=21", 0, &[1, 2, 4]);
        assert_eq!(a.config_hash, b.config_hash);
        assert_ne!(a.config_hash, c.config_hash);
        assert!(a.host_cpus >= 1);
        assert!(!a.git_commit.is_empty());
    }

    #[test]
    fn json_fields_carry_every_provenance_key() {
        let m = RunManifest::capture("cfg", 7, &[1, 8]);
        let fields = m.json_fields("  ");
        for key in ["git_commit", "config_hash", "seed", "host_cpus", "threads"] {
            assert!(fields.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(fields.contains("\"seed\": 7"));
        assert!(fields.contains("[1, 8]"));
    }

    #[test]
    fn audit_lines_append() {
        let dir = std::env::temp_dir().join(format!("sct-bench-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = RunManifest::capture("cfg", 0, &[1]);
        m.append_audit(&dir, "BENCH_test.json").unwrap();
        m.append_audit(&dir, "BENCH_test.json").unwrap();
        let log = std::fs::read_to_string(dir.join("audit.jsonl")).unwrap();
        assert_eq!(log.lines().count(), 2);
        assert!(log.lines().all(|l| l.contains("\"artifact\": \"BENCH_test.json\"")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
