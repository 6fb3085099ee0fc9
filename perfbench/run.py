#!/usr/bin/env python3
"""End-to-end benchmark of the `pitchfork` and `reproduce` release binaries.

Run from the root of the repository:

    python3 perfbench/run.py --workload symbolic_cold --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

  symbolic_cold    pitchfork --symbolic ra over the litmus corpus plus
                   seeded proggen programs, one fresh process per pass
  table2_concrete  reproduce --table 2 (the paper's Table 2)
  gate_replay      pitchfork ci-gate --symbolic ra over the litmus corpus
                   plus ~1,000 proggen programs against a baseline built
                   at set-up, with a seeded one-immediate edit in ~1% of
                   the entries

Each run builds the binaries (cargo, into $CARGO_TARGET_DIR or
.bench_build), sets the workload up, then runs passes closed-loop, one
process at a time, for --seconds seconds, repeating the set-up at even
intervals in between. Every pass
runs under perfbench-spawn, which times it and reads the analysing
process's own ru_maxrss. With --trace 1 the timed loop alternates CLI
passes with traced passes (`perfbench trace`) and reports per-layer
metrics instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. The lines before it name every metric with its unit, the
pass count, the provenance of the run and every wrong verdict.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("symbolic_cold", "table2_concrete", "gate_replay")
# Proggen programs per workload, beside the 23 litmus files. Analysis
# costs of proggen programs are heavy-tailed (over 1,500 programs: median
# 0.6 ms, p99 38 ms, max 2.6 s), so the cost of a symbolic_cold pass
# depends on the seed more, the more programs it draws. With 3 programs
# the seed moves the pass by a few ms around the litmus corpus's ~95 ms;
# with 10, ten seeds spread the pass by up to half its median.
# gate_replay replays its programs, which costs about the same for every
# program.
PROGRAMS = {"symbolic_cold": 3, "table2_concrete": 0, "gate_replay": 1000}
EDIT_SHARE = 0.01
SETUPS = 5
PASS_TIMEOUT_S = 60
# Table 2 of the paper: (C build, FaCT build) for each case study.
PAPER_TABLE2 = {
    "curve25519-donna": ("✓", "✓"),
    "libsodium secretbox": ("✗", "✓"),
    "OpenSSL ssl3 record validate": ("✗", "f"),
    "OpenSSL MEE-CBC": ("✗", "f"),
}
REPORT_LINE = re.compile(
    r"^(?P<file>\S+): (?P<verdict>secure \(within bound\)|VIOLATION|unknown \(budget exhausted\)) "
    r"\((?P<states>\d+) states, (?P<schedules>\d+) schedules explored, strategy \w+(?:, truncated)?\)$"
)
GATE_SUMMARY = re.compile(r"^ci-gate: (\d+) entries — (\d+) replayed, (\d+) re-analyzed;", re.M)
IMMEDIATE = re.compile(r"0x[0-9a-f]+")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def run(cmd, cwd, env, timeout=PASS_TIMEOUT_S):
    """Run `cmd` in its own session and wait for it; on timeout kill the
    whole session, so no grandchild outlives the benchmark."""
    proc = subprocess.Popen(
        [str(c) for c in cmd], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out, err


def build(root):
    for needed in ("Cargo.toml", "crates/pitchfork/src/main.rs", "crates/litmus/corpus"):
        if not (root / needed).exists():
            raise BenchError(f"{needed} not found: run from the root of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = root / env["CARGO_TARGET_DIR"]
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pitchfork", "--bin", "pitchfork",
         "-p", "sct-bench", "--bin", "reproduce"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        code, out, err = run(cmd, root, env, timeout=1800)
        sys.stderr.write(out + err)
        if code != 0:
            raise BenchError(f"`{' '.join(cmd)}` failed with exit code {code}")
    return {n: target / "release" / n for n in ("pitchfork", "reproduce", "perfbench", "perfbench-spawn")}


class Pass:
    def __init__(self, wall_ns, rss_kb, code, out, err):
        self.wall_ms = wall_ns / 1e6
        self.rss_mb = rss_kb / 1024
        self.code, self.out, self.err = code, out, err


class Bench:
    def __init__(self, root, workload, seed, bins):
        self.root, self.workload, self.seed, self.bins = root, workload, seed, bins
        self.work = root / ".perfbench" / workload
        # Telemetry on and no injected faults: the CLI as users run it.
        self.env = {k: v for k, v in os.environ.items() if k not in ("SCT_TELEMETRY", "SCT_FAULTS")}
        self.files, self.edited, self.cold_lines = [], [], {}
        self.integrity = []  # broken invariants; any one makes the run incorrect

    # ----- one process under perfbench-spawn ------------------------------

    def spawn(self, cmd, cwd, tag="pass"):
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        code, stdout, stderr = run([self.bins["perfbench-spawn"], out, err, *cmd], cwd, self.env)
        if code != 0:
            raise BenchError(f"perfbench-spawn failed: {stderr.strip()}")
        wall_ns, rss_kb, exit_code = map(int, stdout.split())
        return Pass(wall_ns, rss_kb, exit_code, out.read_text(), err.read_text())

    # ----- set-up ---------------------------------------------------------

    def setup(self, k):
        """Generate the inputs into a fresh directory; on gate_replay build
        the baseline with a cold gate and apply the seeded edits."""
        self.dir = self.work / f"setup{k}"
        self.inputs = self.dir / "inputs"
        self.inputs.mkdir(parents=True)
        if self.workload == "table2_concrete":
            return
        for f in sorted((self.root / "crates/litmus/corpus").glob("*.sasm")):
            shutil.copyfile(f, self.inputs / f.name)
        count = PROGRAMS[self.workload]
        code, _, err = run([self.bins["perfbench"], "gen", self.seed, count, self.inputs], self.root, self.env)
        if code != 0:
            raise BenchError(f"perfbench gen failed: {err.strip()}")
        self.files = sorted(f.name for f in self.inputs.glob("*.sasm"))
        if self.workload == "gate_replay":
            self.cold_gate()

    def cold_gate(self):
        pristine = self.dir / "baseline.pristine"
        cold = self.spawn(self.gate_cmd(pristine), self.inputs, "cold")
        if cold.code != 0:
            self.integrity.append(f"cold ci-gate exited {cold.code}: {cold.err.strip()[-200:]}")
        self.cold_lines = dict(zip(self.files, cold.out.splitlines()))
        # Edit only entries the baseline calls insecure: an edit can then
        # never be a Secure->Insecure regression, so every pass of the
        # gate passes (exit 0) and replays the same plan.
        insecure = [f for f in self.files if f.startswith("gen_") and ": VIOLATION (" in self.cold_lines.get(f, "")]
        rng = random.Random(self.seed)
        n = max(1, round(EDIT_SHARE * len(self.files)))
        self.edited = sorted(rng.sample(insecure, min(n, len(insecure))))
        for name in self.edited:
            path = self.inputs / name
            lines = path.read_text().splitlines(keepends=True)
            sites = [(i, m) for i, line in enumerate(lines)
                     if line.startswith("    ") for m in IMMEDIATE.finditer(line)]
            i, m = rng.choice(sites)
            value = int(m.group(), 16) ^ (1 << rng.randrange(3))
            lines[i] = lines[i][:m.start()] + hex(value) + lines[i][m.end():]
            path.write_text("".join(lines))

    def inputs_hash(self):
        h = hashlib.sha256()
        for name in self.files:
            h.update(name.encode() + b"\0" + (self.inputs / name).read_bytes() + b"\0")
        return h.hexdigest()

    # ----- one pass -------------------------------------------------------

    def gate_cmd(self, baseline):
        return [self.bins["pitchfork"], "ci-gate", "--baseline", baseline, "--symbolic", "ra", *self.files]

    def prepare(self):
        """Before every pass, outside the timed region: give the gate the
        pristine baseline, so every pass replays the same plan."""
        if self.workload == "gate_replay":
            shutil.rmtree(self.dir / "baseline", ignore_errors=True)
            shutil.copytree(self.dir / "baseline.pristine", self.dir / "baseline")

    def cli_pass(self):
        self.prepare()
        if self.workload == "symbolic_cold":
            return self.spawn([self.bins["pitchfork"], "--symbolic", "ra", *self.files], self.inputs)
        if self.workload == "table2_concrete":
            return self.spawn([self.bins["reproduce"], "--table", "2"], self.inputs)
        return self.spawn(self.gate_cmd(self.dir / "baseline"), self.inputs)

    def traced_pass(self):
        self.prepare()
        spans = self.work / "spans.pass.json"
        cmd = [self.bins["perfbench"], "trace", spans, self.workload]
        if self.workload == "gate_replay":
            cmd.append(self.dir / "baseline")
        p = self.spawn(cmd + self.files, self.inputs, "trace")
        p.spans = json.loads(spans.read_text())["spans"] if spans.exists() else []
        return p

    # ----- verdict checks ---------------------------------------------------

    def entries(self):
        return len(PAPER_TABLE2) * 2 if self.workload == "table2_concrete" else len(self.files)

    def judge(self, ref):
        """Check the reference pass's verdicts. Returns the wrong verdicts
        as (entry, reason); records broken invariants in self.integrity."""
        if self.workload == "table2_concrete":
            return self.judge_table2(ref)
        code, out, err = run([self.bins["perfbench"], "seqleaks", *self.files], self.inputs, self.env)
        if code != 0:
            raise BenchError(f"perfbench seqleaks failed: {err.strip()}")
        leaks = set(out.split())
        lines = ref.out.splitlines()
        if len(lines) != len(self.files):
            self.integrity.append(f"{len(lines)} verdict lines for {len(self.files)} entries")
        wrong, any_violation = [], False
        for name, line in zip(self.files, lines):
            m = REPORT_LINE.match(line)
            if not m or m["file"] != name:
                self.integrity.append(f"{name}: malformed verdict line {line!r}")
                continue
            any_violation |= m["verdict"] == "VIOLATION"
            # Every input terminates, so an exhaustive search completes at
            # least one schedule: `secure` after none is not a verdict. A
            # secret-labelled observation on the sequential path is a leak
            # under every speculation bound.
            if m["verdict"].startswith("secure"):
                if m["schedules"] == "0":
                    wrong.append((name, "secure with 0 schedules explored"))
                elif name in leaks:
                    wrong.append((name, "secure, but the sequential reference run leaks"))
            if self.workload == "gate_replay" and name not in self.edited and line != self.cold_lines.get(name):
                self.integrity.append(f"{name}: replayed line differs from the baseline's")
        expect = 0 if self.workload == "gate_replay" else int(any_violation)
        if ref.code != expect:
            self.integrity.append(f"exit code {ref.code}, expected {expect}")
        return wrong

    def judge_table2(self, ref):
        wrong = []
        for study, paper in PAPER_TABLE2.items():
            row = next((line for line in ref.out.splitlines() if line.startswith(study + " ")), None)
            got = tuple(row.split()[-2:]) if row else ("missing", "missing")
            for build, want, have in zip(("C", "FaCT"), paper, got):
                if want != have:
                    wrong.append((f"{study}/{build}", f"{have}, paper {want}"))
        if ref.code != 0:
            self.integrity.append(f"exit code {ref.code}, expected 0")
        return wrong

    def same_as(self, p, ref):
        """A pass is good when it printed exactly the reference's lines with
        the reference's exit code, and a gate replayed the planned counts."""
        if p.code != ref.code or p.out != ref.out:
            return False
        if self.workload == "gate_replay":
            m = GATE_SUMMARY.search(p.err)
            n = len(self.files)
            return bool(m) and tuple(map(int, m.groups())) == (n, n - len(self.edited), len(self.edited))
        return True

    def cross_check(self):
        """One-shot lines for the symbolic_cold file set must equal the
        gate's lines for every unedited file both analyse."""
        shared = [f for f in self.files if f not in self.edited
                  and (not f.startswith("gen_") or int(f[4:8]) < PROGRAMS["symbolic_cold"])]
        code, out, err = run([self.bins["pitchfork"], "--symbolic", "ra", *shared], self.inputs, self.env)
        for name, line in zip(shared, out.splitlines()):
            if line != self.cold_lines.get(name):
                self.integrity.append(f"{name}: one-shot and ci-gate lines differ")
        if code not in (0, 1) or len(out.splitlines()) != len(shared):
            self.integrity.append(f"one-shot cross-check exited {code}: {err.strip()[-200:]}")


def quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def verdict_rate(walls, n, chunks=10):
    """Verdicts per second of pass wall time: the median over `chunks`
    consecutive, equal groups of passes, so a slow phase of the host that
    covers less than half the run does not move it."""
    k = max(1, len(walls) // chunks)
    return statistics.median(n * k / (sum(walls[i:i + k]) / 1e3) for i in range(0, len(walls) - k + 1, k))


def layer_metrics(p):
    """Per-layer numbers of one traced pass. Every layer span is a child of
    the process's `main` span; whatever the pass spent outside them
    (process start, file reads, output) is the CLI shell's self time."""
    span_ms, counts = {}, {}
    for s in p.spans:
        if s["parent"] is None:
            continue
        span_ms[s["name"]] = span_ms.get(s["name"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e6
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    main = next((s for s in p.spans if s["parent"] is None), {"counts": {}})
    c = lambda k: counts.get(k, 0)
    expand_ms, hit_ms, miss_ms = c("expand_ns") / 1e6, c("hit_ns") / 1e6, c("miss_ns") / 1e6
    return {
        "symx.miss_ms": miss_ms,
        "symx.us_per_miss": miss_ms * 1e3 / c("memo_misses") if c("memo_misses") else 0.0,
        "symx.memo_misses": c("memo_misses"),
        "symx.hit_ms": hit_ms,
        "symx.memo_hit_ratio": c("memo_hits") / c("queries") if c("queries") else 0.0,
        "symx.queries": c("queries"),
        "symx.arena_nodes": main["counts"].get("arena_nodes", 0),
        "explorer.analyze_ms": span_ms.get("AnalysisSession::analyze", 0.0)
        + span_ms.get("AnalysisSession::run_batch", 0.0),
        "explorer.expand_ms": expand_ms,
        "explorer.self_ms": expand_ms - hit_ms - miss_ms,
        "explorer.us_per_state": expand_ms * 1e3 / c("expand_count") if c("expand_count") else 0.0,
        "explorer.states": c("states"),
        "explorer.steps": c("steps"),
        "explorer.deduped": c("deduped"),
        "explorer.dedup_ratio": c("deduped") / (c("states") + c("deduped")) if c("states") else 0.0,
        "asm.assemble_ms": span_ms.get("sct_asm::assemble", 0.0),
        "incremental.manifest_load_ms": span_ms.get("BaselineManifest::load_dir", 0.0),
        "incremental.analyze_ms": span_ms.get("AnalysisSession::analyze_incremental", 0.0),
        "incremental.baseline_save_ms": span_ms.get("save_baseline", 0.0),
        "incremental.reused": c("reused"),
        "incremental.reanalyzed": c("reanalyzed"),
        "cache.load_ms": span_ms.get("SessionBuilder::build", 0.0),
        "cache.snapshot_bytes": c("snapshot_bytes"),
        "cli.self_ms": p.wall_ms - sum(span_ms.values()),
        "trace.pass_ms": p.wall_ms,
    }


# What the traced run must show for each workload to measure the layer it
# was chosen for: (description, test on the per-layer medians).
LAYER_CHECKS = {
    "symbolic_cold": ("symx.miss_ms >= 80% of explorer.analyze_ms",
                      lambda m: m["symx.miss_ms"] >= 0.8 * m["explorer.analyze_ms"]),
    "table2_concrete": ("symx.queries = 0 and explorer.expand_ms >= 90% of trace.pass_ms",
                        lambda m: m["symx.queries"] == 0 and m["explorer.expand_ms"] >= 0.9 * m["trace.pass_ms"]),
    "gate_replay": ("asm + manifest load + incremental analyze + baseline save + cache load >= 60% of trace.pass_ms",
                    lambda m: m["asm.assemble_ms"] + m["incremental.manifest_load_ms"] + m["incremental.analyze_ms"]
                    + m["incremental.baseline_save_ms"] + m["cache.load_ms"] >= 0.6 * m["trace.pass_ms"]),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bins = build(root)

    b = Bench(root, args.workload, args.seed, bins)
    shutil.rmtree(b.work, ignore_errors=True)
    b.work.mkdir(parents=True)
    floor_mb = b.spawn([bins["perfbench-spawn"]], root, "floor").rss_mb

    # Set-up: input generation, the cold gate, and one discarded warm-up
    # pass, timed as a whole. The first set-up precedes every timed pass;
    # the repeats are spread over the timed loop, so the reported median
    # sees the host at the same moments as the passes. On a shared
    # 2-vCPU KVM guest each vCPU switches between a fast and a 1.5x
    # slower state about once a second, so back-to-back repeats would
    # all read one state.
    setup_s, hashes, warmups = [], set(), []

    def set_up():
        t0 = time.perf_counter()
        b.setup(len(setup_s))
        warmups.append(b.cli_pass())
        setup_s.append(time.perf_counter() - t0)
        hashes.add(b.inputs_hash())

    set_up()
    ref = warmups[0]
    wrong = b.judge(ref)
    if b.workload == "gate_replay":
        b.cross_check()

    # Timed loop: closed, one process at a time, for --seconds seconds of
    # passes; the set-up repeats pause it.
    cli, traced = [], []
    start = time.monotonic()
    elapsed = lambda: time.monotonic() - start - sum(setup_s[1:])
    while elapsed() < args.seconds:
        if len(setup_s) < SETUPS and elapsed() >= len(setup_s) * args.seconds / SETUPS:
            set_up()
            continue
        cli.append(b.cli_pass())
        if args.trace:
            traced.append(b.traced_pass())
    if len(hashes) != 1 or not all(b.same_as(p, ref) for p in warmups):
        b.integrity.append("set-ups differ in their inputs or warm-up lines")
    good = [p for p in cli if b.same_as(p, ref)]
    good_traced = [p for p in traced if b.same_as(p, ref)]
    if len(good) < len(cli):
        b.integrity.append(f"{len(cli) - len(good)} of {len(cli)} passes differ from the warm-up pass")
    if len(good_traced) < len(traced):
        b.integrity.append(f"{len(traced) - len(good_traced)} traced passes differ from the CLI's")
    if not good or (args.trace and not good_traced):
        raise BenchError("no pass printed the warm-up pass's lines")

    # Every pass must print the warm-up pass's lines, or the run is
    # incorrect, so the verdicts are judged once, on the warm-up pass:
    # `attempted` and `failed` depend on the seed alone, not on how many
    # passes fit in the run.
    n = b.entries()
    attempted, failed = n, len(wrong)
    walls = [p.wall_ms for p in good]

    config = (f"workload={b.workload} programs={PROGRAMS[b.workload]} litmus=23 bound=20 symbolic=ra "
              f"edits={len(b.edited)} setups={SETUPS} seconds={args.seconds:g} trace={args.trace}")
    code, manifest, err = run([bins["perfbench"], "manifest", args.seed, config], root, b.env)
    if code != 0:
        raise BenchError(f"perfbench manifest failed: {err.strip()}")
    provenance = dict(json.loads(manifest), workload=b.workload, inputs_sha256=b.inputs_hash(),
                      entries=n, edited=b.edited, rss="ru_maxrss of each pass process, read by perfbench-spawn",
                      spawner_rss_mb=floor_mb)
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")

    if args.trace:
        per_pass = [layer_metrics(p) for p in good_traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_frac"] = values["trace.pass_ms"] / statistics.median(walls) - 1
        declared = spec["per_layer"]
        spans = []
        for i, p in enumerate(traced):
            spans.append({"name": "pass", "start_ns": 0, "end_ns": round(p.wall_ms * 1e6), "parent": None, "pass": i})
            spans += [dict(s, parent=s["parent"] or "pass", **{"pass": i}) for s in p.spans]
        (b.work / "spans.json").write_text(json.dumps(spans))
        print(f"passes {len(traced)} traced, {len(cli)} CLI; spans in {b.work / 'spans.json'}")
        what, holds = LAYER_CHECKS[b.workload]
        print(f"layer check {'holds' if holds(values) else 'DOES NOT HOLD'}: {what}")
    else:
        rss = [p.rss_mb for p in good]
        values = {
            "wall_ms.p50": statistics.median(walls),
            "wall_ms.p90": quantile(walls, 0.9),
            "entries_per_s": verdict_rate(walls, n),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setup_s),
        }
        declared = spec["end_to_end"]
        print(f"passes {len(cli)} ({len(walls) - 1 - int(0.9 * len(walls))} beyond p90)")
        if min(rss) <= floor_mb:
            print(f"note: peak RSS {min(rss):.2f} MB is the spawner's own {floor_mb:.2f} MB, not the pass's")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} verdicts wrong)")
    for reason in sorted({r for _, r in wrong}):
        names = [name for name, r in wrong if r == reason]
        print(f"wrong verdicts ({len(names)}, {reason}): {' '.join(names)}")
    for problem in b.integrity:
        print(f"check failed: {problem}")

    result = {"correct": not b.integrity, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, provenance=provenance, setup_s=setup_s, pass_ms=[p.wall_ms for p in cli],
                  traced_pass_ms=[p.wall_ms for p in traced], wrong=wrong, checks_failed=b.integrity)
    (b.work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
