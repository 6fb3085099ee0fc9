//! Incremental re-analysis: program-region fingerprints, persisted
//! baselines, and the diff planner behind `pitchfork ci-gate`.
//!
//! A CI gate re-checks the same corpus on every commit, but a commit
//! touches one or two entries — re-exploring the other twenty from
//! scratch is pure waste. This module makes the re-run proportional to
//! the diff:
//!
//! * [`block_hashes`] / [`config_tag`] / [`entry_fingerprint`] — a
//!   stable fingerprint per corpus entry, built from each basic block's
//!   instruction text plus the analysis configuration (bound, mode,
//!   strategy, budgets, symbolized registers). Re-parsing an unchanged
//!   file reproduces the fingerprint bit-for-bit; editing a single
//!   instruction changes its block's hash and therefore the entry
//!   fingerprint.
//! * [`BaselineManifest`] — fingerprints and verdict summaries from a
//!   previous run, persisted as line-oriented JSON next to the pruned
//!   warm-start snapshot ([`save_baseline`] writes both).
//! * [`plan_entry`] — the diff planner: classify each entry as
//!   [`EntryPlan::Unchanged`] (replay the baseline verdict, zero
//!   exploration), [`EntryPlan::Dirty`] (re-explore against the warm
//!   memo), or [`EntryPlan::New`].
//! * [`IncrementalGate`] — the gate itself: plans a batch, replays the
//!   unchanged entries, takes a fresh result for every other one, and
//!   builds the [`IncrementalReport`].
//!
//! [`crate::AnalysisSession::analyze_incremental`] runs the gate with
//! its own session as the analyser; `pitchfork ci-gate --connect` runs
//! the same gate with a daemon as the analyser. The `ci-gate` CLI verb
//! turns the report into an exit code (any entry flipping from
//! non-insecure to insecure fails the gate).

use crate::batch::BatchItem;
use crate::detector::DetectorOptions;
use crate::protocol::Json;
use crate::report::{ExploreStats, Verdict};
use sct_core::{Instr, Pc, Program, Reg};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::time::Instant;

// ----- FNV-1a 64 ----------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ----- Region fingerprints ------------------------------------------------

/// Hash every basic block of `program`: `(leader pc, FNV-1a 64 over the
/// block's `(pc, instruction text)` sequence)`, sorted by leader.
///
/// Leaders are the entry point, every branch/call target, and every
/// program point with a static in-degree other than one; a block runs
/// from its leader along explicit successor points until the next
/// leader or a terminator. The partition only has to be *stable* (the
/// same program always hashes the same way) and *sensitive* (any
/// single-instruction edit lands in some block's hash) — it is not used
/// for codegen, so unreachable instructions simply become their own
/// single-instruction blocks.
pub fn block_hashes(program: &Program) -> Vec<(Pc, u64)> {
    let mut preds: BTreeMap<Pc, usize> = BTreeMap::new();
    let mut leaders: BTreeSet<Pc> = BTreeSet::new();
    leaders.insert(program.entry);
    for (_, instr) in program.iter() {
        let succs: Vec<Pc> = match instr {
            Instr::Br { tru, fls, .. } => {
                leaders.insert(*tru);
                leaders.insert(*fls);
                vec![*tru, *fls]
            }
            Instr::Call { callee, ret } => {
                leaders.insert(*callee);
                leaders.insert(*ret);
                vec![*callee, *ret]
            }
            _ => instr.next().into_iter().collect(),
        };
        for s in succs {
            *preds.entry(s).or_insert(0) += 1;
        }
    }
    for (pc, _) in program.iter() {
        if preds.get(&pc).copied().unwrap_or(0) != 1 {
            leaders.insert(pc);
        }
    }

    let mut visited: BTreeSet<Pc> = BTreeSet::new();
    let mut blocks = Vec::new();
    for &leader in &leaders {
        if program.fetch(leader).is_none() || visited.contains(&leader) {
            continue;
        }
        let mut hash = Fnv::new();
        let mut pc = leader;
        while let Some(instr) = program.fetch(pc) {
            visited.insert(pc);
            hash.write_u64(pc);
            hash.write(instr.to_string().as_bytes());
            match instr.next() {
                Some(n)
                    if !leaders.contains(&n)
                        && !visited.contains(&n)
                        && program.fetch(n).is_some() =>
                {
                    pc = n;
                }
                _ => break,
            }
        }
        blocks.push((leader, hash.finish()));
    }
    // Anything not swept above (straight-line cycles unreachable from
    // any leader) still has to land in the fingerprint: one block per
    // orphan instruction.
    for (pc, instr) in program.iter() {
        if !visited.contains(&pc) {
            let mut hash = Fnv::new();
            hash.write_u64(pc);
            hash.write(instr.to_string().as_bytes());
            blocks.push((pc, hash.finish()));
        }
    }
    blocks.sort_unstable_by_key(|&(pc, _)| pc);
    blocks
}

/// Hash the parts of the analysis configuration that can change a
/// verdict: bound, mode flags, budgets, strategy, machine parameters,
/// and the symbolized-register set. Worker-thread count and the
/// steal-timing seed are deliberately excluded — they never change
/// verdicts (the parallel engine's determinism contract).
pub fn config_tag(options: &DetectorOptions, bound: usize, symbolic: &[Reg]) -> u64 {
    let e = &options.explorer;
    let mut h = Fnv::new();
    h.write_u64(bound as u64);
    h.write(&[
        e.forwarding_hazards as u8,
        e.alias_prediction as u8,
        e.jmpi_mistraining as u8,
        e.dedup_states as u8,
        e.stop_path_on_violation as u8,
    ]);
    h.write_u64(e.jmpi_target_cap as u64);
    h.write_u64(e.max_states as u64);
    h.write_u64(e.max_violations as u64);
    h.write(e.strategy.name().as_bytes());
    h.write(format!("{:?}", options.params).as_bytes());
    for r in symbolic {
        h.write_u64(r.0 as u64);
    }
    h.finish()
}

/// Combine a program's block hashes with its configuration tag into the
/// per-entry fingerprint the baseline manifest is keyed by.
pub fn entry_fingerprint(blocks: &[(Pc, u64)], tag: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(tag);
    h.write_u64(blocks.len() as u64);
    for &(pc, hash) in blocks {
        h.write_u64(pc);
        h.write_u64(hash);
    }
    h.finish()
}

// ----- The baseline manifest ----------------------------------------------

/// One entry of a [`BaselineManifest`]: the fingerprint a verdict was
/// computed under, the per-block hashes (so a re-run can say *how much*
/// changed), and the verdict summary needed to replay the entry without
/// exploring anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// The corpus entry / file name the fingerprint belongs to.
    pub name: String,
    /// [`entry_fingerprint`] of the program + configuration.
    pub fingerprint: u64,
    /// [`block_hashes`] of the program (sorted by leader pc).
    pub blocks: Vec<(Pc, u64)>,
    /// The baseline verdict.
    pub verdict: Verdict,
    /// The exact per-file report line the baseline run printed
    /// (replayed byte-identically for unchanged entries).
    pub line: String,
    /// States the baseline exploration expanded (what a replay skips).
    pub states: usize,
    /// Complete schedules the baseline exploration ran.
    pub schedules: usize,
    /// The frontier order the baseline ran under.
    pub strategy: String,
    /// Whether the baseline exploration hit its budget.
    pub truncated: bool,
}

/// Why a baseline manifest could not be read.
#[derive(Debug)]
pub enum BaselineError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A line failed to parse or was missing a required field.
    Parse(String),
    /// The file's format version is not ours (stale baselines are
    /// rebuilt, not migrated).
    Version(u64),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Io(e) => write!(f, "baseline io error: {e}"),
            BaselineError::Parse(e) => write!(f, "baseline parse error: {e}"),
            BaselineError::Version(v) => write!(f, "baseline version {v} not supported"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<std::io::Error> for BaselineError {
    fn from(e: std::io::Error) -> Self {
        BaselineError::Io(e)
    }
}

/// Fingerprints and verdict summaries from a previous run, persisted as
/// line-oriented JSON (a header line, then one object per entry) so the
/// gate's inputs stay greppable and diffable in CI artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineManifest {
    entries: Vec<BaselineEntry>,
}

/// Manifest format version (bumped on incompatible layout changes; an
/// unknown version is rejected and the baseline rebuilt from scratch).
pub const BASELINE_VERSION: u64 = 1;

impl BaselineManifest {
    /// File name of the manifest inside a `--baseline` directory.
    pub const FILE_NAME: &'static str = "baseline.manifest";
    /// File name of the pruned warm-start snapshot next to it.
    pub const CACHE_NAME: &'static str = "baseline.cache";

    /// An empty manifest (every entry will plan as [`EntryPlan::New`]).
    pub fn empty() -> Self {
        BaselineManifest::default()
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[BaselineEntry] {
        &self.entries
    }

    /// The entry for `name`, if the baseline has one.
    pub fn get(&self, name: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Insert or replace the entry for `entry.name`.
    pub fn upsert(&mut self, entry: BaselineEntry) {
        match self.entries.iter_mut().find(|e| e.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Render to the line-oriented JSON format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        Json::Obj(vec![
            ("manifest".into(), Json::Str("pitchfork-baseline".into())),
            ("version".into(), Json::Int(BASELINE_VERSION as i128)),
            ("entries".into(), Json::Int(self.entries.len() as i128)),
        ])
        .write(&mut out);
        out.push('\n');
        for e in &self.entries {
            let (kind, witnesses, explored) = match e.verdict {
                Verdict::Secure => ("secure", 0, 0),
                Verdict::Insecure { witnesses } => ("insecure", witnesses, 0),
                Verdict::Unknown { explored } => ("unknown", 0, explored),
            };
            let blocks = e
                .blocks
                .iter()
                .map(|&(pc, h)| {
                    Json::Arr(vec![Json::Int(pc as i128), Json::Int(h as i128)])
                })
                .collect();
            Json::Obj(vec![
                ("entry".into(), Json::Str(e.name.clone())),
                ("fp".into(), Json::Int(e.fingerprint as i128)),
                ("blocks".into(), Json::Arr(blocks)),
                ("verdict".into(), Json::Str(kind.into())),
                ("witnesses".into(), Json::Int(witnesses as i128)),
                ("explored".into(), Json::Int(explored as i128)),
                ("line".into(), Json::Str(e.line.clone())),
                ("states".into(), Json::Int(e.states as i128)),
                ("schedules".into(), Json::Int(e.schedules as i128)),
                ("strategy".into(), Json::Str(e.strategy.clone())),
                ("truncated".into(), Json::Bool(e.truncated)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse the line-oriented JSON format (tolerant of unknown object
    /// fields, like the wire protocol).
    pub fn from_text(text: &str) -> Result<BaselineManifest, BaselineError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = match lines.next() {
            Some(l) => Json::parse(l).map_err(|e| BaselineError::Parse(e.to_string()))?,
            None => return Ok(BaselineManifest::empty()),
        };
        if header.str_field("manifest").ok() != Some("pitchfork-baseline") {
            return Err(BaselineError::Parse("missing manifest header".into()));
        }
        let version = header
            .u64_field("version")
            .map_err(|e| BaselineError::Parse(e.to_string()))?;
        if version != BASELINE_VERSION {
            return Err(BaselineError::Version(version));
        }
        let mut manifest = BaselineManifest::empty();
        for line in lines {
            let json = Json::parse(line).map_err(|e| BaselineError::Parse(e.to_string()))?;
            let field = |k: &str| -> Result<u64, BaselineError> {
                json.u64_field(k)
                    .map_err(|e| BaselineError::Parse(e.to_string()))
            };
            let verdict = match json
                .str_field("verdict")
                .map_err(|e| BaselineError::Parse(e.to_string()))?
            {
                "secure" => Verdict::Secure,
                "insecure" => Verdict::Insecure {
                    witnesses: field("witnesses")? as usize,
                },
                "unknown" => Verdict::Unknown {
                    explored: field("explored")? as usize,
                },
                other => {
                    return Err(BaselineError::Parse(format!("unknown verdict {other:?}")))
                }
            };
            let mut blocks = Vec::new();
            for item in json
                .arr_field("blocks")
                .map_err(|e| BaselineError::Parse(e.to_string()))?
            {
                match item {
                    Json::Arr(pair) => match pair.as_slice() {
                        [Json::Int(pc), Json::Int(h)]
                            if *pc >= 0
                                && *pc <= u64::MAX as i128
                                && *h >= 0
                                && *h <= u64::MAX as i128 =>
                        {
                            blocks.push((*pc as Pc, *h as u64));
                        }
                        _ => {
                            return Err(BaselineError::Parse(
                                "block hash must be a [pc, hash] pair".into(),
                            ))
                        }
                    },
                    _ => {
                        return Err(BaselineError::Parse(
                            "block hash must be a [pc, hash] pair".into(),
                        ))
                    }
                }
            }
            let str_of = |k: &str| -> Result<String, BaselineError> {
                json.str_field(k)
                    .map(str::to_string)
                    .map_err(|e| BaselineError::Parse(e.to_string()))
            };
            manifest.upsert(BaselineEntry {
                name: str_of("entry")?,
                fingerprint: field("fp")?,
                blocks,
                verdict,
                line: str_of("line")?,
                states: field("states")? as usize,
                schedules: field("schedules")? as usize,
                strategy: str_of("strategy")?,
                truncated: json
                    .bool_field("truncated")
                    .map_err(|e| BaselineError::Parse(e.to_string()))?,
            });
        }
        Ok(manifest)
    }

    /// Read a manifest from `dir/`[`BaselineManifest::FILE_NAME`]; a
    /// missing file is an empty baseline (the cold-start case), a
    /// malformed or version-skewed one is an error.
    pub fn load_dir(dir: &Path) -> Result<BaselineManifest, BaselineError> {
        match std::fs::read_to_string(dir.join(Self::FILE_NAME)) {
            Ok(text) => Self::from_text(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(e.into()),
        }
    }

    /// Write the manifest to `dir/`[`BaselineManifest::FILE_NAME`]
    /// (creating `dir` as needed).
    pub fn save_dir(&self, dir: &Path) -> Result<(), BaselineError> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(Self::FILE_NAME), self.to_text())?;
        Ok(())
    }
}

/// Persist a baseline directory: the manifest plus the
/// reachability-pruned warm-start snapshot ([`sct_cache::save_rooted`]
/// keyed by the verdict memo), bumping the
/// [`sct_telemetry::names::INCR_PRUNE_NODES`] counter with what pruning
/// dropped. Returns the snapshot's [`sct_cache::SaveStats`].
pub fn save_baseline(
    dir: &Path,
    manifest: &BaselineManifest,
) -> Result<sct_cache::SaveStats, BaselineError> {
    manifest.save_dir(dir)?;
    let stats = sct_cache::save_rooted(&dir.join(BaselineManifest::CACHE_NAME), &[])
        .map_err(|e| BaselineError::Parse(e.to_string()))?;
    if sct_telemetry::enabled() {
        sct_telemetry::counter(sct_telemetry::names::INCR_PRUNE_NODES)
            .add(stats.pruned_nodes as u64);
    }
    Ok(stats)
}

// ----- The diff planner ---------------------------------------------------

/// What the diff planner decided for one entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryPlan {
    /// Fingerprint matches the baseline: replay the recorded verdict,
    /// explore nothing.
    Unchanged,
    /// The baseline knows the entry but the fingerprint moved:
    /// re-explore against the warm memo.
    Dirty {
        /// Blocks whose hash differs from (or is absent in) the
        /// baseline, plus baseline blocks that disappeared.
        changed_blocks: usize,
    },
    /// The baseline has never seen this entry.
    New,
}

/// Classify one entry against the baseline.
pub fn plan_entry(
    baseline: &BaselineManifest,
    name: &str,
    fingerprint: u64,
    blocks: &[(Pc, u64)],
) -> EntryPlan {
    let old = match baseline.get(name) {
        Some(e) => e,
        None => return EntryPlan::New,
    };
    if old.fingerprint == fingerprint {
        return EntryPlan::Unchanged;
    }
    let old_blocks: BTreeMap<Pc, u64> = old.blocks.iter().copied().collect();
    let new_blocks: BTreeMap<Pc, u64> = blocks.iter().copied().collect();
    let changed = new_blocks
        .iter()
        .filter(|(pc, h)| old_blocks.get(pc) != Some(h))
        .count()
        + old_blocks
            .keys()
            .filter(|pc| !new_blocks.contains_key(pc))
            .count();
    EntryPlan::Dirty {
        // A pure config change moves the fingerprint with zero block
        // edits; round up so "dirty" always reports at least one.
        changed_blocks: changed.max(1),
    }
}

// ----- Incremental run results --------------------------------------------

/// One entry's outcome in an incremental run.
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The entry's name.
    pub name: String,
    /// What the planner decided.
    pub plan: EntryPlan,
    /// The (replayed or freshly computed) verdict.
    pub verdict: Verdict,
    /// The per-file report line — byte-identical to the baseline's for
    /// replayed entries.
    pub line: String,
    /// States expanded *this run* (0 for replays).
    pub states: usize,
    /// The baseline verdict this entry moved away from, when the entry
    /// was dirty and the verdicts disagree.
    pub flip: Option<Verdict>,
    /// Why a fresh result is not the analysis its fingerprint names, so
    /// the manifest kept the entry's previous record (a new entry has
    /// none, and stays out). `None` for recorded and replayed entries.
    pub unrecorded: Option<&'static str>,
}

impl IncrementalOutcome {
    /// `true` when this entry regressed: it was not insecure in the
    /// baseline and is insecure now — the condition that fails the CI
    /// gate.
    pub fn regressed(&self) -> bool {
        self.verdict.is_insecure() && self.flip.is_some_and(|old| !old.is_insecure())
    }
}

/// The result of [`crate::AnalysisSession::analyze_incremental`].
#[derive(Clone, Debug)]
pub struct IncrementalReport {
    /// Per-entry outcomes, in input order.
    pub outcomes: Vec<IncrementalOutcome>,
    /// Entries replayed from the baseline (zero exploration).
    pub reused: usize,
    /// Entries re-explored (dirty or new).
    pub reanalyzed: usize,
    /// States expanded this run (re-explored entries only).
    pub states_explored: usize,
    /// States the baseline spent on the entries this run replayed —
    /// the exploration the diff planner skipped.
    pub states_skipped: usize,
    /// The refreshed manifest (replayed entries carried over, dirty and
    /// new entries updated) — what [`save_baseline`] persists when the
    /// gate passes.
    pub manifest: BaselineManifest,
    /// Wall-clock time for the whole incremental run.
    pub wall: std::time::Duration,
}

impl IncrementalReport {
    /// Outcomes that fail the gate (see
    /// [`IncrementalOutcome::regressed`]).
    pub fn regressions(&self) -> Vec<&IncrementalOutcome> {
        self.outcomes.iter().filter(|o| o.regressed()).collect()
    }

    /// Fraction of the full run's states the planner skipped:
    /// `skipped / (skipped + explored)`, 0 when nothing was known.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.states_skipped + self.states_explored;
        if total == 0 {
            0.0
        } else {
            self.states_skipped as f64 / total as f64
        }
    }
}

// ----- The gate -----------------------------------------------------------

/// The incremental CI gate: plan every entry against a baseline, replay
/// the unchanged ones, take a fresh result for each dirty or new one,
/// and build the outcomes, the regressions and the refreshed manifest.
///
/// Callers differ only in who analyses the items
/// [`IncrementalGate::plan`] hands back: a local session
/// ([`crate::AnalysisSession::analyze_incremental`]) or a daemon
/// (`pitchfork ci-gate --connect`, which submits each one with every
/// fingerprinted option set explicitly). [`IncrementalGate::finish`]
/// takes their results, in the order `plan` handed the items back.
///
/// The refreshed manifest keeps only results that are the analysis
/// their fingerprint names. A run cut short by its wall-clock deadline
/// (which the fingerprint leaves out), or run under a state budget the
/// daemon clamped, is printed like any other; the entry's previous
/// baseline record, if it has one, is carried forward unchanged, so the
/// next run still compares against it.
pub struct IncrementalGate<'a> {
    start: Instant,
    /// Every entry, in input order.
    entries: Vec<Planned<'a>>,
}

/// One entry as [`IncrementalGate::plan`] left it.
enum Planned<'a> {
    /// Unchanged: replayed from its baseline record.
    Replayed(&'a BaselineEntry),
    /// Dirty or new: waits for a fresh result. `old` is its baseline
    /// record, if it has one.
    Fresh {
        name: String,
        plan: EntryPlan,
        fingerprint: u64,
        blocks: Vec<(Pc, u64)>,
        old: Option<&'a BaselineEntry>,
    },
}

impl<'a> IncrementalGate<'a> {
    /// Plan `items` under `options` (an item's own `bound` overrides
    /// the options' one). Unchanged entries are replayed here; the dirty
    /// and new ones are handed back, in input order, for the caller to
    /// analyse under the same options.
    pub fn plan(
        baseline: &'a BaselineManifest,
        options: &DetectorOptions,
        items: impl IntoIterator<Item = BatchItem>,
    ) -> (IncrementalGate<'a>, Vec<BatchItem>) {
        let (start, mut entries, mut dirty) = (Instant::now(), Vec::new(), Vec::new());
        for item in items {
            let bound = item.bound.unwrap_or(options.explorer.spec_bound);
            let blocks = block_hashes(&item.program);
            let fingerprint =
                entry_fingerprint(&blocks, config_tag(options, bound, &item.symbolic));
            let plan = plan_entry(baseline, &item.name, fingerprint, &blocks);
            let old = baseline.get(&item.name);
            match (plan, old) {
                (EntryPlan::Unchanged, Some(old)) => {
                    if sct_telemetry::enabled() {
                        sct_telemetry::counter(sct_telemetry::names::INCR_REUSE_TOTAL).inc();
                    }
                    entries.push(Planned::Replayed(old));
                }
                _ => {
                    let name = item.name.clone();
                    entries.push(Planned::Fresh { name, plan, fingerprint, blocks, old });
                    dirty.push(item);
                }
            }
        }
        (IncrementalGate { start, entries }, dirty)
    }

    /// The report: outcomes in input order, the replay and exploration
    /// counts, and the refreshed manifest. `results` holds one result
    /// per item [`IncrementalGate::plan`] handed back, in that order:
    /// its verdict, its stats, and whether it ran under a smaller state
    /// budget than the options fingerprinted. An item without a result
    /// is left out.
    pub fn finish(
        self,
        results: impl IntoIterator<Item = (Verdict, ExploreStats, bool)>,
    ) -> IncrementalReport {
        let mut results = results.into_iter();
        let mut report = IncrementalReport {
            outcomes: Vec::with_capacity(self.entries.len()),
            reused: 0,
            reanalyzed: 0,
            states_explored: 0,
            states_skipped: 0,
            manifest: BaselineManifest::empty(),
            wall: Default::default(),
        };
        for entry in self.entries {
            let (outcome, record) = match entry {
                Planned::Replayed(old) => {
                    report.reused += 1;
                    report.states_skipped += old.states;
                    let outcome = IncrementalOutcome {
                        name: old.name.clone(),
                        plan: EntryPlan::Unchanged,
                        verdict: old.verdict,
                        line: old.line.clone(),
                        states: 0,
                        flip: None,
                        unrecorded: None,
                    };
                    (outcome, Some(old.clone()))
                }
                Planned::Fresh { name, plan, fingerprint, blocks, old } => {
                    let Some((verdict, stats, clamped)) = results.next() else {
                        continue;
                    };
                    if sct_telemetry::enabled() {
                        sct_telemetry::counter(sct_telemetry::names::INCR_REANALYZED_TOTAL).inc();
                    }
                    report.reanalyzed += 1;
                    report.states_explored += stats.states;
                    let line = crate::fleet::report_line(
                        &name,
                        verdict,
                        stats.states,
                        stats.schedules,
                        stats.strategy,
                        stats.truncated,
                    );
                    let unrecorded = if clamped {
                        Some("state budget clamped by the daemon")
                    } else {
                        stats.deadline_exceeded.then_some("cut short by its deadline")
                    };
                    let record = match unrecorded {
                        Some(_) => old.cloned(),
                        None => Some(BaselineEntry {
                            name: name.clone(),
                            fingerprint,
                            blocks,
                            verdict,
                            line: line.clone(),
                            states: stats.states,
                            schedules: stats.schedules,
                            strategy: stats.strategy.to_string(),
                            truncated: stats.truncated,
                        }),
                    };
                    let flip = old
                        .map(|e| e.verdict)
                        .filter(|o| std::mem::discriminant(o) != std::mem::discriminant(&verdict));
                    let states = stats.states;
                    let outcome =
                        IncrementalOutcome { name, plan, verdict, line, states, flip, unrecorded };
                    (outcome, record)
                }
            };
            if let Some(record) = record {
                report.manifest.upsert(record);
            }
            report.outcomes.push(outcome);
        }
        report.wall = self.start.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_asm::assemble;
    use sct_core::examples::fig1;

    fn fig1_blocks() -> (Program, Vec<(Pc, u64)>) {
        let (p, _) = fig1();
        let blocks = block_hashes(&p);
        (p, blocks)
    }

    const SOURCE: &str = "\
.entry start
.reg ra = 9
start:
    br gt(4, ra), then, out
then:
    rb = load [0x40, ra]
    rc = load [0x50, rb]
out:
    ret
";

    #[test]
    fn fingerprint_stable_under_reparse() {
        let p1 = assemble(SOURCE).expect("assembles").program;
        let p2 = assemble(SOURCE).expect("assembles again").program;
        assert_eq!(block_hashes(&p1), block_hashes(&p2));
        let opts = DetectorOptions::v1_mode(16);
        let tag = config_tag(&opts, 16, &[]);
        assert_eq!(
            entry_fingerprint(&block_hashes(&p1), tag),
            entry_fingerprint(&block_hashes(&p2), tag),
        );
    }

    #[test]
    fn fingerprint_moves_on_single_instruction_edit() {
        let base = assemble(SOURCE).expect("assembles").program;
        let edited = assemble(&SOURCE.replace("gt(4, ra)", "gt(5, ra)"))
            .expect("assembles")
            .program;
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        assert_ne!(
            entry_fingerprint(&block_hashes(&base), tag),
            entry_fingerprint(&block_hashes(&edited), tag),
        );
        // Exactly one region moved.
        let before: BTreeMap<Pc, u64> = block_hashes(&base).into_iter().collect();
        let after: BTreeMap<Pc, u64> = block_hashes(&edited).into_iter().collect();
        let changed = after
            .iter()
            .filter(|(pc, h)| before.get(pc) != Some(h))
            .count();
        assert_eq!(changed, 1, "{before:?} vs {after:?}");
    }

    #[test]
    fn config_tag_tracks_bound_mode_and_symbolics() {
        let v1 = DetectorOptions::v1_mode(16);
        let v4 = DetectorOptions::v4_mode(16);
        assert_ne!(config_tag(&v1, 16, &[]), config_tag(&v1, 20, &[]));
        assert_ne!(config_tag(&v1, 16, &[]), config_tag(&v4, 16, &[]));
        assert_ne!(
            config_tag(&v1, 16, &[]),
            config_tag(&v1, 16, &[sct_core::reg::names::RA]),
        );
        // Thread count must NOT move the fingerprint.
        let mut threaded = v1;
        threaded.explorer.threads = 8;
        assert_eq!(config_tag(&v1, 16, &[]), config_tag(&threaded, 16, &[]));
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let (p, blocks) = fig1_blocks();
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        let mut m = BaselineManifest::empty();
        m.upsert(BaselineEntry {
            name: "fig1".into(),
            fingerprint: entry_fingerprint(&blocks, tag),
            blocks: blocks.clone(),
            verdict: Verdict::Insecure { witnesses: 2 },
            line: "fig1: VIOLATION (10 states, 4 schedules explored, strategy lifo)".into(),
            states: 10,
            schedules: 4,
            strategy: "lifo".into(),
            truncated: false,
        });
        m.upsert(BaselineEntry {
            name: "other".into(),
            fingerprint: 7,
            blocks: vec![(0, 1)],
            verdict: Verdict::Unknown { explored: 99 },
            line: "other: unknown (budget exhausted) (...)".into(),
            states: 99,
            schedules: 1,
            strategy: "fifo".into(),
            truncated: true,
        });
        let parsed = BaselineManifest::from_text(&m.to_text()).expect("round trip");
        assert_eq!(parsed, m);
        assert_eq!(parsed.get("fig1").unwrap().blocks, blocks);
        let _ = p;
    }

    #[test]
    fn manifest_rejects_version_skew_and_garbage() {
        let skew = "{\"manifest\":\"pitchfork-baseline\",\"version\":2,\"entries\":0}\n";
        assert!(matches!(
            BaselineManifest::from_text(skew),
            Err(BaselineError::Version(2)),
        ));
        assert!(BaselineManifest::from_text("not json\n").is_err());
        assert!(BaselineManifest::from_text("").unwrap().entries().is_empty());
    }

    #[test]
    fn planner_classifies_unchanged_dirty_and_new() {
        let (_, blocks) = fig1_blocks();
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        let fp = entry_fingerprint(&blocks, tag);
        let mut m = BaselineManifest::empty();
        m.upsert(BaselineEntry {
            name: "fig1".into(),
            fingerprint: fp,
            blocks: blocks.clone(),
            verdict: Verdict::Secure,
            line: String::new(),
            states: 1,
            schedules: 1,
            strategy: "lifo".into(),
            truncated: false,
        });
        assert_eq!(plan_entry(&m, "fig1", fp, &blocks), EntryPlan::Unchanged);
        assert_eq!(plan_entry(&m, "missing", fp, &blocks), EntryPlan::New);
        let mut edited = blocks.clone();
        edited[0].1 ^= 1;
        let fp2 = entry_fingerprint(&edited, tag);
        assert_eq!(
            plan_entry(&m, "fig1", fp2, &edited),
            EntryPlan::Dirty { changed_blocks: 1 },
        );
        // A config-only change still reads as dirty with one block.
        let fp3 = entry_fingerprint(&blocks, tag ^ 1);
        assert_eq!(
            plan_entry(&m, "fig1", fp3, &blocks),
            EntryPlan::Dirty { changed_blocks: 1 },
        );
    }

    #[test]
    fn regression_is_a_flip_to_insecure() {
        let insecure = IncrementalOutcome {
            name: "x".into(),
            plan: EntryPlan::Dirty { changed_blocks: 1 },
            verdict: Verdict::Insecure { witnesses: 1 },
            line: String::new(),
            states: 5,
            flip: Some(Verdict::Secure),
            unrecorded: None,
        };
        assert!(insecure.regressed());
        let fixed = IncrementalOutcome {
            verdict: Verdict::Secure,
            flip: Some(Verdict::Insecure { witnesses: 1 }),
            ..insecure.clone()
        };
        assert!(!fixed.regressed());
        let still_insecure = IncrementalOutcome {
            flip: None,
            ..insecure.clone()
        };
        assert!(!still_insecure.regressed());
    }
}
