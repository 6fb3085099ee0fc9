//! Incremental re-analysis: entry fingerprints, persisted baselines,
//! and the diff planner behind `pitchfork ci-gate`.
//!
//! A CI gate re-checks the same corpus on every commit, but a commit
//! touches one or two entries — re-exploring the other twenty from
//! scratch is pure waste. This module makes the re-run proportional to
//! the diff:
//!
//! * [`config_tag`] / [`entry_fingerprint`] — a stable fingerprint per
//!   corpus entry: one FNV-1a 64 pass, fed through `#[derive(Hash)]`,
//!   over the assembled program, its whole initial configuration
//!   (registers, memory values and their labels, entry point) and a tag
//!   over the analysis options (bound, mode, strategy, budgets,
//!   symbolized registers, [`EXPLORER_SEMANTICS`]). The tag is computed
//!   once per (bound, symbolized-register set). Re-assembling an
//!   unchanged file reproduces the fingerprint bit-for-bit; editing one
//!   instruction, or one `.reg`, `.public` or `.secret` line, moves it.
//! * [`BaselineManifest`] — one record per entry from a previous run,
//!   indexed by name: the fingerprint plus the verdict summary (verdict,
//!   states, schedules, strategy, truncation) from which
//!   [`BaselineEntry::line`] re-renders the entry's report line.
//!   Persisted as line-oriented JSON next to the pruned warm-start
//!   snapshot ([`save_baseline`] writes both).
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
use sct_core::{Config, Program, Reg};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

// ----- Fingerprints -------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64, as the [`Hasher`] that `#[derive(Hash)]` feeds.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The version of the explorer's semantics, hashed into every
/// [`config_tag`]. Bump it whenever the explorer can reach a different
/// verdict for the same program and options, so that no baseline
/// verdict computed by an older engine replays.
///
/// 2: a path whose reorder buffer holds a fence drains through the
/// fence instead of being dropped, and a load's adversarial address
/// concretization probes the label the load would read, in-flight
/// stores included. The older engine could call programs secure that
/// leak on their sequential path.
pub const EXPLORER_SEMANTICS: u64 = 2;

/// Hash the parts of the analysis configuration that can change a
/// verdict: [`EXPLORER_SEMANTICS`], bound, mode flags, budgets,
/// strategy, machine parameters, and the symbolized-register set.
/// Worker-thread count, the steal-timing seed and the wall-clock
/// deadline are deliberately excluded — the first two never change
/// verdicts (the parallel engine's determinism contract), and the gate
/// never records a result the deadline cut short.
pub fn config_tag(options: &DetectorOptions, bound: usize, symbolic: &[Reg]) -> u64 {
    tag_under(EXPLORER_SEMANTICS, options, bound, symbolic)
}

/// [`config_tag`] as an engine with explorer semantics `semantics`
/// computed it.
fn tag_under(semantics: u64, options: &DetectorOptions, bound: usize, symbolic: &[Reg]) -> u64 {
    let e = &options.explorer;
    let mut h = Fnv::new();
    (semantics, bound, e.strategy.name(), symbolic).hash(&mut h);
    (
        e.forwarding_hazards,
        e.alias_prediction,
        e.jmpi_mistraining,
        e.dedup_states,
        e.stop_path_on_violation,
        e.jmpi_target_cap,
        e.max_states,
        e.max_violations,
    )
        .hash(&mut h);
    format!("{:?}", options.params).hash(&mut h);
    h.finish()
}

/// The per-entry fingerprint the baseline manifest is keyed by: the
/// program, its whole initial configuration, and the entry's
/// [`config_tag`].
pub fn entry_fingerprint(program: &Program, config: &Config, tag: u64) -> u64 {
    let mut h = Fnv::new();
    (tag, program, config).hash(&mut h);
    h.finish()
}

// ----- The baseline manifest ----------------------------------------------

/// One entry of a [`BaselineManifest`]: the fingerprint a verdict was
/// computed under and the verdict summary needed to replay the entry
/// without exploring anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// The corpus entry / file name the fingerprint belongs to.
    pub name: String,
    /// [`entry_fingerprint`] of the program + configuration.
    pub fingerprint: u64,
    /// The baseline verdict.
    pub verdict: Verdict,
    /// States the baseline exploration expanded (what a replay skips).
    pub states: usize,
    /// Complete schedules the baseline exploration ran.
    pub schedules: usize,
    /// The frontier order the baseline ran under.
    pub strategy: String,
    /// Whether the baseline exploration hit its budget.
    pub truncated: bool,
}

impl BaselineEntry {
    /// The per-file report line the baseline run printed, re-rendered
    /// from the record's own fields by [`crate::fleet::report_line`]
    /// (so a replay prints it byte-identically).
    pub fn line(&self) -> String {
        crate::fleet::report_line(
            &self.name,
            self.verdict,
            self.states,
            self.schedules,
            &self.strategy,
            self.truncated,
        )
    }
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

/// Fingerprints and verdict summaries from a previous run, in insertion
/// order and indexed by name, persisted as line-oriented JSON (a header
/// line, then one object per entry) so the gate's inputs stay greppable
/// and diffable in CI artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineManifest {
    entries: Vec<BaselineEntry>,
    /// Entry name → index into `entries`.
    by_name: HashMap<String, usize>,
}

/// Manifest format version (bumped on incompatible layout changes; an
/// unknown version is rejected and the baseline rebuilt from scratch).
///
/// 2: one whole-entry fingerprint per record, no per-block hashes, and
/// no stored report line.
pub const BASELINE_VERSION: u64 = 2;

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
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// Insert or replace the entry for `entry.name`.
    pub fn upsert(&mut self, entry: BaselineEntry) {
        match self.by_name.get(&entry.name) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.by_name.insert(entry.name.clone(), self.entries.len());
                self.entries.push(entry);
            }
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
            Json::Obj(vec![
                ("entry".into(), Json::Str(e.name.clone())),
                ("fp".into(), Json::Int(e.fingerprint as i128)),
                ("verdict".into(), Json::Str(kind.into())),
                ("witnesses".into(), Json::Int(witnesses as i128)),
                ("explored".into(), Json::Int(explored as i128)),
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
        let parse_err = |e: crate::protocol::ProtocolError| BaselineError::Parse(e.to_string());
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = match lines.next() {
            Some(l) => Json::parse(l).map_err(parse_err)?,
            None => return Ok(BaselineManifest::empty()),
        };
        if header.str_field("manifest").ok() != Some("pitchfork-baseline") {
            return Err(BaselineError::Parse("missing manifest header".into()));
        }
        let version = header.u64_field("version").map_err(parse_err)?;
        if version != BASELINE_VERSION {
            return Err(BaselineError::Version(version));
        }
        let mut manifest = BaselineManifest::empty();
        for line in lines {
            let json = Json::parse(line).map_err(parse_err)?;
            let field = |k: &str| json.u64_field(k).map_err(parse_err);
            let verdict = match json.str_field("verdict").map_err(parse_err)? {
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
            let str_of = |k: &str| json.str_field(k).map(str::to_string).map_err(parse_err);
            manifest.upsert(BaselineEntry {
                name: str_of("entry")?,
                fingerprint: field("fp")?,
                verdict,
                states: field("states")? as usize,
                schedules: field("schedules")? as usize,
                strategy: str_of("strategy")?,
                truncated: json.bool_field("truncated").map_err(parse_err)?,
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
    /// The baseline knows the entry but the fingerprint moved (the
    /// program, its initial configuration, the options or the explorer
    /// semantics changed): re-explore against the warm memo.
    Dirty,
    /// The baseline has never seen this entry.
    New,
}

/// Classify one entry with fingerprint `fingerprint` against its
/// baseline record `old`, if it has one.
pub fn plan_entry(old: Option<&BaselineEntry>, fingerprint: u64) -> EntryPlan {
    match old {
        None => EntryPlan::New,
        Some(e) if e.fingerprint == fingerprint => EntryPlan::Unchanged,
        Some(_) => EntryPlan::Dirty,
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
        // One config tag per (bound, symbolized-register set).
        let mut tags: Vec<(usize, Vec<Reg>, u64)> = Vec::new();
        for item in items {
            let bound = item.bound.unwrap_or(options.explorer.spec_bound);
            let tag = match tags.iter().find(|(b, s, _)| *b == bound && *s == item.symbolic) {
                Some(&(_, _, tag)) => tag,
                None => {
                    let tag = config_tag(options, bound, &item.symbolic);
                    tags.push((bound, item.symbolic.clone(), tag));
                    tag
                }
            };
            let fingerprint = entry_fingerprint(&item.program, &item.config, tag);
            let old = baseline.get(&item.name);
            match (plan_entry(old, fingerprint), old) {
                (EntryPlan::Unchanged, Some(old)) => {
                    if sct_telemetry::enabled() {
                        sct_telemetry::counter(sct_telemetry::names::INCR_REUSE_TOTAL).inc();
                    }
                    entries.push(Planned::Replayed(old));
                }
                (plan, _) => {
                    let name = item.name.clone();
                    entries.push(Planned::Fresh { name, plan, fingerprint, old });
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
                        line: old.line(),
                        states: 0,
                        flip: None,
                        unrecorded: None,
                    };
                    (outcome, Some(old.clone()))
                }
                Planned::Fresh { name, plan, fingerprint, old } => {
                    let Some((verdict, stats, clamped)) = results.next() else {
                        continue;
                    };
                    if sct_telemetry::enabled() {
                        sct_telemetry::counter(sct_telemetry::names::INCR_REANALYZED_TOTAL).inc();
                    }
                    report.reanalyzed += 1;
                    report.states_explored += stats.states;
                    let fresh = BaselineEntry {
                        name,
                        fingerprint,
                        verdict,
                        states: stats.states,
                        schedules: stats.schedules,
                        strategy: stats.strategy.to_string(),
                        truncated: stats.truncated,
                    };
                    let unrecorded = if clamped {
                        Some("state budget clamped by the daemon")
                    } else {
                        stats.deadline_exceeded.then_some("cut short by its deadline")
                    };
                    let flip = old
                        .map(|e| e.verdict)
                        .filter(|o| std::mem::discriminant(o) != std::mem::discriminant(&verdict));
                    let outcome = IncrementalOutcome {
                        name: fresh.name.clone(),
                        plan,
                        verdict,
                        line: fresh.line(),
                        states: stats.states,
                        flip,
                        unrecorded,
                    };
                    let record = match unrecorded {
                        Some(_) => old.cloned(),
                        None => Some(fresh),
                    };
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
    use crate::{AnalysisSession, BatchItem};
    use sct_asm::assemble;
    use sct_core::reg::names::RA;

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

    fn fingerprint_of(source: &str, tag: u64) -> u64 {
        let asm = assemble(source).expect("assembles");
        entry_fingerprint(&asm.program, &asm.config, tag)
    }

    fn record(name: &str, fingerprint: u64, verdict: Verdict) -> BaselineEntry {
        BaselineEntry {
            name: name.into(),
            fingerprint,
            verdict,
            states: 2,
            schedules: 1,
            strategy: "lifo".into(),
            truncated: false,
        }
    }

    #[test]
    fn fingerprint_stable_under_reparse() {
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        assert_eq!(fingerprint_of(SOURCE, tag), fingerprint_of(SOURCE, tag));
        assert_ne!(fingerprint_of(SOURCE, tag), fingerprint_of(SOURCE, tag ^ 1));
    }

    #[test]
    fn fingerprint_moves_on_single_instruction_edit() {
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        let base = fingerprint_of(SOURCE, tag);
        for (from, to) in [
            ("gt(4, ra)", "gt(5, ra)"),
            ("[0x50, rb]", "[0x51, rb]"),
            ("rc =", "rd ="),
        ] {
            assert_ne!(base, fingerprint_of(&SOURCE.replace(from, to), tag), "{from} -> {to}");
        }
    }

    #[test]
    fn fingerprint_moves_on_initial_configuration_edits() {
        let tag = config_tag(&DetectorOptions::v1_mode(16), 16, &[]);
        let with_table = SOURCE.replace(".reg ra = 9\n", ".reg ra = 9\n.public 0x40 = 1, 2\n");
        let base = fingerprint_of(&with_table, tag);
        for (from, to) in [
            (".public 0x40", ".secret 0x40"),
            ("= 1, 2", "= 1, 3"),
            (".reg ra = 9", ".reg ra = 8"),
            (".reg ra = 9", ".reg ra = 9@sec"),
        ] {
            assert_ne!(base, fingerprint_of(&with_table.replace(from, to), tag), "{from} -> {to}");
        }
    }

    #[test]
    fn config_tag_tracks_bound_mode_and_symbolics() {
        let v1 = DetectorOptions::v1_mode(16);
        let v4 = DetectorOptions::v4_mode(16);
        assert_ne!(config_tag(&v1, 16, &[]), config_tag(&v1, 20, &[]));
        assert_ne!(config_tag(&v1, 16, &[]), config_tag(&v4, 16, &[]));
        assert_ne!(config_tag(&v1, 16, &[]), config_tag(&v1, 16, &[RA]));
        assert_ne!(
            config_tag(&v1, 16, &[]),
            tag_under(EXPLORER_SEMANTICS - 1, &v1, 16, &[]),
        );
        // Thread count must NOT move the fingerprint.
        let mut threaded = v1;
        threaded.explorer.threads = 8;
        assert_eq!(config_tag(&v1, 16, &[]), config_tag(&threaded, 16, &[]));
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let mut m = BaselineManifest::empty();
        m.upsert(record("fig1", u64::MAX, Verdict::Insecure { witnesses: 2 }));
        m.upsert(BaselineEntry {
            states: 99,
            strategy: "fifo".into(),
            truncated: true,
            ..record("other \"quoted\"", 7, Verdict::Unknown { explored: 99 })
        });
        m.upsert(record("secure", 0, Verdict::Secure));
        m.upsert(record("fig1", 3, Verdict::Secure));
        let text = m.to_text();
        let parsed = BaselineManifest::from_text(&text).expect("round trip");
        assert_eq!(parsed, m);
        let names: Vec<&str> = parsed.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["fig1", "other \"quoted\"", "secure"], "insertion order");
        assert_eq!(parsed.get("fig1").map(|e| e.fingerprint), Some(3));
        assert!(!text.contains("\"line\"") && !text.contains("\"blocks\""), "{text}");
        assert_eq!(
            parsed.get("other \"quoted\"").unwrap().line(),
            "other \"quoted\": unknown (budget exhausted) \
             (99 states, 1 schedules explored, strategy fifo, truncated)",
        );
    }

    #[test]
    fn manifest_rejects_version_skew_and_garbage() {
        // A manifest in the previous format (per-block hashes, stored
        // lines) is stale: rejected whole, so the gate runs cold.
        let v1 = "{\"manifest\":\"pitchfork-baseline\",\"version\":1,\"entries\":1}\n\
                  {\"entry\":\"x\",\"fp\":1,\"blocks\":[[1,2]],\"verdict\":\"secure\",\
                  \"witnesses\":0,\"explored\":0,\"line\":\"x: secure (within bound) \
                  (1 states, 1 schedules explored, strategy lifo)\",\"states\":1,\
                  \"schedules\":1,\"strategy\":\"lifo\",\"truncated\":false}\n";
        assert!(matches!(
            BaselineManifest::from_text(v1),
            Err(BaselineError::Version(1)),
        ));
        assert!(BaselineManifest::from_text("not json\n").is_err());
        assert!(BaselineManifest::from_text("").unwrap().entries().is_empty());
    }

    #[test]
    fn planner_classifies_unchanged_dirty_and_new() {
        let mut m = BaselineManifest::empty();
        m.upsert(record("fig1", 42, Verdict::Secure));
        assert_eq!(plan_entry(m.get("fig1"), 42), EntryPlan::Unchanged);
        assert_eq!(plan_entry(m.get("missing"), 42), EntryPlan::New);
        assert_eq!(plan_entry(m.get("fig1"), 43), EntryPlan::Dirty);
    }

    /// Item 1a: a `.public` table turned `.secret` moves the
    /// fingerprint, so the gate re-analyses the entry and flags the leak
    /// instead of replaying the recorded `secure`.
    #[test]
    fn a_label_only_edit_plans_dirty_and_is_flagged() {
        let public = "\
.entry start
.reg ra = 0
.public 0x40 = 1, 2
.public 0x50 = 0, 0, 0
start:
    rb = load [0x40, ra]
    rc = load [0x50, rb]
";
        let secret = public.replace(".public 0x40", ".secret 0x40");
        let item = |src: &str| {
            let asm = assemble(src).expect("assembles");
            BatchItem::new("table", asm.program, asm.config).symbolize([RA])
        };
        let mut session = AnalysisSession::with_options(DetectorOptions::v1_mode(20));
        let cold = session.analyze_incremental([item(public)], &BaselineManifest::empty());
        assert_eq!(cold.outcomes[0].verdict, Verdict::Secure, "{}", cold.outcomes[0].line);

        let edited = session.analyze_incremental([item(&secret)], &cold.manifest);
        let o = &edited.outcomes[0];
        assert_eq!(o.plan, EntryPlan::Dirty);
        assert!(o.line.starts_with("table: VIOLATION"), "{}", o.line);
        assert_eq!(edited.regressions().len(), 1);
    }

    /// A baseline written by an engine with older explorer semantics
    /// never replays: its stale `secure` is re-analysed and becomes a
    /// regression.
    #[test]
    fn an_entry_from_the_previous_explorer_semantics_reanalyzes() {
        let asm = assemble(include_str!("../tests/fixtures/fence_then_leak.sasm")).unwrap();
        let options = DetectorOptions::v1_mode(20);
        let previous = tag_under(EXPLORER_SEMANTICS - 1, &options, 20, &[RA]);
        let mut stale = BaselineManifest::empty();
        stale.upsert(BaselineEntry {
            schedules: 0,
            ..record(
                "fence_then_leak",
                entry_fingerprint(&asm.program, &asm.config, previous),
                Verdict::Secure,
            )
        });
        let item = BatchItem::new("fence_then_leak", asm.program, asm.config).symbolize([RA]);
        let run = AnalysisSession::with_options(options).analyze_incremental([item], &stale);
        assert_eq!((run.reused, run.reanalyzed), (0, 1));
        assert_eq!(run.outcomes[0].plan, EntryPlan::Dirty);
        assert!(run.outcomes[0].verdict.is_insecure(), "{}", run.outcomes[0].line);
        assert_eq!(run.regressions().len(), 1, "the stale secure verdict flips");
    }

    #[test]
    fn regression_is_a_flip_to_insecure() {
        let insecure = IncrementalOutcome {
            name: "x".into(),
            plan: EntryPlan::Dirty,
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
