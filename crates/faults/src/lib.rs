//! Deterministic fault injection for chaos-testing the analysis
//! service.
//!
//! The injector is **compiled in everywhere but zero-cost when
//! disarmed**, mirroring the `SCT_TELEMETRY=0` pattern: every
//! instrumented I/O site guards itself with [`enabled`] — one relaxed
//! atomic load — and only consults the active [`Plan`] once a plan has
//! actually been armed. With no `SCT_FAULTS` in the environment and no
//! programmatic [`install`], nothing beyond that load ever runs.
//!
//! Faults are **seeded and deterministic**: a [`Trigger`] fires on the
//! Nth arrival at a fault point (`at:N`), on every Nth arrival
//! (`every:N`), or pseudo-randomly (`pct:P`, driven by a xorshift
//! stream derived from the plan seed) — so a failing chaos schedule
//! replays exactly from its `SCT_FAULTS` string.
//!
//! # Fault points
//!
//! | point | site | effect when fired |
//! |---|---|---|
//! | `conn-drop` | transport stream read/write | the op fails with `ConnectionReset` |
//! | `read-stall` | transport stream read | the op sleeps `stall-ms` first |
//! | `write-stall` | transport stream write | the op sleeps `stall-ms` first |
//! | `partial-write` | journal append | only a prefix of the line reaches disk (torn record) |
//! | `snapshot-bit-flip` | cache snapshot load | one seeded bit of the image flips before decode |
//! | `worker-death` | daemon job start | the process aborts (simulated crash) |
//!
//! # Environment syntax
//!
//! `SCT_FAULTS` is a comma-separated clause list:
//!
//! ```text
//! SCT_FAULTS="seed=42,stall-ms=150,conn-drop=at:3,read-stall=every:5,snapshot-bit-flip=always"
//! ```
//!
//! `seed=N` seeds the `pct` stream and the bit-flip position;
//! `stall-ms=N` sets the stall duration (default 100); every other
//! clause is `<point>=<trigger>` with trigger one of `at:N`,
//! `every:N`, `pct:P` (0–100), or `always`. `SCT_FAULTS=0` (or empty,
//! or unset) leaves the injector disarmed.
//!
//! Every fired fault increments the `fault_injected_total` counter in
//! the `sct-telemetry` registry (and a per-point internal counter the
//! chaos tests assert on).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// An instrumented site faults can be injected at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// A transport stream read/write fails with `ConnectionReset`.
    ConnDrop,
    /// A transport stream read sleeps for the stall duration first.
    ReadStall,
    /// A transport stream write sleeps for the stall duration first.
    WriteStall,
    /// A journal append tears: only a prefix of the line hits disk.
    PartialWrite,
    /// One seeded bit of a cache snapshot image flips before decode.
    SnapshotBitFlip,
    /// The daemon aborts at job start (simulated worker crash).
    WorkerDeath,
}

/// How many fault points exist (array sizing).
const POINTS: usize = 6;

impl FaultPoint {
    /// Every fault point, in slot order.
    pub const ALL: [FaultPoint; POINTS] = [
        FaultPoint::ConnDrop,
        FaultPoint::ReadStall,
        FaultPoint::WriteStall,
        FaultPoint::PartialWrite,
        FaultPoint::SnapshotBitFlip,
        FaultPoint::WorkerDeath,
    ];

    /// The stable configuration name (`conn-drop`, `read-stall`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::ConnDrop => "conn-drop",
            FaultPoint::ReadStall => "read-stall",
            FaultPoint::WriteStall => "write-stall",
            FaultPoint::PartialWrite => "partial-write",
            FaultPoint::SnapshotBitFlip => "snapshot-bit-flip",
            FaultPoint::WorkerDeath => "worker-death",
        }
    }

    /// Parse a configuration name (the inverse of [`FaultPoint::name`]).
    pub fn parse(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name.trim())
    }

    fn slot(self) -> usize {
        match self {
            FaultPoint::ConnDrop => 0,
            FaultPoint::ReadStall => 1,
            FaultPoint::WriteStall => 2,
            FaultPoint::PartialWrite => 3,
            FaultPoint::SnapshotBitFlip => 4,
            FaultPoint::WorkerDeath => 5,
        }
    }
}

/// When a fault point fires, in terms of **arrivals** (times execution
/// reaches the instrumented site since the plan was armed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on exactly the Nth arrival (1-based), once.
    At(u64),
    /// Fire on every Nth arrival (`Every(1)` = every arrival).
    Every(u64),
    /// Fire on each arrival with probability P% from the seeded
    /// xorshift stream (deterministic for a fixed seed and arrival
    /// sequence).
    Pct(u8),
}

impl Trigger {
    fn parse(text: &str) -> Result<Trigger, PlanError> {
        let text = text.trim();
        if text == "always" {
            return Ok(Trigger::Every(1));
        }
        let (kind, num) = text
            .split_once(':')
            .ok_or_else(|| PlanError(format!("bad trigger `{text}` (want at:N, every:N, pct:P, or always)")))?;
        let n: u64 = num
            .trim()
            .parse()
            .map_err(|_| PlanError(format!("bad trigger count in `{text}`")))?;
        match kind.trim() {
            "at" if n >= 1 => Ok(Trigger::At(n)),
            "every" if n >= 1 => Ok(Trigger::Every(n)),
            "pct" if n <= 100 => Ok(Trigger::Pct(n as u8)),
            _ => Err(PlanError(format!("bad trigger `{text}`"))),
        }
    }
}

/// A malformed plan specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SCT_FAULTS: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A seeded fault schedule: which points fire, when, and how long
/// stalls last.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Seeds the `pct` stream and the snapshot bit-flip position.
    pub seed: u64,
    /// How long `read-stall` / `write-stall` sleep when they fire.
    pub stall: Duration,
    slots: [Option<Trigger>; POINTS],
}

impl Plan {
    /// An empty plan (no point armed) under `seed`.
    pub fn new(seed: u64) -> Plan {
        Plan {
            seed,
            stall: Duration::from_millis(100),
            slots: [None; POINTS],
        }
    }

    /// Arm `point` with `trigger` (builder style).
    pub fn point(mut self, point: FaultPoint, trigger: Trigger) -> Plan {
        self.slots[point.slot()] = Some(trigger);
        self
    }

    /// Set the stall duration (builder style).
    pub fn stall_ms(mut self, ms: u64) -> Plan {
        self.stall = Duration::from_millis(ms);
        self
    }

    /// The trigger armed at `point`, if any.
    pub fn trigger(&self, point: FaultPoint) -> Option<Trigger> {
        self.slots[point.slot()]
    }

    /// Parse an `SCT_FAULTS` clause list (see the crate docs for the
    /// syntax). An empty spec yields an empty (harmless) plan.
    pub fn parse(spec: &str) -> Result<Plan, PlanError> {
        let mut plan = Plan::new(0);
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| PlanError(format!("bad clause `{clause}` (want key=value)")))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanError(format!("bad seed `{value}`")))?;
                }
                "stall-ms" => {
                    let ms: u64 = value
                        .trim()
                        .parse()
                        .map_err(|_| PlanError(format!("bad stall-ms `{value}`")))?;
                    plan.stall = Duration::from_millis(ms);
                }
                point => {
                    let point = FaultPoint::parse(point)
                        .ok_or_else(|| PlanError(format!("unknown fault point `{point}`")))?;
                    plan.slots[point.slot()] = Some(Trigger::parse(value)?);
                }
            }
        }
        Ok(plan)
    }

    /// `true` when no point is armed (the plan injects nothing).
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

// ----- the armed state ----------------------------------------------------

struct State {
    /// Fast-path guard: `false` means no plan is armed and every
    /// [`should_fire`] returns immediately.
    enabled: AtomicBool,
    plan: Mutex<Option<Plan>>,
    arrivals: [AtomicU64; POINTS],
    fired: [AtomicU64; POINTS],
    /// The seeded xorshift stream behind `pct` triggers.
    rng: AtomicU64,
}

fn env_plan() -> Option<Plan> {
    let spec = std::env::var("SCT_FAULTS").ok()?;
    if matches!(spec.trim(), "" | "0" | "off" | "false") {
        return None;
    }
    match Plan::parse(&spec) {
        Ok(plan) if !plan.is_empty() => Some(plan),
        Ok(_) => None,
        Err(e) => {
            // A typo'd schedule must not silently run fault-free: say
            // so, then run fault-free (aborting here would turn every
            // env mistake into an outage).
            eprintln!("{e} (injector disarmed)");
            None
        }
    }
}

static STATE: LazyLock<State> = LazyLock::new(|| {
    let plan = env_plan();
    State {
        enabled: AtomicBool::new(plan.is_some()),
        rng: AtomicU64::new(plan.as_ref().map(|p| rng_seed(p.seed)).unwrap_or(1)),
        plan: Mutex::new(plan),
        arrivals: Default::default(),
        fired: Default::default(),
    }
});

fn rng_seed(seed: u64) -> u64 {
    // Never let the xorshift state be 0 (fixed point).
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

fn lock_plan() -> MutexGuard<'static, Option<Plan>> {
    STATE.plan.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a fault plan is armed. One relaxed atomic load — the guard
/// every instrumented site checks first, so a disarmed injector costs
/// nothing on hot paths.
#[inline]
pub fn enabled() -> bool {
    STATE.enabled.load(Ordering::Relaxed)
}

/// Arm `plan`, replacing any active one and resetting all arrival and
/// fired counters (programmatic equivalent of setting `SCT_FAULTS`;
/// the chaos tests use this).
pub fn install(plan: Plan) {
    let state = &*STATE;
    let mut slot = lock_plan();
    for a in &state.arrivals {
        a.store(0, Ordering::Relaxed);
    }
    for f in &state.fired {
        f.store(0, Ordering::Relaxed);
    }
    state.rng.store(rng_seed(plan.seed), Ordering::Relaxed);
    let armed = !plan.is_empty();
    *slot = Some(plan);
    state.enabled.store(armed, Ordering::Relaxed);
}

/// Disarm the injector: instrumented sites go back to the single
/// relaxed-load fast path.
pub fn disarm() {
    let state = &*STATE;
    let mut slot = lock_plan();
    state.enabled.store(false, Ordering::Relaxed);
    // The counters describe the schedule that was armed; ending it
    // zeroes them, so `arrivals`/`fired` never leak across schedules.
    for a in &state.arrivals {
        a.store(0, Ordering::Relaxed);
    }
    for f in &state.fired {
        f.store(0, Ordering::Relaxed);
    }
    *slot = None;
}

fn next_pct() -> u8 {
    // Relaxed xorshift64 step; racing threads may share a step, which
    // only perturbs `pct` schedules (the deterministic triggers `at`
    // and `every` never touch the stream).
    let mut x = STATE.rng.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    STATE.rng.store(x, Ordering::Relaxed);
    (x % 100) as u8
}

/// Count one arrival at `point` and decide whether its fault fires.
/// `false` immediately when the injector is disarmed; otherwise the
/// armed trigger (if any) is evaluated against this arrival's ordinal.
/// Firing increments `fault_injected_total` in the telemetry registry.
#[inline]
pub fn should_fire(point: FaultPoint) -> bool {
    if !enabled() {
        return false;
    }
    should_fire_slow(point)
}

#[cold]
fn should_fire_slow(point: FaultPoint) -> bool {
    let trigger = match &*lock_plan() {
        Some(plan) => match plan.trigger(point) {
            Some(t) => t,
            None => return false,
        },
        None => return false,
    };
    let arrival = STATE.arrivals[point.slot()].fetch_add(1, Ordering::Relaxed) + 1;
    let fire = match trigger {
        Trigger::At(n) => arrival == n,
        Trigger::Every(n) => arrival.is_multiple_of(n),
        Trigger::Pct(p) => next_pct() < p,
    };
    if fire {
        STATE.fired[point.slot()].fetch_add(1, Ordering::Relaxed);
        if sct_telemetry::enabled() {
            sct_telemetry::counter(sct_telemetry::names::FAULT_INJECTED).inc();
        }
    }
    fire
}

/// The armed plan's stall duration (the default 100ms when disarmed —
/// callers only ask after a stall point fired).
pub fn stall() -> Duration {
    lock_plan()
        .as_ref()
        .map(|p| p.stall)
        .unwrap_or(Duration::from_millis(100))
}

/// Times `point` has fired since the plan was armed.
pub fn fired(point: FaultPoint) -> u64 {
    STATE.fired[point.slot()].load(Ordering::Relaxed)
}

/// Arrivals counted at `point` since the plan was armed.
pub fn arrivals(point: FaultPoint) -> u64 {
    STATE.arrivals[point.slot()].load(Ordering::Relaxed)
}

/// Flip one seeded bit of `bytes` in place (the `snapshot-bit-flip`
/// payload): the position derives from the armed plan's seed and the
/// image length, so a given schedule corrupts the same bit every run.
/// Empty input is left untouched.
pub fn flip_bit(bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    let seed = lock_plan().as_ref().map(|p| p.seed).unwrap_or(0);
    let mut x = rng_seed(seed ^ bytes.len() as u64);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let bit = (x as usize) % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed state is process-global, so every test runs against
    // its own installed plan and disarms on exit; the suite is
    // single-test-at-a-time within this module via a lock.
    static GATE: Mutex<()> = Mutex::new(());

    fn gated() -> MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_by_default_costs_one_load() {
        let _g = gated();
        disarm();
        assert!(!enabled());
        assert!(!should_fire(FaultPoint::ConnDrop));
        assert_eq!(arrivals(FaultPoint::ConnDrop), 0, "disarmed arrivals are not counted");
    }

    #[test]
    fn at_trigger_fires_exactly_once() {
        let _g = gated();
        install(Plan::new(7).point(FaultPoint::ConnDrop, Trigger::At(3)));
        let fires: Vec<bool> = (0..6).map(|_| should_fire(FaultPoint::ConnDrop)).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(fired(FaultPoint::ConnDrop), 1);
        disarm();
    }

    #[test]
    fn every_trigger_is_periodic() {
        let _g = gated();
        install(Plan::new(7).point(FaultPoint::ReadStall, Trigger::Every(2)));
        let fires: Vec<bool> = (0..6).map(|_| should_fire(FaultPoint::ReadStall)).collect();
        assert_eq!(fires, [false, true, false, true, false, true]);
        disarm();
    }

    #[test]
    fn pct_stream_is_seed_deterministic() {
        let _g = gated();
        install(Plan::new(99).point(FaultPoint::WriteStall, Trigger::Pct(50)));
        let a: Vec<bool> = (0..32).map(|_| should_fire(FaultPoint::WriteStall)).collect();
        install(Plan::new(99).point(FaultPoint::WriteStall, Trigger::Pct(50)));
        let b: Vec<bool> = (0..32).map(|_| should_fire(FaultPoint::WriteStall)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|&f| f), "pct:50 over 32 draws fires at least once");
        disarm();
    }

    #[test]
    fn parse_round_trips_the_documented_syntax() {
        let plan =
            Plan::parse("seed=42, stall-ms=150, conn-drop=at:3, read-stall=every:5, snapshot-bit-flip=always")
                .expect("spec parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.stall, Duration::from_millis(150));
        assert_eq!(plan.trigger(FaultPoint::ConnDrop), Some(Trigger::At(3)));
        assert_eq!(plan.trigger(FaultPoint::ReadStall), Some(Trigger::Every(5)));
        assert_eq!(plan.trigger(FaultPoint::SnapshotBitFlip), Some(Trigger::Every(1)));
        assert_eq!(plan.trigger(FaultPoint::WorkerDeath), None);
        assert!(Plan::parse("bogus-point=at:1").is_err());
        assert!(Plan::parse("conn-drop=sometimes").is_err());
        assert!(Plan::parse("").expect("empty is fine").is_empty());
    }

    #[test]
    fn flip_bit_is_deterministic_and_flips_exactly_one_bit() {
        let _g = gated();
        install(Plan::new(5).point(FaultPoint::SnapshotBitFlip, Trigger::At(1)));
        let original: Vec<u8> = (0..64u8).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        flip_bit(&mut a);
        flip_bit(&mut b);
        assert_eq!(a, b, "same seed and length flip the same bit");
        let differing: u32 = original
            .iter()
            .zip(&a)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(differing, 1);
        disarm();
    }
}
