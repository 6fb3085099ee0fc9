//! # pitchfork
//!
//! A reimplementation of **Pitchfork**, the speculative constant-time
//! violation detector of "Constant-Time Foundations for the New Spectre
//! Era" (Cauligi et al., PLDI 2020, §4), grown into a session-oriented
//! analysis engine over hash-consed symbolic state.
//!
//! # Quickstart
//!
//! Everything goes through one entry point, [`AnalysisSession`]:
//!
//! ```
//! use pitchfork::{AnalysisSession, StrategyKind, Verdict};
//! use sct_core::examples::fig1;
//!
//! let (program, config) = fig1();
//! let mut session = AnalysisSession::builder()
//!     .v1_mode(20)                         // §4.2.1 Spectre v1 mode
//!     .strategy(StrategyKind::Fifo)        // frontier order
//!     .build()
//!     .unwrap();
//! let report = session.analyze(&program, &config);
//! assert!(matches!(report.verdict(), Verdict::Insecure { .. }));
//! println!("first witness after {:?} states", report.stats.first_witness_states);
//! ```
//!
//! The session owns every piece of cross-cutting state:
//!
//! * **Options** — detector mode ([`DetectorOptions::v1_mode`] /
//!   [`DetectorOptions::v4_mode`] and the alias/v2 extensions), bounds,
//!   deduplication, and state budgets, set through [`SessionBuilder`];
//! * **Search strategy** — the frontier order, one of the two
//!   [`StrategyKind`]s `lifo` (depth-first, the default) and `fifo`
//!   (breadth-first), also the CLI's `--strategy`. Both reach the same
//!   verdict — the corpus equivalence tests pin this — but
//!   states-to-first-witness differ, which is what matters under a
//!   budget;
//! * **Typed verdicts** — [`Report::verdict`] returns a [`Verdict`]
//!   ([`Verdict::Secure`] / [`Verdict::Insecure`] /
//!   [`Verdict::Unknown`]), and each [`Violation`] carries its witness
//!   path: schedule, trace, program point, and path constraints;
//! * **Event streaming** — [`Observer`]s registered on the builder
//!   receive typed [`Event`]s (state-expanded, violation-found,
//!   item-finished, epoch-retired) as analysis runs; daemon mode
//!   streams these to subscribed clients ([`OwnedEvent`] is the owned,
//!   wire-ready form);
//! * **Cache & epochs** — [`SessionBuilder::cache`] hydrates the
//!   expression arena and solver-verdict memo from an `sct-cache`
//!   snapshot, [`AnalysisSession::save`] persists them, and
//!   [`AnalysisSession::retire`] ends the arena epoch and warm-starts
//!   the next one from the snapshot (the daemon-mode lifecycle);
//! * **Batches** — [`AnalysisSession::run_batch`] drives whole corpora
//!   ([`BatchItem`] per program, per-item bounds and symbolized
//!   registers) through the shared arena and reports aggregate
//!   statistics ([`BatchReport`]).
//!
//! # Daemon mode
//!
//! The session generalizes to a **service**: a [`service::Job`]
//! (program + bounds + options + strategy) submitted to a
//! [`service::SessionService`] that owns one session, a FIFO queue,
//! and the epoch-retire policy ([`service::RetirePolicy`] — snapshot →
//! retire → warm-start every N jobs or M arena nodes). `pitchfork
//! --serve SOCK` puts that service behind a Unix-domain socket
//! ([`server::Server`], thread-per-connection, hand-rolled
//! line-delimited JSON in [`protocol`]) so a **resident daemon**
//! amortizes the hash-consed arena and the solver-verdict memo across
//! submissions, clients, and — via the cache snapshot — restarts.
//!
//! Quickstart: serve, submit the corpus form of Kocher example 1 (the
//! classic Spectre v1 bounds-check-bypass gadget), read the verdict
//! and its event stream:
//!
//! ```text
//! $ pitchfork --serve /tmp/pitchfork.sock --cache /tmp/pitchfork.cache &
//! $ pitchfork submit --connect /tmp/pitchfork.sock --bound 16 --symbolic ra \
//!       crates/litmus/corpus/spectre_v1.sasm
//! crates/litmus/corpus/spectre_v1.sasm: VIOLATION (12 states, 3 schedules explored, strategy lifo)
//!   memo: 5 hits / 11 misses; first witness at Some(4) states
//! $ pitchfork events --connect /tmp/pitchfork.sock --job 1 | tail -2
//! violation-found: read 0x66sec near pc 4 after 4 states
//! item-finished: crates/litmus/corpus/spectre_v1.sasm flagged=true (12 states)
//! $ pitchfork retire --connect /tmp/pitchfork.sock   # snapshot → new epoch → warm start
//! $ pitchfork stats --connect /tmp/pitchfork.sock
//! ```
//!
//! Verdict lines are byte-identical to one-shot mode (CI diffs them);
//! a repeat submission answers with nonzero memo/arena reuse; `Retire`
//! round-trips the epoch without restarting the process. In-process
//! users drive [`service::SessionService`] directly ([`Client`] and
//! the [`protocol`] types are `std`-only, so the daemon needs no
//! dependencies the workspace doesn't vendor).
//!
//! # Fleet mode
//!
//! The daemon also listens on TCP (`--listen HOST:PORT`, same
//! protocol, same verdict bytes — [`transport`] abstracts the two
//! socket families), which turns a set of machines into an analysis
//! **fleet** driven by `pitchfork coordinate`:
//!
//! ```text
//! # one worker per host (or per core locally), sharing a token
//! $ pitchfork --serve --listen 0.0.0.0:7433 --token "$SCT_TOKEN" \
//!       --jobs 2 --client-quota 64 &
//! $ pitchfork --serve --listen 0.0.0.0:7434 --token "$SCT_TOKEN" &
//!
//! # shard a corpus manifest across the workers, warm-starting each
//! # from a shared cache snapshot
//! $ pitchfork coordinate --worker 127.0.0.1:7433 --worker 127.0.0.1:7434 \
//!       --token "$SCT_TOKEN" --seed /tmp/pitchfork.cache \
//!       --bound 16 --symbolic ra crates/litmus/corpus/*.sasm
//! crates/litmus/corpus/spectre_v1.sasm: VIOLATION (12 states, 3 schedules explored, strategy lifo)
//! ...
//! ```
//!
//! The coordinator ([`fleet`]) assigns entries to workers largest-first
//! (size-aware LPT), streams per-worker progress to stderr, and prints
//! merged verdict lines to stdout **in manifest order, byte-identical
//! to a single-process `pitchfork` batch over the same corpus** — CI
//! diffs the two. A worker that dies mid-run has its in-flight and
//! queued shards requeued to the survivors (bounded retries per
//! entry); a worker seeded with a snapshot reports the import as
//! nonzero `service_seed_nodes_added` / `service_seed_verdicts_imported`
//! families in its `pitchfork metrics` scrape.
//!
//! Connections authenticate with [`Request::Hello`] carrying the
//! shared `--token` (tokenless daemons accept the handshake as a
//! no-op; a wrong token closes the connection). `--client-quota N`
//! bounds submissions per connection, per-job
//! [`service::JobSpec::max_states`] budgets are clamped to the
//! daemon's cap (the applied budget surfaces in the job's status as
//! `clamped_states`), and [`Request::Cancel`] stops a queued or
//! running job cooperatively — its status becomes
//! [`service::JobStatus::Cancelled`].
//!
//! # Incremental analysis (CI gate)
//!
//! The [`incremental`] module turns re-analysis of a mostly-unchanged
//! corpus from linear to proportional-to-the-diff. Each entry gets a
//! structural **fingerprint** ([`incremental::entry_fingerprint`]):
//! one FNV-1a pass, fed through `#[derive(Hash)]`, over the assembled
//! program, its whole initial configuration (registers, memory values
//! and their labels) and a [`incremental::config_tag`] over every
//! option that can change a verdict — bound, mode, strategy, budgets,
//! symbolized registers — plus the version of the explorer's own
//! semantics ([`incremental::EXPLORER_SEMANTICS`]), and deliberately
//! *excluding* `threads` and `steal_seed`, which the determinism
//! contract guarantees never change one. So an edit to one instruction
//! or to one `.reg`/`.public`/`.secret` line re-analyses the entry, and
//! the first `ci-gate` run after an upgrade that changes the explorer's
//! semantics re-analyses every entry once: no verdict of the older
//! engine is replayed, and an entry it wrongly called secure fails the
//! gate as a flip. `ci-gate` plans each file from its text first: a
//! record also keeps the file's **source key**
//! ([`incremental::source_key`]: one FNV-1a pass over the config tag,
//! [`incremental::ASSEMBLY_SEMANTICS`] and the raw bytes), a file whose
//! key matches its record replays without being assembled, and any
//! other file is assembled and planned by fingerprint, so a
//! comment-only edit still replays. A passing run persists a
//! [`BaselineManifest`] (one line-JSON record per entry: name,
//! fingerprint, source key, verdict, states, schedules, strategy,
//! truncation — the fields the report line is re-rendered from) next
//! to a **reachability-pruned** cache snapshot
//! (`sct_cache::save_rooted` keeps only arena nodes reachable from
//! the memoized verdicts, so a months-old baseline doesn't ship every
//! dead expression ever interned; the pruned-vs-unpruned equivalence
//! suite pins that both hydrate to identical verdicts).
//!
//! [`AnalysisSession::analyze_incremental`] diffs a batch against the
//! baseline ([`incremental::plan_entry`] classifies each entry
//! [`EntryPlan::Unchanged`] / [`EntryPlan::Dirty`] / [`EntryPlan::New`]),
//! replays unchanged entries with **zero exploration** — their report
//! lines are re-rendered byte-for-byte from the records — and
//! re-explores only the rest against the warm memo. The CLI packaging
//! is a CI gate:
//!
//! ```text
//! $ pitchfork ci-gate --baseline .sct-baseline --bound 16 --symbolic ra \
//!       crates/litmus/corpus/*.sasm
//! crates/litmus/corpus/spectre_v1.sasm: VIOLATION (12 states, 3 schedules explored, strategy lifo)
//! ...
//! ci-gate: 23 entries — 22 replayed, 1 re-analyzed; 12 states explored, 384 skipped (97.0%)
//! REGRESSION: crates/litmus/corpus/spectre_v1_fenced.sasm flipped secure (within bound) -> VIOLATION
//! ci-gate: FAIL — 1 regression(s); baseline not promoted
//! ```
//!
//! Exit 0 promotes the refreshed baseline; exit 3 means an entry
//! **flipped to insecure** (new insecure entries don't flip — there is
//! nothing to regress from); exit 2 is an operational error.
//!
//! With `--connect SOCK` the same [`IncrementalGate`] runs with a daemon
//! as its analyser: planning and replay stay in the gate's process, and
//! each dirty or new entry goes to the daemon as a plain
//! [`Request::Submit`] whose spec sets the bound, strategy and state
//! budget explicitly, so the daemon runs exactly the analysis the
//! fingerprint names, whatever its own defaults. Stdout, exit codes and
//! the refreshed manifest equal a local gate's; the warm memo stays
//! with the daemon, so the remote gate leaves `baseline.cache` alone.
//! Either way, a result that is not the fingerprinted analysis — cut
//! short by `--deadline-ms`, or run under a budget the daemon clamped —
//! is printed but not recorded: the entry's previous record carries
//! forward, and a stderr line names the entry. The gate's own process
//! counts replays and re-analyses in `incr_reuse_total` /
//! `incr_reanalyzed_total` and pruning in `incr_prune_nodes`;
//! `pitchfork metrics --watch N` re-scrapes a daemon every N seconds
//! and renders only what moved ([`sct_telemetry::render_delta`]).
//!
//! # Parallel exploration
//!
//! Exploration is embarrassingly parallel at the state level: each
//! frontier state expands independently, and everything shared — the
//! hash-consing expression arena, the solver-verdict memo, the
//! fingerprint visited set — is lock-striped, with a thread-local L1
//! cache in front of the arena and memo so hot-path hits touch no
//! shared lock at all. Opt in with [`SessionBuilder::parallelism`] (CLI
//! `--threads N`), per job with [`service::JobSpec::threads`], and at
//! the daemon level with `--serve ... --jobs K`, which runs K whole
//! jobs concurrently against the shared arena. Worker threads come
//! from a persistent process-wide pool, so even sub-millisecond
//! explorations pay a condvar wake, not a thread spawn.
//!
//! **The work-stealing engine.** `threads > 1` gives every worker its
//! own private frontier — an instance of the session's
//! [`SearchStrategy`], pushed and popped with no lock — plus a small
//! mutex-guarded *donation buffer* touched only during rebalancing.
//! When a worker runs dry it sweeps the buffers (its own first, then
//! the other workers in a per-worker pseudo-random rotation) and takes
//! a whole batch in one lock acquisition; owners with surplus donate
//! half their frontier (capped) the moment any peer goes hungry.
//! Balanced phases therefore run entirely lock-free on the hot path;
//! the old single mutex-guarded global frontier is gone. Termination
//! is an in-flight state counter — enqueued states count up, finished
//! expansions count down, zero means done — so idle workers park on a
//! condvar and are woken by the next donation.
//! [`ExplorerOptions::steal_seed`] perturbs victim order for
//! race-hunting without ever changing results.
//!
//! **Adaptive `--threads 0`.** Zero means *adaptive*: exploration
//! starts on the serial engine and hands the frontier over to one
//! worker per core only if it grows wide enough to pay for the
//! coordination (a few states per core). Litmus-sized programs finish
//! serially at full serial speed; deep v4 explorations spill and use
//! the machine. On a single-core host the engine never spills.
//!
//! **Determinism contract.** `threads = 1` (the default) is the serial
//! engine, byte-for-byte identical to previous releases. For
//! `threads > 1`, with deduplication on and no truncation, the engine
//! expands exactly the serial engine's distinct-state set whatever the
//! steal timing, so the **verdict**, the **witness multiset** (every
//! violation's (pc, observation) pair with its multiplicity), and the
//! order-insensitive statistics (`states`, `steps`, `deduped`) are
//! identical to serial mode — the work-stealing-equivalence suite pins
//! this over the litmus corpus and Table 2 for every strategy at 2/4/8
//! threads, and a property test hammers the steal/terminate races
//! under randomized victim order.
//! What may differ: which witness is found *first* (`first_witness_*`
//! record whichever a worker reached first; merged violation lists are
//! sorted canonically), event interleaving, the **schedule prefix**
//! naming a witness whose state is reachable along several schedules
//! (which duplicate wins the visited-set insert is timing-dependent —
//! the leak's location and observation never are), and — under a
//! `max_states` / `max_violations` truncation — the explored prefix,
//! exactly as it already differs across strategies.
//! Each worker pops its own frontier in strategy order; *globally* the
//! [`SearchStrategy`] acts as a priority hint, since which states a
//! worker owns depends on donation timing.
//!
//! **When to use it.** Parallelism pays on deep explorations (big
//! programs, high bounds, v4/alias modes) and on multi-core hosts.
//! Single large-batch workloads on few cores are often better served
//! by `--jobs` (parallelism *across* programs) than `--threads`
//! (parallelism *within* one) — or by `--threads 0`, which makes the
//! call per exploration.
//!
//! # Observability
//!
//! Every layer is instrumented through the std-only `sct-telemetry`
//! crate: a process-wide [`sct_telemetry::MetricsRegistry`] of
//! counters, gauges, and log-bucketed latency histograms (fixed
//! power-of-two nanosecond buckets; hot paths record into thread-local
//! buffers that flush in batches, so an observation is an increment,
//! not a lock). The kill switch is the `SCT_TELEMETRY=0` environment
//! variable (or [`sct_telemetry::set_enabled`]); disabled, every span
//! collapses to one relaxed atomic load — the throughput bench gates
//! the enabled overhead under 3%.
//!
//! The registered metric families:
//!
//! | metric | kind | what it times |
//! |---|---|---|
//! | `solver_check_hit_ns` | histogram | satisfiability checks answered by the memo (L1 or stripe) |
//! | `solver_check_miss_ns` | histogram | checks that fell through to the decision procedure |
//! | `state_expand_ns` | histogram | one frontier-state expansion in the explorer |
//! | `steal_attempt_ns` | histogram | one work-stealing sweep in the parallel engine |
//! | `job_queue_wait_ns` | histogram | daemon job: submission → dequeue |
//! | `job_run_ns` | histogram | daemon job: dequeue → verdict |
//! | `worker_busy_ns{worker="i"}` | counter | per-worker time spent expanding states |
//! | `worker_steal_ns{worker="i"}` | counter | per-worker time spent rebalancing |
//! | `worker_parked_ns{worker="i"}` | counter | per-worker time parked on the idle condvar |
//! | `fleet_dispatch_total{worker="i"}` | counter | coordinator: shards dispatched to worker i |
//! | `fleet_retry_total{worker="i"}` | counter | coordinator: shard attempts retried off worker i |
//! | `fleet_shard_ns{worker="i"}` | histogram | coordinator: shard submit → terminal status on worker i |
//! | `fault_injected_total` | counter | faults fired by the `SCT_FAULTS` injection harness |
//! | `cache_quarantined_total` | counter | corrupt snapshot/baseline files renamed aside to `*.bad` |
//!
//! The job-latency histograms (`job_queue_wait_ns`, `job_run_ns`, and
//! the coordinator's `fleet_shard_ns`) carry an **exemplar**: the job
//! id of their maximum observation, rendered as ` max_job=N` on the
//! exposition summary comment, so a p99 spike links straight to a
//! concrete submission.
//!
//! The daemon's job counters live in its [`ServiceStats`] only, and
//! the scrape renders them as `service_*` families:
//! `service_seed_nodes_added` / `service_seed_verdicts_imported` count
//! `seed` warm-start imports, `service_jobs_replayed` the jobs
//! re-submitted from the write-ahead journal, `service_jobs_timed_out`
//! the jobs cut off by their deadline, and `service_events_dropped`
//! the events evicted by per-job retention caps.
//!
//! The daemon answers [`Request::Metrics`] with its [`ServiceStats`]
//! plus a full registry snapshot, and `pitchfork metrics --connect
//! SOCK` renders that as Prometheus text exposition
//! ([`sct_telemetry::render_prometheus`]): one `# TYPE` line per
//! family; histograms emit cumulative `_bucket{le="..."}` series, a
//! `_sum`/`_count` pair, and a `# name p50=... p90=... p99=... max=...`
//! summary comment. Per-job latency surfaces as
//! [`ServiceStats::queue_wait_ms_total`] / `run_ms_total` /
//! `jobs_timed`, and per-job wall time as [`JobView::elapsed_ms`]
//! (rendered by `pitchfork status`).
//!
//! `--trace PATH` (one-shot and `--serve`) appends structured JSONL
//! trace records: a manifest-style provenance header first (`ts`,
//! `artifact`, `git_commit`, `host_cpus`, mode and bounds — the same
//! shape as the bench `audit.jsonl` lines), then one object per
//! lifecycle event (`job_submitted`, `job_status`, `violation_found`,
//! `item_finished`, `epoch_retired`, `job_done`) carrying the job id
//! and a monotonic `t_ms` relative to the header. State-expansion
//! events are deliberately *not* traced — at ~10⁵ events/s that
//! belongs in the `state_expand_ns` histogram, not a log file.
//!
//! Event retention is bounded per job: the daemon keeps the first
//! [`service::EVENT_HEAD_RETAIN`] and the most recent
//! [`service::EVENT_TAIL_RETAIN`] events, counts evictions, and
//! reports the per-job `dropped` total on every `Events` response, so
//! a slow subscriber sees *that* it lost mid-run events and exactly
//! how many — never a silently truncated stream.
//!
//! # Robustness & failure model
//!
//! Long-lived daemons and multi-machine fleets fail in ways a one-shot
//! CLI never sees: workers die mid-job, connections stall without
//! closing, cache files arrive truncated or bit-flipped, and a single
//! pathological program can pin a worker forever. The failure model is
//! explicit, and every recovery path preserves the one invariant that
//! matters: **a verdict that is printed is byte-identical to the
//! verdict a clean run would have printed** — degradation costs time,
//! never soundness.
//!
//! * **Per-job deadlines.** [`service::JobSpec::deadline_ms`] (CLI
//!   `--deadline-ms N` on `submit`, `ci-gate`, and `coordinate`) bounds
//!   a job's wall-clock exploration. Both engines check the deadline
//!   cooperatively — the serial engine per frontier pop, the parallel
//!   engine at each budget claim, with the anchor carried across the
//!   adaptive serial→parallel spill — so an expired job stops at a
//!   state boundary with its partial [`ExploreStats`]
//!   (`deadline_exceeded = true` implies `truncated = true`). Its
//!   status becomes [`service::JobStatus::TimedOut`] and its verdict is
//!   [`Verdict::Insecure`] if a violation was already found, otherwise
//!   [`Verdict::Unknown`] — **never** a false `Secure`. The deadline is
//!   deliberately *excluded* from the incremental fingerprint: it
//!   bounds how long an answer may take, not what the answer is. So
//!   `ci-gate` prints a result the deadline cut short but keeps the
//!   entry's previous baseline record.
//! * **Crash-safe job journal.** `--serve --journal PATH` appends a
//!   write-ahead record per lifecycle edge (`submitted` with the full
//!   wire submit line, `started`, `finished`) as line-JSON. On restart
//!   the daemon replays the tail: jobs submitted-but-unfinished are
//!   re-submitted under fresh ids ([`journal`] reuses
//!   [`Request::parse`], so a replayed job is literally the original
//!   submission re-made), torn trailing lines from a mid-write crash
//!   are skipped, and the journal is compacted to just the live jobs.
//!   Replay count surfaces as [`ServiceStats::jobs_replayed`] (the
//!   `service_jobs_replayed` family).
//! * **Heartbeats and read deadlines.** [`Request::Ping`] answers
//!   [`Response::Pong`] with queue depth on the connection thread, so a
//!   pong distinguishes *alive-but-busy* from *wedged*. The coordinator
//!   bounds every read ([`fleet::FleetOptions::read_timeout`], default
//!   30 s — status polls round-trip in milliseconds, so this only needs
//!   to cover network latency, not job runtime) and pings on every
//!   reconnect; a worker that accepts connections but never answers
//!   surfaces as a timed-out read and burns the same per-worker retry
//!   budget as a crash, instead of hanging the run forever.
//! * **Graceful cache degradation.** A snapshot or baseline that fails
//!   validation (truncation, bit flips, version skew) is **quarantined**
//!   — renamed aside to `PATH.bad` ([`sct_cache::quarantine`],
//!   `cache_quarantined_total`) — with a warning to stderr, and the run
//!   continues cold. `ci-gate` treats an unreadable baseline directory
//!   the same way: warn, run the full cold analysis, exit 0/3 on the
//!   verdicts alone, and promote a fresh baseline over the wreckage.
//!   Corruption is an operational hiccup, not a CI outage.
//! * **Deterministic fault injection.** The `sct-faults` crate arms
//!   seeded fault points — `conn-drop`, `read-stall`, `write-stall`,
//!   `partial-write`, `snapshot-bit-flip`, `worker-death` — from the
//!   `SCT_FAULTS` environment variable (e.g.
//!   `SCT_FAULTS="seed=42,conn-drop=at:3,read-stall=every:5"`), fired
//!   inside [`transport`], the server accept loop, and `sct-cache` I/O.
//!   Disarmed (the default) it costs one relaxed atomic load per site.
//!   The `chaos` test suite and the CI `chaos-smoke` leg drive seeded
//!   schedules — killed workers, stalled streams, flipped snapshot
//!   bytes — and assert the merged verdicts stay byte-identical to a
//!   clean run; `fault_injected_total` counts what actually fired.
//!
//! # Engine layers
//!
//! * [`SymMachine`] lifts the reference semantics to symbolic values
//!   ([`sct_symx`]'s interned expressions), forking on symbolic branch
//!   conditions and concretizing addresses angr-style;
//! * [`Explorer`] enumerates the worst-case schedules (Definition
//!   B.18) with an explicit frontier (ordered by the session's
//!   strategy) and a visited set keyed by [`SymState::fingerprint`];
//!   schedules that reconverge on an already-expanded state are pruned,
//!   which is what keeps deep speculation bounds (250 for v1, 20 for
//!   v4) tractable. An expansion pays for what its step changed, not
//!   for the size of the state: the reorder buffer, registers and
//!   memory each maintain a Zobrist digest in their own mutators, so a
//!   fingerprint hashes three digests plus the program point, RSB and
//!   path condition; a state's schedule and trace are one parent-linked
//!   list shared with every state on the same prefix, built into flat
//!   vectors only for a [`Violation`] or a caller that asks
//!   ([`SymState::schedule`], [`SymState::trace`]); and memory is shared
//!   copy-on-write, copied only when a retiring store changes a cell.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod client;
pub mod detector;
pub mod explorer;
pub mod fleet;
pub mod incremental;
pub mod journal;
pub mod machine;
pub mod observe;
pub mod parallel;
pub mod protocol;
pub mod report;
pub mod server;
pub mod service;
pub mod session;
pub mod state;
pub mod strategy;
pub mod transport;

pub use batch::{BatchItem, BatchOutcome, BatchReport, BatchTotals};
pub use client::{Client, ClientError, JobView};
pub use detector::DetectorOptions;
pub use explorer::{Explorer, ExplorerOptions};
pub use incremental::{
    BaselineEntry, BaselineManifest, EntryPlan, IncrementalGate, IncrementalOutcome,
    IncrementalReport,
};
pub use machine::SymMachine;
pub use observe::{BoxObserver, Event, EventLog, Observer, OwnedEvent};
pub use protocol::{ProtocolError, Request, Response, WireViolation};
pub use report::{ExploreStats, Report, Verdict, Violation};
pub use server::Server;
pub use service::{
    FinishedJob, Job, JobId, JobMode, JobRecord, JobSpec, JobStatus, PreparedJob,
    RetirePolicy, ServiceMonitor, ServiceStats, SessionService,
};
pub use session::{AnalysisSession, SessionBuilder};
pub use state::SymState;
pub use strategy::{SearchStrategy, StrategyKind};
