//! The `pitchfork --serve` daemon: a socket front end over one
//! [`SessionService`], listening on a Unix socket or (fleet mode) a
//! TCP address via [`crate::transport`].
//!
//! std-only, thread-per-connection. A pool of **job worker** threads
//! (size = [`Server::bind_with_workers`]'s `job_workers`, CLI
//! `--jobs K`, default 1) executes queued jobs: each worker takes the
//! service lock only long enough to pop a [`PreparedJob`], runs the
//! analysis with **no lock held** — the expression arena and solver
//! memo are lock-striped process-wide state, so K jobs proceed
//! genuinely in parallel — and re-locks briefly to publish the result.
//! Each accepted connection gets a handler thread speaking the
//! line-delimited JSON protocol of [`crate::protocol`]. `Status` and
//! `Events` are answered from the [`ServiceMonitor`] without touching
//! the service lock, which is what lets a client stream events *while*
//! jobs run; submissions and stats wait only for the short queue-pop /
//! publish critical sections.
//!
//! TCP listeners usually want [`ServerOptions::token`]: clients then
//! authenticate with `Request::Hello` before anything else, and every
//! other request on an unauthenticated connection is rejected.
//!
//! ```no_run
//! use pitchfork::server::Server;
//! use pitchfork::service::SessionService;
//! use pitchfork::AnalysisSession;
//!
//! let session = AnalysisSession::builder().v1_mode(20).build().unwrap();
//! let server = Server::bind("/tmp/pitchfork.sock", SessionService::new(session)).unwrap();
//! server.wait(); // serves until a Shutdown request arrives
//! ```

use crate::journal::Journal;
use crate::protocol::{Request, Response, WireViolation};
use crate::service::{JobId, JobStatus, ServiceMonitor, SessionService};
use crate::transport::{Endpoint, Listener, Stream};
use std::io::{BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the worker sleeps between queue polls when idle, and the
/// event streamer between batches. Wake-ups on submit go through the
/// condvar; this is only the fallback cadence.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Listener-level policy: authentication and per-client limits. The
/// defaults (no token, unlimited submissions) match the pre-fleet
/// daemon exactly.
#[derive(Clone, Debug, Default)]
pub struct ServerOptions {
    /// When set, clients must open with a matching `Request::Hello`
    /// before any other request is honored; a wrong token closes the
    /// connection. When unset, `Hello` is accepted as a no-op so fleet
    /// clients can always send it first.
    pub token: Option<String>,
    /// Submissions allowed per connection (0 = unlimited). Requests
    /// past the quota get `Response::Error` and the connection stays
    /// usable for status/event reads.
    pub max_jobs_per_client: u64,
    /// Write-ahead job journal path (`--serve --journal PATH`). When
    /// set, every submission is journaled before it is acknowledged,
    /// and binding replays the previous life's unfinished jobs: queued
    /// jobs re-enter the queue and interrupted jobs re-run from their
    /// original submit lines. `None` (the default) keeps the pre-journal
    /// in-memory-only behavior.
    pub journal: Option<std::path::PathBuf>,
}

struct Shared {
    service: Mutex<SessionService>,
    work: Condvar,
    shutdown: AtomicBool,
    monitor: ServiceMonitor,
    options: ServerOptions,
    /// Write-ahead job journal (see [`ServerOptions::journal`]).
    /// Locked independently of the service so appends never extend a
    /// job-execution critical section. A failed append is logged and
    /// the daemon continues — durability degrades, service does not.
    journal: Option<Mutex<Journal>>,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionService> {
        self.service.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one journal record through `f`; errors are reported to
    /// stderr, never propagated (a full disk must not take down the
    /// analysis service).
    fn journal_append(&self, f: impl FnOnce(&mut Journal) -> std::io::Result<()>) {
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = f(&mut journal) {
                eprintln!("journal: append failed ({}): {e}", journal.path().display());
            }
        }
    }
}

/// A running daemon: the bound socket, its worker, and its accept loop.
///
/// Dropping the handle does **not** stop the daemon; call
/// [`Server::shutdown`] (or send a `Shutdown` request) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    /// The address as actually bound — for TCP with port 0 this is the
    /// assigned port, for Unix the socket path.
    local: String,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `path` (an existing socket file is replaced — a daemon that
    /// crashed leaves one behind) and start serving `service` with one
    /// job worker (jobs execute one at a time, as daemons did before
    /// concurrent execution existed).
    pub fn bind(path: impl AsRef<Path>, service: SessionService) -> std::io::Result<Server> {
        Server::bind_with_workers(path, service, 1)
    }

    /// [`Server::bind`] with a pool of `job_workers` threads executing
    /// queued jobs concurrently (clamped to at least 1). Status reads
    /// and event streams stay correct under concurrency — events are
    /// routed by job id — and epoch retirement is deferred until the
    /// in-flight jobs drain.
    pub fn bind_with_workers(
        path: impl AsRef<Path>,
        service: SessionService,
        job_workers: usize,
    ) -> std::io::Result<Server> {
        Server::bind_endpoint(
            &Endpoint::Unix(path.as_ref().to_path_buf()),
            service,
            job_workers,
            ServerOptions::default(),
        )
    }

    /// The general form: bind a Unix or TCP [`Endpoint`] with
    /// listener-level [`ServerOptions`] (token auth, per-client job
    /// quota). All connection handling, job execution, and protocol
    /// code is shared between the transports.
    pub fn bind_endpoint(
        endpoint: &Endpoint,
        service: SessionService,
        job_workers: usize,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let mut service = service;
        let listener = Listener::bind(endpoint)?;
        // Non-blocking accept: the loop polls the shutdown flag between
        // attempts, so `Shutdown` works without a wake-up connection.
        listener.set_nonblocking(true)?;
        let local = listener.local_display().unwrap_or_else(|| endpoint.display());
        // Journal recovery happens before the first connection can
        // race a submission: unfinished jobs from the previous daemon
        // life re-enter the queue (fresh ids), and the journal is
        // rewritten compacted with just their records.
        let journal = match &options.journal {
            None => None,
            Some(path) => {
                let replay = Journal::replay(path)?;
                let mut journal = Journal::create(path)?;
                let replayed = replay.len() as u64;
                for job in replay {
                    let line = Request::Submit {
                        name: job.name.clone(),
                        source: job.source.clone(),
                        spec: job.spec.clone(),
                    }
                    .to_line();
                    let id = service.submit_source(job.name, &job.source, job.spec);
                    eprintln!(
                        "journal: replaying job {} as {} ({})",
                        job.old_id,
                        id.as_u64(),
                        if job.interrupted { "interrupted" } else { "queued" },
                    );
                    if let Err(e) = journal.submitted(id.as_u64(), &line) {
                        eprintln!("journal: append failed ({}): {e}", path.display());
                    }
                }
                if replayed > 0 {
                    service.note_replayed(replayed);
                }
                Some(Mutex::new(journal))
            }
        };
        let monitor = service.monitor();
        let shared = Arc::new(Shared {
            service: Mutex::new(service),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            monitor,
            options,
            journal,
        });

        let workers = (0..job_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pitchfork-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pitchfork-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(Server {
            shared,
            endpoint: endpoint.clone(),
            local,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the daemon is serving on: the Unix socket path, or
    /// the TCP address actually bound (`--listen 127.0.0.1:0` reports
    /// the assigned port here).
    pub fn local_addr(&self) -> &str {
        &self.local
    }

    /// Ask the daemon to stop: no new connections; the worker drains
    /// the queue and exits.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
    }

    /// Block until the daemon stops, then remove the socket file (Unix
    /// endpoints only; TCP has nothing to clean up).
    pub fn wait(mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One job worker: pop a prepared job under the service lock, run it
/// with no lock held, publish the result. On shutdown the pool drains
/// the queue (and waits out jobs running on sibling workers) before
/// exiting, preserving the "shutdown finishes accepted work" contract.
fn worker_loop(shared: &Shared) {
    loop {
        let prepared = shared.lock().begin_next();
        match prepared {
            Some(job) => {
                let id = job.id().as_u64();
                shared.journal_append(|j| j.started(id));
                // The `worker-death` fault point kills the whole
                // process at the most damaging instant — a job
                // journaled `started` but not `finished` — which is
                // exactly what the journal's replay contract covers.
                if sct_faults::enabled()
                    && sct_faults::should_fire(sct_faults::FaultPoint::WorkerDeath)
                {
                    eprintln!("sct-faults: injected worker death (job {id})");
                    std::process::abort();
                }
                let finished = job.run();
                let mut service = shared.lock();
                service.finish(finished);
                drop(service);
                let status = shared
                    .monitor
                    .status(JobId::from_u64(id))
                    .unwrap_or(JobStatus::Done);
                shared.journal_append(|j| j.finished(id, status.name()));
                // Wake sibling workers (the queue may hold more) and
                // event streamers waiting on terminal status.
                shared.work.notify_all();
            }
            None => {
                let service = shared.lock();
                if shared.shutdown.load(Ordering::SeqCst)
                    && !service.has_pending()
                    && service.in_flight() == 0
                {
                    return;
                }
                let _ = shared
                    .work
                    .wait_timeout(service, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("pitchfork-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
            }
            Err(_) => {
                // Transient accept failures (EINTR, EMFILE under fd
                // pressure) must not kill the daemon's front door: back
                // off and keep accepting. The loop only exits via the
                // shutdown flag checked above.
                std::thread::sleep(IDLE_POLL);
            }
        }
    }
}

fn write_line(stream: &mut Stream, response: &Response) -> std::io::Result<()> {
    let mut line = response.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Build the `Verdicts` response for a job from the monitor's record
/// snapshot — no service lock, so it works mid-run.
fn verdicts_response(monitor: &ServiceMonitor, id: u64) -> Response {
    match monitor.job_record(JobId::from_u64(id)) {
        None => Response::Error {
            message: format!("unknown job {id}"),
        },
        Some(record) => {
            let (verdict, stats, violations) = match &record.report {
                Some(report) => (
                    Some(report.verdict()),
                    Some(report.stats),
                    report.violations.iter().map(WireViolation::from).collect(),
                ),
                None => (None, None, Vec::new()),
            };
            Response::Verdicts {
                id,
                status: record.status,
                verdict,
                stats,
                violations,
                error: record.error,
                elapsed_ms: record.elapsed_ms,
                clamped_states: record.clamped_states,
            }
        }
    }
}

/// Serve one connection until the client hangs up (or the daemon shuts
/// down). Garbage lines get [`Response::Error`] and the connection
/// stays usable; an oversized line ([`crate::protocol::read_line_capped`]
/// bounds buffering, so newline-less floods cost bounded memory, not
/// daemon OOM) gets the error and then the connection closes — the
/// stream is desynced mid-line.
fn handle_connection(stream: Stream, shared: &Arc<Shared>) -> std::io::Result<()> {
    use crate::protocol::{read_line_capped, CappedLine};
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Per-connection state: authentication (trivially satisfied when
    // no token is configured), submissions so far (the per-client
    // quota's denominator), and the seed-chunk accumulator.
    let mut authed = shared.options.token.is_none();
    let mut submitted: u64 = 0;
    let mut seed_buf: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let line = match read_line_capped(&mut reader)? {
            CappedLine::Line(line) => line,
            CappedLine::Eof => return Ok(()),
            CappedLine::Overflow => {
                write_line(
                    &mut writer,
                    &Response::Error {
                        message: "line exceeds size limit".into(),
                    },
                )?;
                return Ok(());
            }
        };
        let Ok(text) = String::from_utf8(line) else {
            write_line(
                &mut writer,
                &Response::Error {
                    message: "invalid UTF-8".into(),
                },
            )?;
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&text) {
            Ok(r) => r,
            Err(e) => {
                write_line(&mut writer, &Response::Error { message: e.to_string() })?;
                continue;
            }
        };
        match request {
            Request::Hello { token } => match &shared.options.token {
                Some(expected) if *expected != token => {
                    // A wrong token closes the connection: fail fast
                    // rather than inviting guesses on a kept-alive
                    // stream.
                    write_line(
                        &mut writer,
                        &Response::Error {
                            message: "invalid token".into(),
                        },
                    )?;
                    return Ok(());
                }
                // Matching token — or no token configured, in which
                // case the handshake is an accepted no-op so fleet
                // clients can always open with it.
                _ => {
                    authed = true;
                    write_line(&mut writer, &Response::Accepted { id: 0 })?;
                }
            },
            _ if !authed => {
                write_line(
                    &mut writer,
                    &Response::Error {
                        message: "authentication required: open with a hello request".into(),
                    },
                )?;
            }
            Request::Submit { name, source, spec } => {
                let quota = shared.options.max_jobs_per_client;
                if quota > 0 && submitted >= quota {
                    write_line(
                        &mut writer,
                        &Response::Error {
                            message: format!("job quota exceeded ({quota} per client)"),
                        },
                    )?;
                    continue;
                }
                submitted += 1;
                let journal_line = shared.journal.is_some().then(|| {
                    Request::Submit {
                        name: name.clone(),
                        source: source.clone(),
                        spec: spec.clone(),
                    }
                    .to_line()
                });
                let id = {
                    let mut service = shared.lock();
                    service.submit_source(name, &source, spec)
                };
                if let Some(line) = journal_line {
                    shared.journal_append(|j| j.submitted(id.as_u64(), &line));
                }
                shared.work.notify_all();
                write_line(&mut writer, &Response::Accepted { id: id.as_u64() })?;
            }
            Request::Cancel { id } => {
                let response = match shared.monitor.request_cancel(JobId::from_u64(id)) {
                    Some(_) => {
                        // Wake the workers: a queued job with the flag
                        // set is reaped (terminal `Cancelled`) at its
                        // next dequeue.
                        shared.work.notify_all();
                        Response::Accepted { id }
                    }
                    None => Response::Error {
                        message: format!("unknown job {id}"),
                    },
                };
                write_line(&mut writer, &response)?;
            }
            Request::Seed { chunk, last } => {
                let response = apply_seed_chunk(shared, &mut seed_buf, &chunk, last);
                write_line(&mut writer, &response)?;
            }
            Request::Status { id } => {
                write_line(&mut writer, &verdicts_response(&shared.monitor, id))?;
            }
            Request::Events { id, since } => {
                stream_events(&mut writer, shared, id, since)?;
            }
            Request::Ping => {
                // Answered on the connection thread with only a brief
                // service-lock hold, so a daemon whose job workers are
                // wedged still pongs — the coordinator's idle-stream
                // timeout, not this probe, is what catches a hung
                // *connection*.
                let (in_flight, queued) = {
                    let service = shared.lock();
                    (service.in_flight() as u64, service.queue_len() as u64)
                };
                write_line(&mut writer, &Response::Pong { in_flight, queued })?;
            }
            Request::Stats => {
                let stats = shared.lock().stats();
                write_line(&mut writer, &Response::Stats { stats })?;
            }
            Request::Metrics => {
                // Service counters under the lock; the metric registry
                // is its own concurrency domain (atomics), so the
                // snapshot needs no service lock.
                let stats = shared.lock().stats();
                let metrics = sct_telemetry::global().snapshot();
                write_line(&mut writer, &Response::Metrics { stats, metrics })?;
            }
            Request::Retire => {
                let response = {
                    let mut service = shared.lock();
                    match service.retire() {
                        Ok(_) => Response::Stats {
                            stats: service.stats(),
                        },
                        Err(e) => Response::Error {
                            message: format!("retire failed: {e}"),
                        },
                    }
                };
                write_line(&mut writer, &response)?;
            }
            Request::Shutdown => {
                let stats = shared.lock().stats();
                write_line(&mut writer, &Response::Stats { stats })?;
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.work.notify_all();
                return Ok(());
            }
        }
    }
}

/// Accumulate one `Seed` chunk; on the final chunk, decode the
/// snapshot and hydrate it into the process arena/memo. Hydration runs
/// under the service lock — imports touch the process-wide arena and
/// solver memo and must not race an epoch retirement. Non-final chunks
/// answer `Seeded{0,0}`; the final chunk answers the import counts (or
/// an error, clearing the accumulator either way).
fn apply_seed_chunk(
    shared: &Shared,
    seed_buf: &mut Vec<u8>,
    chunk: &str,
    last: bool,
) -> Response {
    let bytes = match crate::protocol::hex_decode(chunk) {
        Ok(b) => b,
        Err(e) => {
            seed_buf.clear();
            return Response::Error {
                message: format!("bad seed chunk: {e}"),
            };
        }
    };
    seed_buf.extend_from_slice(&bytes);
    if !last {
        return Response::Seeded {
            nodes: 0,
            verdicts: 0,
        };
    }
    let payload = std::mem::take(seed_buf);
    let snapshot = match sct_cache::Snapshot::decode(&payload) {
        Ok(s) => s,
        Err(e) => {
            return Response::Error {
                message: format!("bad seed snapshot: {e}"),
            }
        }
    };
    let mut service = shared.lock();
    match snapshot.hydrate() {
        Err(e) => Response::Error {
            message: format!("seed import failed: {e}"),
        },
        Ok(stats) => {
            let nodes = stats.arena.added as u64;
            let verdicts = stats.memo.imported as u64;
            service.note_seed(nodes, verdicts);
            Response::Seeded { nodes, verdicts }
        }
    }
}

/// Stream a job's events as `EventBatch` lines until the job is
/// terminal and its log drained. Served entirely from the monitor, so
/// batches flow while the worker analyzes.
fn stream_events(
    writer: &mut Stream,
    shared: &Arc<Shared>,
    id: u64,
    since: u64,
) -> std::io::Result<()> {
    let job = JobId::from_u64(id);
    let mut cursor = since as usize;
    loop {
        // Status before events: a job whose status reads terminal has
        // already logged its last event, so the events read that
        // *follows* is guaranteed complete (the reverse order could
        // miss events appended between the two reads).
        let status = shared.monitor.status(job).unwrap_or(JobStatus::Failed);
        let Some((events, next)) = shared.monitor.events_since(job, cursor) else {
            return write_line(
                writer,
                &Response::Error {
                    message: format!("unknown job {id}"),
                },
            );
        };
        let done = status.is_terminal();
        let had_events = !events.is_empty();
        if had_events || done {
            let dropped = shared.monitor.events_dropped(job).unwrap_or(0) as u64;
            write_line(
                writer,
                &Response::EventBatch {
                    id,
                    events,
                    next: next as u64,
                    done,
                    dropped,
                },
            )?;
        }
        if done {
            return Ok(());
        }
        cursor = next;
        if shared.shutdown.load(Ordering::SeqCst) {
            // The daemon is going away; close the stream with a final
            // (possibly empty) terminal batch.
            return write_line(
                writer,
                &Response::EventBatch {
                    id,
                    events: Vec::new(),
                    next: cursor as u64,
                    done: true,
                    dropped: shared.monitor.events_dropped(job).unwrap_or(0) as u64,
                },
            );
        }
        if !had_events {
            std::thread::sleep(IDLE_POLL);
        }
    }
}
