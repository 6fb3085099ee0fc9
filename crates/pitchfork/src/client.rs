//! A std-only client for the `pitchfork --serve` daemon: connect to
//! the Unix socket or a fleet worker's TCP address, speak the line
//! protocol, get typed answers back.
//!
//! ```no_run
//! use pitchfork::client::Client;
//! use pitchfork::service::JobSpec;
//! use std::time::Duration;
//!
//! let mut client = Client::connect("/tmp/pitchfork.sock").unwrap();
//! let id = client
//!     .submit_source("fig1", "start:\n    rb = load [0x40, ra]\n", JobSpec::default())
//!     .unwrap();
//! let view = client.wait(id, Duration::from_secs(10)).unwrap();
//! println!("{}: {:?}", view.id, view.verdict);
//! ```

use crate::observe::OwnedEvent;
use crate::protocol::{ProtocolError, Request, Response, WireViolation};
use crate::report::{ExploreStats, Verdict};
use crate::service::{JobId, JobSpec, JobStatus, ServiceStats};
use crate::transport::Stream;
use std::io::{BufReader, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure (daemon gone, connect refused, ...).
    Io(std::io::Error),
    /// The daemon sent a line the protocol cannot decode.
    Protocol(ProtocolError),
    /// The daemon answered [`Response::Error`].
    Server(String),
    /// The daemon answered with an unexpected response variant.
    Unexpected(&'static str),
    /// [`Client::wait`] ran out of time.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon io error: {e}"),
            ClientError::Protocol(e) => write!(f, "daemon sent garbage: {e}"),
            ClientError::Server(m) => write!(f, "daemon error: {m}"),
            ClientError::Unexpected(wanted) => {
                write!(f, "daemon sent an unexpected response (wanted {wanted})")
            }
            ClientError::Timeout => write!(f, "timed out waiting for the job"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A job as the daemon reports it: status, and verdicts once done.
#[derive(Clone, Debug)]
pub struct JobView {
    /// The job id.
    pub id: JobId,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The typed verdict (`None` until done).
    pub verdict: Option<Verdict>,
    /// Exploration statistics (`None` until done).
    pub stats: Option<ExploreStats>,
    /// Rendered witnesses.
    pub violations: Vec<WireViolation>,
    /// Failure message for failed jobs.
    pub error: Option<String>,
    /// Wall-clock milliseconds running (live while `running`, final
    /// once terminal; `None` from pre-telemetry daemons).
    pub elapsed_ms: Option<u64>,
    /// The state budget actually applied when the submitted
    /// `max_states` exceeded the daemon's cap and was clamped down
    /// (`None` when no clamp happened, and from pre-fleet daemons).
    pub clamped_states: Option<u64>,
}

/// A connection to a running daemon.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    /// Set when the stream desynced (an oversized line was truncated
    /// mid-read); every later call fails fast instead of parsing from
    /// the middle of a line.
    broken: bool,
}

impl Client {
    /// Connect to the daemon's Unix socket.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Client> {
        Client::from_stream(Stream::connect_unix(path)?)
    }

    /// Connect to a daemon address — `HOST:PORT` for a TCP fleet
    /// worker, anything else as a Unix socket path (the rule of
    /// [`crate::transport::Endpoint::parse`]).
    pub fn connect_addr(addr: &str) -> std::io::Result<Client> {
        Client::from_stream(Stream::connect(addr)?)
    }

    fn from_stream(stream: Stream) -> std::io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            broken: false,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        if self.broken {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "connection desynced by an oversized response line",
            )));
        }
        match crate::protocol::read_line_capped(&mut self.reader)? {
            crate::protocol::CappedLine::Eof => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ))),
            crate::protocol::CappedLine::Overflow => {
                // The rest of this line is still in the stream; parsing
                // from its middle would answer every later request with
                // garbage. Poison the connection instead.
                self.broken = true;
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "daemon response exceeds the protocol size limit",
                )))
            }
            crate::protocol::CappedLine::Line(line) => {
                let text = String::from_utf8(line).map_err(|_| {
                    ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "daemon sent invalid UTF-8",
                    ))
                })?;
                Ok(Response::parse(&text)?)
            }
        }
    }

    /// Send one request and read one response. `Error` responses become
    /// [`ClientError::Server`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        match self.recv()? {
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Submit `.sasm` source; returns the assigned job id. (A source
    /// that fails to assemble is still accepted — its status is
    /// immediately `failed` with the diagnostic.)
    pub fn submit_source(
        &mut self,
        name: impl Into<String>,
        source: impl Into<String>,
        spec: JobSpec,
    ) -> Result<JobId, ClientError> {
        match self.request(&Request::Submit {
            name: name.into(),
            source: source.into(),
            spec,
        })? {
            Response::Accepted { id } => Ok(JobId::from_u64(id)),
            _ => Err(ClientError::Unexpected("accepted")),
        }
    }

    /// One status/verdict snapshot for a job.
    pub fn status(&mut self, id: JobId) -> Result<JobView, ClientError> {
        match self.request(&Request::Status { id: id.as_u64() })? {
            Response::Verdicts {
                id,
                status,
                verdict,
                stats,
                violations,
                error,
                elapsed_ms,
                clamped_states,
            } => Ok(JobView {
                id: JobId::from_u64(id),
                status,
                verdict,
                stats,
                violations,
                error,
                elapsed_ms,
                clamped_states,
            }),
            _ => Err(ClientError::Unexpected("verdicts")),
        }
    }

    /// Authenticate with the daemon's shared token. Must be the first
    /// request on a connection to a `--token` daemon; a daemon without
    /// a token accepts the handshake as a no-op, so fleet clients can
    /// always send it. A wrong token errors and the daemon closes the
    /// connection.
    pub fn hello(&mut self, token: impl Into<String>) -> Result<(), ClientError> {
        match self.request(&Request::Hello {
            token: token.into(),
        })? {
            Response::Accepted { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("accepted")),
        }
    }

    /// Request cancellation of a job: a queued job is reaped without
    /// running; a running job stops cooperatively at its next state
    /// expansion. Either way its status becomes `cancelled`.
    pub fn cancel(&mut self, id: JobId) -> Result<(), ClientError> {
        match self.request(&Request::Cancel { id: id.as_u64() })? {
            Response::Accepted { .. } => Ok(()),
            _ => Err(ClientError::Unexpected("accepted")),
        }
    }

    /// Ship an `sct-cache` snapshot to the daemon as a warm start: the
    /// encoded bytes travel as hex chunks small enough for the line
    /// cap, and the daemon hydrates the snapshot into its arena and
    /// verdict memo on the final chunk. Returns `(nodes, verdicts)`
    /// imported.
    pub fn seed(&mut self, snapshot_bytes: &[u8]) -> Result<(u64, u64), ClientError> {
        // 256 KiB of raw bytes per chunk = 512 KiB of hex, comfortably
        // under the 1 MiB protocol line cap with JSON framing around it.
        const CHUNK_RAW: usize = 256 * 1024;
        let mut chunks = snapshot_bytes.chunks(CHUNK_RAW).peekable();
        loop {
            // An empty snapshot still sends one final empty chunk so
            // the daemon answers with its (zero) import counts.
            let chunk = chunks.next().unwrap_or_default();
            let last = chunks.peek().is_none();
            match self.request(&Request::Seed {
                chunk: crate::protocol::hex_encode(chunk),
                last,
            })? {
                Response::Seeded { nodes, verdicts } if last => return Ok((nodes, verdicts)),
                Response::Seeded { .. } => {}
                _ => return Err(ClientError::Unexpected("seeded")),
            }
        }
    }

    /// Poll until the job is terminal (10 ms cadence) or `timeout`
    /// elapses.
    pub fn wait(&mut self, id: JobId, timeout: Duration) -> Result<JobView, ClientError> {
        let start = Instant::now();
        loop {
            let view = self.status(id)?;
            if view.status.is_terminal() {
                return Ok(view);
            }
            if start.elapsed() > timeout {
                return Err(ClientError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Subscribe to a job's event stream from cursor `since`, calling
    /// `on_event` for each event as batches arrive (while the job
    /// runs). Returns the final cursor once the job is done and the
    /// stream drained.
    pub fn stream_events(
        &mut self,
        id: JobId,
        since: u64,
        mut on_event: impl FnMut(&OwnedEvent),
    ) -> Result<u64, ClientError> {
        self.send(&Request::Events {
            id: id.as_u64(),
            since,
        })?;
        loop {
            match self.recv()? {
                Response::EventBatch {
                    events, next, done, ..
                } => {
                    for e in &events {
                        on_event(e);
                    }
                    if done {
                        return Ok(next);
                    }
                }
                Response::Error { message } => return Err(ClientError::Server(message)),
                _ => return Err(ClientError::Unexpected("events")),
            }
        }
    }

    /// Health-check the daemon: returns `(in_flight, queued)` job
    /// counts. Answered on the connection thread with only a brief
    /// service-lock hold, so a daemon whose job workers are wedged
    /// still pongs — combine with [`Client::set_read_timeout`] to tell
    /// a hung daemon (read times out) from a busy one (pong with a
    /// nonzero queue).
    pub fn ping(&mut self) -> Result<(u64, u64), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { in_flight, queued } => Ok((in_flight, queued)),
            _ => Err(ClientError::Unexpected("pong")),
        }
    }

    /// Bound every read on this connection: a daemon that accepts but
    /// never answers surfaces as a `WouldBlock`/`TimedOut` I/O error
    /// instead of blocking forever. The timeout is set on the
    /// underlying socket, so it covers the buffered reader too; `None`
    /// restores blocking reads.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Service statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// The daemon's full telemetry snapshot: service statistics plus
    /// every registered counter, gauge, and latency histogram.
    pub fn metrics(
        &mut self,
    ) -> Result<(ServiceStats, Vec<sct_telemetry::MetricSnapshot>), ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { stats, metrics } => Ok((stats, metrics)),
            _ => Err(ClientError::Unexpected("metrics")),
        }
    }

    /// Retire the daemon's arena epoch now (snapshot save →
    /// warm-start). Returns the post-retirement statistics.
    pub fn retire(&mut self) -> Result<ServiceStats, ClientError> {
        match self.request(&Request::Retire)? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }

    /// Ask the daemon to exit once its queue drains. Returns its final
    /// statistics.
    pub fn shutdown(&mut self) -> Result<ServiceStats, ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(ClientError::Unexpected("stats")),
        }
    }
}
