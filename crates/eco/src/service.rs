//! The Unix-domain-socket front end: N concurrent clients, one resident engine.
//!
//! Concurrency model: the engine is deliberately **single-resident** — legalization state
//! (design, index, density map, scratch arena) is one mutable session, so the server never
//! runs two batches concurrently. Instead, each accepted connection gets a reader thread
//! that decodes frames and pushes jobs onto a bounded [`std::sync::mpsc::sync_channel`];
//! one supervisor thread ([`crate::supervise`]) drains the queue in arrival order and
//! sends each response back through the job's reply channel. Back-pressure is the queue
//! bound (`ServerConfig::queue_capacity`) — and it *sheds* rather than blocks: when the
//! queue is full the connection answers a typed `Busy` response with a retry-after hint
//! instead of wedging its reader thread ([`EcoClient`]'s retry loop backs off and resends).
//!
//! Deadlines: every connection carries read/write timeouts
//! ([`ServerConfig::idle_timeout`]), so a client that connects and then sends nothing —
//! or stops draining its replies — is disconnected and its thread reclaimed instead of
//! being pinned forever.
//!
//! Durability: every `apply` batch is appended to a write-ahead [`Journal`] **before** it
//! reaches the engine; a journal failure produces a typed error and the engine stays
//! untouched. See [`crate::journal`] for the recovery side. A server started without a
//! journal ([`ServerConfig::journal`] `None`) journals into a private directory next to
//! its socket (the socket path with `.journal` appended): no fsync, a snapshot every 256
//! batches, cleared when stale at start and removed by [`ServerHandle::join`]. It exists
//! only so the supervisor can rebuild a crashed engine.
//!
//! Shutdown: a `shutdown` request raises an atomic flag, is acknowledged, and stops the
//! supervisor thread; a self-connection unblocks the accept loop, which then hangs up every
//! client connection (waking loops blocked in a read) and joins every client thread. So
//! [`ServerHandle::join`] returning means no thread of the server is left running — it
//! hands the resident [`EcoEngine`] back for post-shutdown inspection. The same wind-down
//! runs if the supervisor thread panics (a drop guard raises the flag and pokes the accept
//! loop during unwinding), so an unrecoverable engine surfaces as a re-raised panic from
//! `join`, never a hang.

use crate::delta::{DeltaKind, EcoError};
use crate::engine::EcoEngine;
use crate::fault;
use crate::journal::{Journal, JournalConfig};
use crate::json::Json;
use crate::proto::{
    busy_retry_after, decode_request, encode_error, encode_health, encode_info,
    encode_metrics_json, encode_metrics_text, encode_request, encode_stats, encode_trace,
    read_frame, recovering_retry_after, write_frame, Request,
};
use crate::supervise::{supervisor_loop, SuperviseConfig, SupervisorShared, SupervisorState};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One queued request: the decoded payload plus the channel the response goes back on.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) reply: SyncSender<Vec<u8>>,
}

/// Server tuning: queue bound, connection deadlines, load-shedding hint, durability.
pub struct ServerConfig {
    /// Bound of the job queue. A full queue sheds (`Busy`) instead of blocking readers.
    pub queue_capacity: usize,
    /// Per-connection read/write deadline. A connection idle (or not draining replies)
    /// past this is disconnected and its thread reclaimed. `None` disables deadlines and
    /// restores block-forever reads.
    pub idle_timeout: Option<Duration>,
    /// The retry-after hint carried by `Busy` responses, in milliseconds.
    pub busy_retry_after_ms: u64,
    /// Write-ahead journal; every accepted apply batch is journaled before it is applied.
    /// `None` journals into a private directory next to the socket instead (see the
    /// module docs), which is removed again when the server is joined.
    pub journal: Option<Journal>,
    /// Self-healing supervision: the engine runs on a disposable worker thread behind a
    /// watchdog; a batch that panics or hangs it is quarantined with a typed `Poisoned`
    /// reply and the engine is rebuilt from snapshot + journal without dropping
    /// connections (see [`crate::supervise`]).
    pub supervise: SuperviseConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            idle_timeout: Some(Duration::from_secs(30)),
            busy_retry_after_ms: 2,
            journal: None,
            supervise: SuperviseConfig::default(),
        }
    }
}

/// The private journal of a server started without one snapshots every this many batches,
/// so a rebuild after an engine crash replays at most this many batches.
const PRIVATE_SNAPSHOT_EVERY: u64 = 256;

/// Appended to the socket path to name the private journal directory.
const PRIVATE_JOURNAL_SUFFIX: &str = ".journal";

/// A running ECO server.
pub struct EcoServer;

/// Handle to a running server: join it to get the resident engine back.
pub struct ServerHandle {
    path: PathBuf,
    /// The private journal directory, when the server was started without a journal.
    private_journal: Option<PathBuf>,
    accept: JoinHandle<()>,
    engine: JoinHandle<EcoEngine>,
}

impl EcoServer {
    /// Bind `path` and serve with default deadlines and a private journal (see
    /// [`EcoServer::start_with`]).
    pub fn start(
        engine: EcoEngine,
        path: impl AsRef<Path>,
        queue_capacity: usize,
    ) -> std::io::Result<ServerHandle> {
        Self::start_with(
            engine,
            path,
            ServerConfig {
                queue_capacity,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind `path` (any stale socket file is removed first) and serve `engine` until a
    /// `shutdown` request arrives. Without a configured journal, a private one is created
    /// next to the socket (a stale one is cleared first, never recovered from).
    pub fn start_with(
        engine: EcoEngine,
        path: impl AsRef<Path>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let (journal, private_journal) = match config.journal {
            Some(journal) => (journal, None),
            None => {
                let mut dir = path.clone().into_os_string();
                dir.push(PRIVATE_JOURNAL_SUFFIX);
                let dir = PathBuf::from(dir);
                let _ = std::fs::remove_dir_all(&dir);
                let cfg = JournalConfig {
                    snapshot_every: PRIVATE_SNAPSHOT_EVERY,
                    ..JournalConfig::new(&dir)
                };
                match Journal::create(cfg, engine.design(), engine.stats(), 0) {
                    Ok(journal) => (journal, Some(dir)),
                    Err(e) => {
                        let _ = std::fs::remove_file(&path);
                        let _ = std::fs::remove_dir_all(&dir);
                        return Err(e);
                    }
                }
            }
        };
        let stopping = Arc::new(AtomicBool::new(false));
        let (job_tx, job_rx) = sync_channel::<Job>(config.queue_capacity.max(1));
        let shared = Arc::new(SupervisorShared::new(config.supervise.retry_after_ms));
        let conn = ConnConfig {
            idle_timeout: config.idle_timeout,
            busy_retry_after_ms: config.busy_retry_after_ms,
            shared: Arc::clone(&shared),
        };

        let engine_handle = {
            let stopping = Arc::clone(&stopping);
            let path = path.clone();
            let sup = config.supervise;
            std::thread::spawn(move || {
                supervisor_loop(engine, journal, sup, shared, job_rx, stopping, path)
            })
        };

        let accept_handle = {
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || accept_loop(listener, job_tx, stopping, conn))
        };

        Ok(ServerHandle {
            path,
            private_journal,
            accept: accept_handle,
            engine: engine_handle,
        })
    }
}

impl ServerHandle {
    /// The socket path the server is listening on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Block until the server has fully stopped (a client sent `shutdown`) and take the
    /// resident engine back. The socket file and any private journal are removed before
    /// this returns. If the supervisor thread panicked, the panic is re-raised here (a
    /// `StopGuard` guarantees the accept loop still winds down first, so this never
    /// deadlocks).
    pub fn join(self) -> EcoEngine {
        let _ = self.accept.join();
        let engine = self.engine.join();
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = &self.private_journal {
            let _ = std::fs::remove_dir_all(dir);
        }
        engine.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// The per-connection slice of [`ServerConfig`] (cloned into client threads).
#[derive(Clone)]
struct ConnConfig {
    idle_timeout: Option<Duration>,
    busy_retry_after_ms: u64,
    /// Health state: connection threads answer `health` from this and shed applies with
    /// a typed `Recovering` while the supervisor is rebuilding the engine.
    shared: Arc<SupervisorShared>,
}

/// Winds the server down no matter how the supervisor thread exits — including a panic
/// (an engine it cannot rebuild at shutdown), when this runs during unwinding: raise the
/// stop flag so `accept_loop` and every `client_loop` break out, then poke the accept loop
/// with a throwaway self-connection so it is not left blocked in `accept`. Without this, a
/// supervisor panic would leave `ServerHandle::join` deadlocked on the accept thread
/// forever.
pub(crate) struct StopGuard {
    pub(crate) stopping: Arc<AtomicBool>,
    pub(crate) path: PathBuf,
}

impl Drop for StopGuard {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.path);
    }
}

/// Answer a read-only query against the engine (on the supervised worker thread).
/// `Apply`/`Shutdown`/`Health` never reach this.
pub(crate) fn query_response(engine: &EcoEngine, request: &Request) -> Vec<u8> {
    match request {
        Request::Info => {
            let d = engine.design();
            encode_info(
                &d.name,
                d.num_sites_x,
                d.num_rows,
                engine.live_cells(),
                engine.check_legal(),
                engine.uptime(),
            )
        }
        Request::Stats => encode_stats(engine.stats(), engine.uptime()),
        Request::Metrics { prometheus } => metrics_response(engine, *prometheus),
        Request::Trace { chrome } => encode_trace(&flex_obs::collect_spans(), *chrome),
        _ => encode_error(&EcoError::Protocol("not a query".to_string())),
    }
}

/// Compose the `metrics` response: publish the engine's lifetime counters and uptime into
/// the process registry, take a snapshot, graft in the per-delta-kind apply-latency
/// histograms, and render as JSON or Prometheus text.
fn metrics_response(engine: &EcoEngine, prometheus: bool) -> Vec<u8> {
    let registry = flex_obs::global();
    engine.stats().publish_to(registry);
    registry
        .gauge("eco_uptime_seconds")
        .set(engine.uptime().as_secs() as i64);
    let mut snap = registry.snapshot();
    for kind in DeltaKind::ALL {
        snap.histograms.insert(
            format!("eco_apply_latency_ns{{kind=\"{}\"}}", kind.name()),
            engine.latency_histograms()[kind.index()].clone(),
        );
    }
    if prometheus {
        encode_metrics_text(&flex_obs::export::snapshot_prometheus(&snap))
    } else {
        encode_metrics_json(&flex_obs::export::snapshot_json(&snap))
    }
}

/// Accept clients until the stop flag is raised, then hang up on every connection (client
/// loops blocked in a read wake with EOF) and join every client thread before exiting.
fn accept_loop(
    listener: UnixListener,
    jobs: SyncSender<Job>,
    stopping: Arc<AtomicBool>,
    conn_cfg: ConnConfig,
) {
    let mut clients: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let Ok(conn) = stream.try_clone() else {
            continue;
        };
        let jobs = jobs.clone();
        let stopping = Arc::clone(&stopping);
        let conn_cfg = conn_cfg.clone();
        let handle = std::thread::spawn(move || client_loop(stream, jobs, stopping, conn_cfg));
        clients.push((conn, handle));
    }
    for (conn, handle) in clients {
        // shut down only the read side: a loop blocked in `read_frame` wakes with EOF,
        // while a reply still being written (the shutdown ack itself) flushes intact
        let _ = conn.shutdown(std::net::Shutdown::Read);
        let _ = handle.join();
    }
}

/// Whether an I/O error is the connection's read deadline expiring (Unix reports a
/// timed-out socket read as either `WouldBlock` or `TimedOut` depending on platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One connection: read frames, enqueue jobs, write responses — until EOF, shutdown, or
/// an expired deadline (an idle client is disconnected, not waited on forever).
fn client_loop(
    stream: UnixStream,
    jobs: SyncSender<Job>,
    stopping: Arc<AtomicBool>,
    conn_cfg: ConnConfig,
) {
    flex_obs::global().counter("eco_connections_total").inc();
    if let Some(deadline) = conn_cfg.idle_timeout {
        // failure to arm a deadline must not grant an infinite one
        if stream.set_read_timeout(Some(deadline)).is_err()
            || stream.set_write_timeout(Some(deadline)).is_err()
        {
            return;
        }
    }
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let frame = fault::fail_io("eco.socket.read").and_then(|()| read_frame(&mut reader));
        let payload = match frame {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean EOF
            Err(e) => {
                if is_timeout(&e) {
                    flex_obs::global()
                        .counter("eco_idle_disconnects_total")
                        .inc();
                }
                break; // deadline expired or the stream broke: reclaim the thread
            }
        };
        let response = match decode_request(&payload) {
            // `health` is answered right here, engine-free, so it works even while the
            // engine is hung mid-batch or the supervisor is rebuilding it
            Ok(Request::Health) => encode_health(&conn_cfg.shared.snapshot()),
            // applies arriving while the supervisor rebuilds the engine are shed with a
            // typed Recovering (the connection survives; the retry loop absorbs it)
            Ok(Request::Apply(_)) if conn_cfg.shared.state() == SupervisorState::Recovering => {
                recovering_response(&conn_cfg.shared)
            }
            Ok(request) => {
                let (reply_tx, reply_rx) = sync_channel::<Vec<u8>>(1);
                let job = Job {
                    request,
                    reply: reply_tx,
                };
                // shed instead of blocking: a full queue answers Busy so this reader
                // thread stays responsive (the "eco.queue.full" failpoint forces the shed
                // path deterministically in tests)
                let shed = fault::armed() && fault::fires("eco.queue.full");
                if shed {
                    busy_response(conn_cfg.busy_retry_after_ms)
                } else {
                    match jobs.try_send(job) {
                        Ok(()) => match reply_rx.recv() {
                            Ok(response) => response,
                            Err(_) => break,
                        },
                        Err(TrySendError::Full(_)) => busy_response(conn_cfg.busy_retry_after_ms),
                        Err(TrySendError::Disconnected(_)) => break, // supervisor stopped
                    }
                }
            }
            Err(msg) => encode_error(&EcoError::Protocol(msg)),
        };
        let wrote =
            fault::fail_io("eco.socket.write").and_then(|()| write_frame(&mut writer, &response));
        if wrote.is_err() {
            break;
        }
        // after a shutdown has been acknowledged (possibly by this very reply), stop
        // reading: the accept thread is about to join this loop and must not wait on a
        // client that never hangs up
        if stopping.load(Ordering::SeqCst) {
            break;
        }
    }
    // actually hang up: the accept loop retains a clone of this stream (to wake us at
    // shutdown), so merely dropping our handles leaves the connection half-open and a
    // peer blocked in a read would wait forever instead of seeing EOF and reconnecting
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

fn busy_response(retry_after_ms: u64) -> Vec<u8> {
    flex_obs::global().counter("eco_busy_total").inc();
    encode_error(&EcoError::Busy { retry_after_ms })
}

fn recovering_response(shared: &SupervisorShared) -> Vec<u8> {
    flex_obs::global()
        .counter("eco_recovering_shed_total")
        .inc();
    encode_error(&EcoError::Recovering {
        retry_after_ms: shared.retry_after_ms(),
    })
}

/// How [`EcoClient`] retries transient failures: exponential backoff with seeded jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on the first transient error).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed (deterministic backoff schedules for tests and soak runs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 6,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            seed: 0x5EED,
        }
    }
}

/// A blocking client for the framed protocol (used by the tests, the example client binary
/// and the CI smoke step). Remembers the socket path, so the retrying entry point
/// ([`EcoClient::request_json_retry`]) can reconnect when the server dropped the
/// connection (an idle-deadline disconnect, a server restart after a crash).
pub struct EcoClient {
    stream: UnixStream,
    path: PathBuf,
    retry: RetryPolicy,
    retries_performed: u64,
    busy_shed_seen: u64,
    recovering_seen: u64,
    jitter: u64,
}

impl EcoClient {
    /// Connect to a running server.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let retry = RetryPolicy::default();
        Ok(Self {
            stream: UnixStream::connect(&path)?,
            path,
            jitter: fault::scramble_seed(retry.seed),
            retry,
            retries_performed: 0,
            busy_shed_seen: 0,
            recovering_seen: 0,
        })
    }

    /// Replace the retry policy (affects [`EcoClient::request_json_retry`] only).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.jitter = fault::scramble_seed(retry.seed);
        self.retry = retry;
        self
    }

    /// Transient failures absorbed so far (reconnect-and-resend retries plus `Busy` sheds
    /// waited out) — the load generator reports these in its summary.
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// `Busy` shed responses absorbed by the retry loop so far.
    pub fn busy_shed_seen(&self) -> u64 {
        self.busy_shed_seen
    }

    /// `Recovering` shed responses absorbed by the retry loop so far (the server was
    /// rebuilding its engine after a quarantine; counted separately from `Busy` so load
    /// summaries can distinguish back-pressure from self-healing windows).
    pub fn recovering_seen(&self) -> u64 {
        self.recovering_seen
    }

    /// Send one request and wait for its response payload (raw JSON bytes). One attempt,
    /// no retries — transient failures surface as errors.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Vec<u8>> {
        write_frame(&mut self.stream, &encode_request(request))?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            )
        })
    }

    /// Send one request and parse the response, returning the parsed JSON if `ok` is true
    /// and the error string otherwise. One attempt, no retries.
    pub fn request_json(&mut self, request: &Request) -> std::io::Result<Result<Json, String>> {
        let payload = self.request(request)?;
        Self::parse_response(&payload)
    }

    /// Like [`EcoClient::request_json`], but absorb transient failures: a `Busy` shed
    /// waits out the server's retry-after hint, a retryable I/O error (timeout, reset,
    /// dropped connection, refused reconnect) reconnects and resends, both under
    /// exponential backoff with seeded jitter. Fatal errors (protocol violations,
    /// malformed data) and request rejections return immediately.
    ///
    /// Retrying re-*sends*: if the failure hit after the server received the request but
    /// before the reply arrived, the request may execute twice (at-least-once delivery).
    /// Idempotent ops (`info`, `stats`, …) don't care; `apply` callers that need
    /// exactly-once must not see transient errors in the first place (Unix sockets on one
    /// host) or must de-duplicate above this layer.
    pub fn request_json_retry(
        &mut self,
        request: &Request,
    ) -> std::io::Result<Result<Json, String>> {
        let mut attempt = 0u32;
        loop {
            match self.request(request) {
                Ok(payload) => {
                    // a malformed response is fatal, never retried: the server is
                    // speaking a different protocol, resending won't fix that
                    let text = String::from_utf8_lossy(&payload).into_owned();
                    let json = Json::parse(&text)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                    if json.get("ok").and_then(Json::as_bool) == Some(true) {
                        return Ok(Ok(json));
                    }
                    if let Some(hint_ms) = busy_retry_after(&json) {
                        if attempt >= self.retry.max_retries {
                            return Ok(Err(format!("server still busy after {attempt} retries")));
                        }
                        self.busy_shed_seen += 1;
                        self.retries_performed += 1;
                        let backoff = self.backoff_delay(attempt);
                        std::thread::sleep(backoff.max(Duration::from_millis(hint_ms)));
                        attempt += 1;
                        continue;
                    }
                    // a Recovering shed (engine rebuild in progress) is absorbed exactly
                    // like Busy — wait out the hint, resend — but counted separately
                    if let Some(hint_ms) = recovering_retry_after(&json) {
                        if attempt >= self.retry.max_retries {
                            return Ok(Err(format!(
                                "server still recovering after {attempt} retries"
                            )));
                        }
                        self.recovering_seen += 1;
                        self.retries_performed += 1;
                        let backoff = self.backoff_delay(attempt);
                        std::thread::sleep(backoff.max(Duration::from_millis(hint_ms)));
                        attempt += 1;
                        continue;
                    }
                    // a real rejection (validation, journal, protocol): the caller's
                    // problem, not a transient
                    return Ok(Err(json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error")
                        .to_string()));
                }
                Err(e) => {
                    if !is_retryable(&e) || attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    self.retries_performed += 1;
                    std::thread::sleep(self.backoff_delay(attempt));
                    attempt += 1;
                    // the old stream is suspect after any I/O error: reconnect (the
                    // server may also be mid-restart, in which case connect itself is
                    // the retried operation)
                    if let Ok(stream) = UnixStream::connect(&self.path) {
                        self.stream = stream;
                    }
                }
            }
        }
    }

    fn parse_response(payload: &[u8]) -> std::io::Result<Result<Json, String>> {
        let text = String::from_utf8_lossy(payload).into_owned();
        let json = Json::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if json.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(Ok(json))
        } else {
            Ok(Err(json
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string()))
        }
    }

    /// Exponential backoff with full jitter: uniform in `(0, base × 2^attempt]`, capped.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let ceil = self
            .retry
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.retry.max_delay)
            .max(Duration::from_micros(100));
        // xorshift64* jitter, seeded per client
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        let frac = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        ceil.mul_f64(frac.max(0.1))
    }
}

/// Transient, worth a reconnect-and-resend: deadline expiries, connection drops (the
/// server's idle disconnect, a crash, a restart) and interrupted syscalls. Everything
/// else — protocol errors, invalid data, permission problems — is fatal.
fn is_retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a supervisor-thread panic used to leave `stopping` unset, so the accept
    /// loop never exited and `ServerHandle::join` hung forever. The guard must raise the
    /// flag during unwinding.
    #[test]
    fn stop_guard_raises_the_flag_during_panic_unwind() {
        let stopping = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stopping);
        let handle = std::thread::spawn(move || {
            let _guard = StopGuard {
                stopping: flag,
                path: PathBuf::from("/nonexistent/eco-stop-guard.sock"),
            };
            panic!("simulated engine bug");
        });
        assert!(handle.join().is_err(), "the thread must have panicked");
        assert!(
            stopping.load(Ordering::SeqCst),
            "StopGuard must raise the stop flag while unwinding"
        );
    }

    #[test]
    fn retryable_classification_separates_transient_from_fatal() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionRefused,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(is_retryable(&Error::from(kind)), "{kind:?}");
        }
        for kind in [
            ErrorKind::InvalidData,
            ErrorKind::PermissionDenied,
            ErrorKind::NotFound,
        ] {
            assert!(!is_retryable(&Error::from(kind)), "{kind:?}");
        }
    }
}
