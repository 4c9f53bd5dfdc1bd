//! The server shell: shard router, in-process client, and the TCP /
//! Unix-socket transports.
//!
//! A [`Server`] owns N shard workers. The router is the only piece the
//! transports touch: it sends `Open` requests round-robin across
//! shards, routes session requests by the shard byte packed into the
//! [`SessionId`], and answers `Stats` entirely from each shard's
//! [`Published`] snapshot — a stats poll never enters a worker's queue.
//!
//! The [`Client`] is in-process but honest: every call round-trips
//! through the same encode → decode → dispatch → encode → decode byte
//! path a socket client exercises, so the protocol tests and the bench
//! measure the real wire cost minus only the kernel.
//!
//! [`Published`]: pythia_core::sync::Published
//! [`SessionId`]: crate::session::SessionId

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pythia_core::error::{Error, Result};
use pythia_core::predict::PredictorConfig;
use pythia_core::resilience::{BreakerConfig, FaultPlan, WireFault, WireFaultInjector};

use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, split_frame, take_frame,
    Request, Response,
};
use crate::session::SessionId;
use crate::shard::{
    parse_journal_file, spawn_shard, ShardConfig, ShardHandle, ShardMsg, ShardStats,
};
use crate::tenant::Tenants;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (each one thread owning its session slab).
    pub workers: usize,
    /// Session-slab admission limit per shard.
    pub max_sessions_per_shard: usize,
    /// Live-session cap per tenant across all shards (`usize::MAX`
    /// disables it). Overload protection: one greedy tenant cannot fill
    /// every slab.
    pub max_sessions_per_tenant: usize,
    /// Bound on each shard's request queue; when full, requests are
    /// answered with [`Response::Busy`] instead of queueing without
    /// limit.
    pub queue_depth: usize,
    /// Retry-after hint carried by [`Response::Busy`], in milliseconds.
    pub retry_after_ms: u32,
    /// Evict sessions idle longer than this (`None`: never). Evicted
    /// durable sessions stay resumable from their journals.
    pub session_ttl: Option<Duration>,
    /// How often the sweeper visits the shards (only meaningful with
    /// `session_ttl` set).
    pub sweep_interval: Duration,
    /// Directory for durable-session journals; `None` refuses durable
    /// opens and resumes.
    pub journal_dir: Option<PathBuf>,
    /// fsync session journals on every append (see
    /// [`pythia_core::persist::PersistConfig::fsync`] for the trade-off;
    /// the default off still survives process death).
    pub fsync_journals: bool,
    /// Drop an accepted connection after it has been idle this long —
    /// the slow-loris bound: a stalled client costs a thread for this
    /// long, not forever.
    pub conn_idle_timeout: Duration,
    /// Fault injection (wire faults for the chaos harness, IO faults for
    /// session journals). `None` consults `PYTHIA_CHAOS`;
    /// `Some(FaultPlan::none())` pins the server fault-free.
    pub faults: Option<FaultPlan>,
    /// Predictor settings applied to every session.
    pub predictor: PredictorConfig,
    /// Per-(shard, tenant) admission breaker settings.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            max_sessions_per_shard: 1 << 16,
            max_sessions_per_tenant: usize::MAX,
            queue_depth: 1024,
            retry_after_ms: 10,
            session_ttl: None,
            sweep_interval: Duration::from_secs(1),
            journal_dir: None,
            fsync_journals: false,
            conn_idle_timeout: Duration::from_secs(60),
            faults: None,
            predictor: PredictorConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Server lifecycle, shared by the router, transports, and sweeper.
#[derive(Debug)]
pub(crate) struct Lifecycle(AtomicU8);

const LIFE_RUNNING: u8 = 0;
const LIFE_DRAINING: u8 = 1;
const LIFE_STOPPED: u8 = 2;

impl Lifecycle {
    fn new() -> Self {
        Lifecycle(AtomicU8::new(LIFE_RUNNING))
    }
    fn advance_to(&self, state: u8) {
        // Lifecycle only moves forward; a racing drain/shutdown pair
        // must not resurrect an earlier state.
        self.0.fetch_max(state, Ordering::SeqCst);
    }
    fn get(&self) -> u8 {
        self.0.load(Ordering::SeqCst)
    }
    fn running(&self) -> bool {
        self.get() == LIFE_RUNNING
    }
    fn stopped(&self) -> bool {
        self.get() == LIFE_STOPPED
    }
}

/// Routes requests to shard workers. Shared by every transport.
pub struct Router {
    shards: Vec<ShardHandle>,
    tenants: Arc<Tenants>,
    next_shard: AtomicUsize,
    lifecycle: Arc<Lifecycle>,
    retry_after_ms: u32,
    /// Old-id → new-id map of resurrected sessions: makes `Resume`
    /// idempotent (a retried resume returns the already-live session
    /// instead of failing on the consumed journal file) and serializes
    /// concurrent resumes of the same id.
    resumed: parking_lot::Mutex<HashMap<u64, SessionId>>,
}

impl Router {
    /// Dispatches one request and waits for its response.
    pub fn dispatch(&self, req: Request) -> Response {
        match req {
            // Stats never enters a worker queue: every shard's latest
            // snapshot is read lock-free from its epoch-published slot.
            Request::Stats => Response::Stats {
                shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            },
            Request::Open { .. } => {
                if !self.lifecycle.running() {
                    return Response::Draining;
                }
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                self.call_shard(shard, req)
            }
            Request::Resume { session } => {
                if !self.lifecycle.running() {
                    return Response::Draining;
                }
                // The lock is held across the shard round-trip: resumes
                // are rare (restart recovery) and racing resumes of one
                // id would otherwise both replay the same journal.
                let mut resumed = self.resumed.lock();
                if let Some(&id) = resumed.get(&session.0) {
                    return Response::Session { id };
                }
                let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                let resp = self.call_shard(shard, Request::Resume { session });
                if let Response::Session { id } = resp {
                    resumed.insert(session.0, id);
                }
                resp
            }
            Request::Observe { session, .. }
            | Request::Predict { session, .. }
            | Request::ObservePredict { session, .. }
            | Request::Close { session } => {
                let shard = session.shard();
                if shard >= self.shards.len() {
                    return Response::Error {
                        message: format!("session routes to nonexistent shard {shard}"),
                    };
                }
                self.call_shard(shard, req)
            }
        }
    }

    /// The tenant directory this server was built with.
    pub fn tenants(&self) -> &Tenants {
        &self.tenants
    }

    /// Aggregate stats across all shards.
    pub fn stats(&self) -> ShardStats {
        self.shards
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merge(&s.snapshot()))
    }

    fn call_shard(&self, shard: usize, req: Request) -> Response {
        let (tx, rx) = mpsc::channel();
        match self.shards[shard].tx.try_send(ShardMsg::Call(req, tx)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                // Load shedding: the queue bound is the backpressure
                // boundary. The caller gets a retry hint instead of a
                // seat in an unbounded line.
                self.shards[shard].busy.fetch_add(1, Ordering::Relaxed);
                return Response::Busy {
                    retry_after_ms: self.retry_after_ms,
                };
            }
            Err(TrySendError::Disconnected(_)) => {
                return Response::Error {
                    message: format!("shard {shard} is down"),
                }
            }
        }
        match rx.recv() {
            Ok(resp) => resp,
            Err(_) => Response::Error {
                message: format!("shard {shard} dropped the request"),
            },
        }
    }
}

/// What [`Server::recover`] found in the journal directory.
#[derive(Debug, Default)]
pub struct RecoverReport {
    /// Sessions resurrected: `(old id, new id)`. Clients present their
    /// old id via [`Request::Resume`] and are answered with the new one.
    pub resumed: Vec<(SessionId, SessionId)>,
    /// Journals that could not be resurrected, with the refusal reason.
    /// The files are renamed to `*.sj.bad` so a retry loop cannot spin
    /// on them.
    pub failed: Vec<(PathBuf, String)>,
}

/// A running prediction server.
pub struct Server {
    router: Arc<Router>,
    lifecycle: Arc<Lifecycle>,
    listeners: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    unix_paths: Vec<PathBuf>,
    faults: FaultPlan,
    conn_idle_timeout: Duration,
}

impl Server {
    /// Starts `config.workers` shard workers over the given tenants.
    pub fn start(tenants: Tenants, config: ServeConfig) -> Result<Server> {
        if config.workers == 0 || config.workers > SessionId::MAX_SHARDS {
            return Err(Error::InvalidConfig(format!(
                "workers must be in 1..={}, got {}",
                SessionId::MAX_SHARDS,
                config.workers
            )));
        }
        if tenants.is_empty() {
            return Err(Error::InvalidConfig("no tenants registered".into()));
        }
        let faults = config
            .faults
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_default();
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir).map_err(Error::Io)?;
        }
        let tenants = Arc::new(tenants);
        let tenant_live: Arc<Vec<AtomicU64>> =
            Arc::new((0..tenants.len()).map(|_| AtomicU64::new(0)).collect());
        let lifecycle = Arc::new(Lifecycle::new());
        let mut shards = Vec::with_capacity(config.workers);
        for shard_index in 0..config.workers {
            let shard_config = ShardConfig {
                shard_index,
                max_sessions: config.max_sessions_per_shard.max(1),
                queue_depth: config.queue_depth,
                predictor: config.predictor.clone(),
                breaker: config.breaker.clone(),
                journal_dir: config.journal_dir.clone(),
                fsync_journals: config.fsync_journals,
                session_ttl: config.session_ttl,
                max_sessions_per_tenant: config.max_sessions_per_tenant,
                tenant_live: Arc::clone(&tenant_live),
                faults: Some(faults.clone()),
            };
            shards.push(spawn_shard(shard_config, Arc::clone(&tenants)).map_err(Error::Io)?);
        }
        let router = Arc::new(Router {
            shards,
            tenants,
            next_shard: AtomicUsize::new(0),
            lifecycle: Arc::clone(&lifecycle),
            retry_after_ms: config.retry_after_ms,
            resumed: parking_lot::Mutex::new(HashMap::new()),
        });
        let sweeper = match config.session_ttl {
            Some(_) => {
                let router = Arc::clone(&router);
                let lifecycle = Arc::clone(&lifecycle);
                let interval = config.sweep_interval.max(Duration::from_millis(10));
                Some(
                    std::thread::Builder::new()
                        .name("pythia-serve-sweep".into())
                        .spawn(move || sweep_loop(lifecycle, router, interval))
                        .map_err(Error::Io)?,
                )
            }
            None => None,
        };
        Ok(Server {
            router,
            lifecycle,
            listeners: Vec::new(),
            sweeper,
            unix_paths: Vec::new(),
            faults,
            conn_idle_timeout: config.conn_idle_timeout,
        })
    }

    /// Restarts a server over an existing journal directory, resurrecting
    /// every session a previous incarnation left behind. Each journal is
    /// replayed through a fresh predictor (byte-identical state, by
    /// Sequitur determinism) and re-registered under a fresh id; clients
    /// reclaim their sessions with [`Request::Resume`] on the old id.
    ///
    /// `config.journal_dir` must be set. Unreadable or foreign-tenant
    /// journals are renamed to `*.sj.bad` and reported, never retried.
    pub fn recover(tenants: Tenants, config: ServeConfig) -> Result<(Server, RecoverReport)> {
        let Some(dir) = config.journal_dir.clone() else {
            return Err(Error::InvalidConfig(
                "recover needs a journal directory".into(),
            ));
        };
        let server = Server::start(tenants, config)?;
        let mut report = RecoverReport::default();
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| parse_journal_file(p).is_some())
                .collect(),
            Err(e) => return Err(Error::Io(e)),
        };
        // Deterministic resurrection order (directory order is not).
        files.sort();
        for path in files {
            let old = parse_journal_file(&path).expect("filtered above");
            match server.router.dispatch(Request::Resume { session: old }) {
                Response::Session { id } => report.resumed.push((old, id)),
                Response::Error { message } => {
                    let bad = path.with_extension("sj.bad");
                    let _ = std::fs::rename(&path, &bad);
                    report.failed.push((path, message));
                }
                other => {
                    report.failed.push((path, format!("unexpected {other:?}")));
                }
            }
        }
        Ok((server, report))
    }

    /// The router, for in-process clients.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// An in-process client bound to this server.
    pub fn client(&self) -> Client {
        Client {
            router: self.router(),
        }
    }

    fn conn_options(&self) -> ConnOptions {
        ConnOptions {
            idle_timeout: self.conn_idle_timeout,
            faults: self.faults.clone(),
        }
    }

    /// Binds a TCP listener and serves connections until shutdown.
    /// Returns the bound address (bind to port 0 to let the OS pick).
    pub fn listen_tcp(&mut self, addr: &str) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(Error::Io)?;
        let local = listener.local_addr().map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let router = self.router();
        let lifecycle = Arc::clone(&self.lifecycle);
        let options = self.conn_options();
        let join = std::thread::Builder::new()
            .name("pythia-serve-tcp".into())
            .spawn(move || accept_loop(lifecycle, router, AcceptSource::Tcp(listener), options))
            .map_err(Error::Io)?;
        self.listeners.push(join);
        Ok(local)
    }

    /// Binds a Unix-domain listener at `path` and serves until shutdown.
    /// An existing socket file at `path` is replaced.
    pub fn listen_unix(&mut self, path: &Path) -> Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let router = self.router();
        let lifecycle = Arc::clone(&self.lifecycle);
        let options = self.conn_options();
        let join = std::thread::Builder::new()
            .name("pythia-serve-unix".into())
            .spawn(move || accept_loop(lifecycle, router, AcceptSource::Unix(listener), options))
            .map_err(Error::Io)?;
        self.listeners.push(join);
        self.unix_paths.push(path.to_path_buf());
        Ok(())
    }

    /// Begins a graceful drain: new opens and resumes are answered
    /// [`Response::Draining`], in-flight sessions keep serving, and every
    /// live session journal is flushed to disk. Blocks until all shards
    /// acknowledge the flush. Idempotent; `shutdown` calls it first.
    pub fn drain(&self) {
        self.lifecycle.advance_to(LIFE_DRAINING);
        let mut acks = Vec::with_capacity(self.router.shards.len());
        for shard in &self.router.shards {
            let (tx, rx) = mpsc::channel();
            // A blocking send is correct here: drain must reach the
            // worker even through a full queue.
            if shard.tx.send(ShardMsg::Drain(tx)).is_ok() {
                acks.push(rx);
            }
        }
        for rx in acks {
            let _ = rx.recv();
        }
    }

    /// Drains (flushing journals), stops accepting, and joins every
    /// thread. Durable sessions remain resumable by a future
    /// [`Server::recover`].
    pub fn shutdown(&mut self) {
        self.drain();
        self.lifecycle.advance_to(LIFE_STOPPED);
        for listener in self.listeners.drain(..) {
            let _ = listener.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
        for shard in &self.router.shards {
            let _ = shard.tx.send(ShardMsg::Shutdown);
        }
        // `join` is behind an Option precisely so shutdown can take it
        // through the shared router.
        for shard in &self.router.shards {
            if let Some(join) = shard.join.lock().take() {
                let _ = join.join();
            }
        }
        for path in self.unix_paths.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a client backs off when the server answers [`Response::Busy`].
///
/// Backoff is capped exponential with deterministic jitter (splitmix64
/// over `seed` and the attempt number — reproducible under test, still
/// decorrelated across clients seeded differently). The server's
/// retry-after hint acts as a floor for each delay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first call counts as one); 1 = no retry.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter seed: clients should seed differently (e.g. by rank) so a
    /// Busy burst does not resynchronize into a retry thundering herd.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based), honoring the
    /// server's `retry_after_ms` hint as a floor.
    fn delay(&self, retry: u32, retry_after_ms: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.cap);
        let exp = exp.max(Duration::from_millis(retry_after_ms as u64));
        // Deterministic jitter in [0, exp/2): splitmix64 of (seed, retry).
        let mut z = self
            .seed
            .wrapping_add(retry as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let half = (exp.as_micros() as u64 / 2).max(1);
        exp + Duration::from_micros(z % half)
    }
}

/// Drives `call` with [`RetryPolicy`] backoff while the server answers
/// Busy. Shared by the in-process and socket clients.
fn call_with_backoff(
    policy: &RetryPolicy,
    mut call: impl FnMut() -> Result<Response>,
) -> Result<Response> {
    let mut retry = 0;
    loop {
        let resp = call()?;
        let Response::Busy { retry_after_ms } = resp else {
            return Ok(resp);
        };
        if retry + 1 >= policy.attempts.max(1) {
            // Out of attempts: surface the Busy so the caller can shed
            // load its own way.
            return Ok(resp);
        }
        std::thread::sleep(policy.delay(retry, retry_after_ms));
        retry += 1;
    }
}

/// In-process client: full byte-path parity with a socket client.
#[derive(Clone)]
pub struct Client {
    router: Arc<Router>,
}

impl Client {
    /// Issues one request, round-tripping it through the framed wire
    /// encoding both ways.
    pub fn call(&self, req: &Request) -> Result<Response> {
        let decoded = decode_request(&unframe(&encode_request(req))?)?;
        let resp = self.router.dispatch(decoded);
        decode_response(&unframe(&encode_response(&resp))?)
    }

    /// Like [`Client::call`], but honors [`Response::Busy`] with capped
    /// exponential backoff before giving up.
    pub fn call_with_retry(&self, req: &Request, policy: &RetryPolicy) -> Result<Response> {
        call_with_backoff(policy, || self.call(req))
    }
}

/// A socket client speaking the framed protocol over TCP or Unix
/// streams — also the reference implementation for external clients.
pub struct SocketClient<S: Read + Write> {
    stream: S,
    buf: Vec<u8>,
}

impl SocketClient<TcpStream> {
    /// Connects over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        Ok(SocketClient {
            stream,
            buf: Vec::new(),
        })
    }
}

impl SocketClient<UnixStream> {
    /// Connects over a Unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Self> {
        Ok(SocketClient {
            stream: UnixStream::connect(path).map_err(Error::Io)?,
            buf: Vec::new(),
        })
    }
}

impl<S: Read + Write> SocketClient<S> {
    /// Issues one request and blocks for its response frame.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        // `encode_request` already emits the length-prefixed frame.
        self.stream
            .write_all(&encode_request(req))
            .map_err(Error::Io)?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(body) = take_frame(&mut self.buf)? {
                return decode_response(&body);
            }
            let n = self.stream.read(&mut chunk).map_err(Error::Io)?;
            if n == 0 {
                return Err(Error::Corrupt("server closed mid-response".into()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Like [`SocketClient::call`], but honors [`Response::Busy`] with
    /// capped exponential backoff before giving up.
    pub fn call_with_retry(&mut self, req: &Request, policy: &RetryPolicy) -> Result<Response> {
        // Borrow dance: the closure needs `self` mutably per attempt.
        let mut retry = 0;
        loop {
            let resp = self.call(req)?;
            let Response::Busy { retry_after_ms } = resp else {
                return Ok(resp);
            };
            if retry + 1 >= policy.attempts.max(1) {
                return Ok(resp);
            }
            std::thread::sleep(policy.delay(retry, retry_after_ms));
            retry += 1;
        }
    }
}

/// Strips the length prefix off a single complete frame.
fn unframe(mut bytes: &[u8]) -> Result<Vec<u8>> {
    split_frame(&mut bytes)?.ok_or_else(|| Error::Corrupt("incomplete frame".into()))
}

enum AcceptSource {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Per-connection settings handed from the server to its transports.
#[derive(Clone)]
struct ConnOptions {
    idle_timeout: Duration,
    faults: FaultPlan,
}

/// The periodic idle-session eviction tick. `try_send` on purpose: a
/// shard too busy to take a sweep message is a shard whose sessions are
/// not idle-accumulating anyway; it gets swept next tick.
fn sweep_loop(lifecycle: Arc<Lifecycle>, router: Arc<Router>, interval: Duration) {
    let tick = interval.min(Duration::from_millis(50));
    let mut since_sweep = Duration::ZERO;
    while !lifecycle.stopped() {
        std::thread::sleep(tick);
        since_sweep += tick;
        if since_sweep >= interval {
            since_sweep = Duration::ZERO;
            for shard in &router.shards {
                let _ = shard.tx.try_send(ShardMsg::Sweep);
            }
        }
    }
}

fn accept_loop(
    lifecycle: Arc<Lifecycle>,
    router: Arc<Router>,
    source: AcceptSource,
    options: ConnOptions,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    // Accept only while running: a draining server finishes existing
    // connections but takes no new ones.
    while lifecycle.running() {
        let accepted: Option<Box<dyn StreamLike>> = match &source {
            AcceptSource::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Box::new(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
            AcceptSource::Unix(l) => match l.accept() {
                Ok((s, _)) => Some(Box::new(s)),
                Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                Err(_) => None,
            },
        };
        match accepted {
            Some(stream) => {
                // The chaos harness wraps the accepted stream, not the
                // listener: each connection gets its own deterministic
                // wire-fault schedule.
                let stream: Box<dyn StreamLike> = if options.faults.has_wire_faults() {
                    Box::new(FaultStream::new(stream, options.faults.clone()))
                } else {
                    stream
                };
                let router = Arc::clone(&router);
                let lifecycle = Arc::clone(&lifecycle);
                let options = options.clone();
                if let Ok(join) = std::thread::Builder::new()
                    .name("pythia-serve-conn".into())
                    .spawn(move || connection_loop(lifecycle, router, stream, options))
                {
                    connections.push(join);
                }
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
        connections.retain(|j| !j.is_finished());
    }
    for join in connections {
        let _ = join.join();
    }
}

/// The subset of stream behavior the connection loop needs, so TCP and
/// Unix connections share one handler.
trait StreamLike: Read + Write + Send {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
}

impl StreamLike for TcpStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_write_timeout(Some(Duration::from_millis(ms)))
    }
}

impl StreamLike for UnixStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_write_timeout(Some(Duration::from_millis(ms)))
    }
}

/// A [`StreamLike`] that injects wire faults on the write (response)
/// path, driven by a per-connection [`WireFaultInjector`]. Each `write`
/// call carries one whole response frame (the connection loop writes
/// with a single `write_all` per response), so faulting per write call
/// faults per frame.
struct FaultStream<S: StreamLike> {
    inner: S,
    injector: WireFaultInjector,
    /// Set once a truncate/disconnect fault fired: the connection is
    /// dead, every further IO fails.
    dead: bool,
}

impl<S: StreamLike> FaultStream<S> {
    fn new(inner: S, plan: FaultPlan) -> Self {
        FaultStream {
            inner,
            injector: WireFaultInjector::new(plan),
            dead: false,
        }
    }

    fn killed(&mut self) -> std::io::Error {
        self.dead = true;
        std::io::Error::new(ErrorKind::BrokenPipe, "wire fault: connection dropped")
    }
}

impl<S: StreamLike> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Ok(0);
        }
        self.inner.read(buf)
    }
}

impl<S: StreamLike> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(self.killed());
        }
        match self.injector.next_frame() {
            WireFault::None => self.inner.write(buf),
            WireFault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            WireFault::Truncate => {
                // Half the frame goes out, then the connection dies: the
                // peer sees a frame that never completes.
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
                Err(self.killed())
            }
            WireFault::CorruptLenPrefix => {
                let mut mangled = buf.to_vec();
                for b in mangled.iter_mut().take(4) {
                    *b ^= 0x7F;
                }
                self.inner.write_all(&mangled)?;
                Ok(buf.len())
            }
            WireFault::Disconnect => Err(self.killed()),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<S: StreamLike> StreamLike for FaultStream<S> {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.inner.set_read_timeout_ms(ms)
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.inner.set_write_timeout_ms(ms)
    }
}

impl StreamLike for Box<dyn StreamLike> {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        (**self).set_read_timeout_ms(ms)
    }
    fn set_write_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        (**self).set_write_timeout_ms(ms)
    }
}

/// Milliseconds per connection poll tick (the read-timeout granularity).
const CONN_TICK_MS: u64 = 50;

fn connection_loop(
    lifecycle: Arc<Lifecycle>,
    router: Arc<Router>,
    mut stream: Box<dyn StreamLike>,
    options: ConnOptions,
) {
    // A short read timeout keeps the thread responsive to shutdown
    // without busy-waiting on idle connections; the write timeout bounds
    // a peer that stops reading mid-response (slow-loris on the write
    // side would otherwise pin this thread in write_all forever).
    if stream.set_read_timeout_ms(CONN_TICK_MS).is_err() {
        return;
    }
    let _ = stream.set_write_timeout_ms(options.idle_timeout.as_millis().max(1) as u64);
    // The slow-loris bound: a connection that goes idle_timeout without
    // completing a single frame is dead weight and closes. Only a
    // *complete* frame resets the clock — dribbling one byte per tick
    // (the classic slow-loris shape) does not count as progress.
    let mut last_frame = std::time::Instant::now();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while !lifecycle.stopped() {
        loop {
            let body = match take_frame(&mut buf) {
                Ok(Some(body)) => body,
                Ok(None) => break,
                // Oversized or mangled length prefix: the stream can never
                // resynchronize, so drop the connection.
                Err(_) => return,
            };
            last_frame = std::time::Instant::now();
            let resp = match decode_request(&body) {
                Ok(req) => router.dispatch(req),
                Err(e) => Response::Error {
                    message: format!("bad request: {e}"),
                },
            };
            if stream.write_all(&encode_response(&resp)).is_err() {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
        if last_frame.elapsed() >= options.idle_timeout {
            return;
        }
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::shard::ShardHandle;
    use crate::tenant::Tenants;
    use pythia_core::event::{EventId, EventRegistry};
    use pythia_core::record::{RecordConfig, Recorder};
    use pythia_core::sync::Published;

    /// A router over one "shard" whose queue nobody drains: the test owns
    /// the receiver, so the bounded channel's capacity is the whole story.
    fn jammed_router(capacity: usize) -> (Arc<Router>, mpsc::Receiver<ShardMsg>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..4 {
            rec.record_at(EventId(1), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let tenants = Tenants::from_traces([("t".to_string(), trace)]).unwrap();
        let router = Router {
            shards: vec![ShardHandle {
                tx,
                stats: Arc::new(Published::new(ShardStats::default())),
                busy: AtomicU64::new(0),
                join: parking_lot::Mutex::new(None),
            }],
            tenants: Arc::new(tenants),
            next_shard: AtomicUsize::new(0),
            lifecycle: Arc::new(Lifecycle::new()),
            retry_after_ms: 7,
            resumed: parking_lot::Mutex::new(HashMap::new()),
        };
        (Arc::new(router), rx)
    }

    #[test]
    fn full_queue_answers_busy_with_retry_hint() {
        let (router, _rx) = jammed_router(1);
        // Fill the single queue slot with a message needing no reply.
        router.shards[0].tx.try_send(ShardMsg::Sweep).unwrap();
        // The next request cannot queue: Busy, counted, with the hint.
        match router.dispatch(Request::Close {
            session: SessionId(0),
        }) {
            Response::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 7),
            other => panic!("full queue returned {other:?}"),
        }
        assert_eq!(router.stats().busy_rejects, 1);
        // Stats still answers: it never enters the worker queue.
        assert!(matches!(
            router.dispatch(Request::Stats),
            Response::Stats { .. }
        ));
    }

    #[test]
    fn busy_exhausts_retry_attempts_then_surfaces() {
        let (router, _rx) = jammed_router(1);
        router.shards[0].tx.try_send(ShardMsg::Sweep).unwrap();
        let client = Client { router };
        let policy = RetryPolicy {
            attempts: 3,
            base: Duration::from_micros(100),
            cap: Duration::from_micros(200),
            seed: 1,
        };
        // Every attempt hits the jammed queue; after `attempts` tries the
        // Busy is surfaced instead of looping forever.
        match client
            .call_with_retry(
                &Request::Close {
                    session: SessionId(0),
                },
                &policy,
            )
            .unwrap()
        {
            Response::Busy { .. } => {}
            other => panic!("exhausted retries returned {other:?}"),
        }
        assert_eq!(client.router.stats().busy_rejects, 3);
    }

    #[test]
    fn backoff_retries_until_the_server_recovers() {
        let mut calls = 0;
        let resp = call_with_backoff(
            &RetryPolicy {
                attempts: 8,
                base: Duration::from_micros(50),
                cap: Duration::from_micros(100),
                seed: 42,
            },
            || {
                calls += 1;
                Ok(if calls < 4 {
                    Response::Busy { retry_after_ms: 0 }
                } else {
                    Response::Closed
                })
            },
        )
        .unwrap();
        assert!(matches!(resp, Response::Closed));
        assert_eq!(calls, 4);
    }

    #[test]
    fn retry_delay_honors_hint_cap_and_determinism() {
        let policy = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 3,
        };
        // The server hint floors the exponential term.
        let hinted = policy.delay(0, 500);
        assert!(hinted >= Duration::from_millis(500));
        // Jitter stays within half the exponential term.
        for retry in 0..12 {
            let d = policy.delay(retry, 0);
            let exp = policy
                .base
                .saturating_mul(1u32 << retry.min(16))
                .min(policy.cap);
            assert!(d >= exp, "retry {retry}: {d:?} below exponential {exp:?}");
            assert!(d < exp * 3 / 2 + Duration::from_micros(1));
            // Deterministic: same seed, same delay.
            assert_eq!(d, policy.delay(retry, 0));
        }
        // Different seeds decorrelate (not a hard guarantee per retry,
        // but identical whole schedules would mean the jitter is dead).
        let other = RetryPolicy {
            seed: 4,
            ..policy.clone()
        };
        assert!((0..12).any(|r| policy.delay(r, 0) != other.delay(r, 0)));
    }
}
