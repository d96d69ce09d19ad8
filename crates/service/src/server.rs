//! The compilation daemon: accept loop, routing, request coalescing, and the
//! session (prepared-state) cache.
//!
//! # Request lifecycle
//!
//! A `POST /compile` request is keyed by [`content_key`] — a stable hash of
//! the request's semantic content. The handler then walks, in order:
//!
//! 1. the **result store** ([`crate::store`]): memory hit, then disk hit;
//! 2. the **flight map**: if the same key is already being compiled (for any
//!    client), the request *coalesces* onto that in-flight job instead of
//!    starting a second identical search;
//! 3. the **worker pool** ([`crate::pool`]): a new job is queued under the
//!    requesting client's name (fair round-robin across clients) and the
//!    handler blocks on its flight until the job fills it.
//!
//! Compile jobs run through [`chassis::Session::compile_many_with`], which
//! already isolates panics per job ([`CompileError::Internal`]) — the daemon
//! inherits the library's fault isolation rather than reimplementing it.
//! Sessions are cached per `(config, seed)`, so every benchmark's sampling
//! and ground truth run once and are shared across all targets and requests
//! (the `Prepared`-level cache lives inside `Session`).
//!
//! Failed compilations are **not** stored: errors are cheap to recompute,
//! and the interesting ones (panics, resource exhaustion) are not
//! deterministic facts about the request key. They are still shared with
//! coalesced waiters of the same in-flight job.

// The daemon must not bring itself down on a bad request: no unwraps on the
// serving path (the tests below are exempt).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chassis::{
    Budget, CancelToken, CompilationResult, CompileError, Config, ErrorKind, Implementation,
    SearchControl, Session,
};
use fpcore::hash::{canonical_text, ContentHasher};
use fpcore::FPCore;
use targets::builtin;
use targets::target::Target;

use crate::http::{read_request, reason, write_response, Request};
use crate::json::{hex_bits, Json};
use crate::pool::{JobOutcome, Pool};
use crate::store::{ResultStore, StoreConfig, StoreHit};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Handle::addr`]).
    pub addr: String,
    /// Compile worker threads.
    pub workers: usize,
    /// In-memory result cache capacity (entries).
    pub memory_capacity: usize,
    /// Persistent store directory (`None`: memory-only).
    pub disk_dir: Option<PathBuf>,
    /// Total queued-job bound; beyond it, `POST /compile` answers 503.
    pub max_queued: usize,
    /// Cached `Session`s (one per distinct `(config, seed)` pair).
    pub max_sessions: usize,
    /// Idle keep-alive connections are dropped after this long.
    pub read_timeout: Duration,
    /// Once a request's first byte arrives, the whole request (line, headers,
    /// body) must arrive within this long — a slowloris client dribbling
    /// bytes gets a 408 instead of pinning the connection thread.
    pub header_timeout: Duration,
    /// Socket write timeout, so a client that stops reading cannot pin a
    /// connection thread mid-response.
    pub write_timeout: Duration,
    /// How often the watchdog scans in-flight jobs.
    pub watchdog_interval: Duration,
    /// A job with a deadline is written off as stuck once it has been running
    /// for `stuck_multiple ×` its deadline budget (cooperative cancellation
    /// should have ended it right after the deadline itself).
    pub stuck_multiple: u32,
    /// A job *without* a deadline is written off as stuck after this long.
    pub stuck_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            memory_capacity: 1024,
            disk_dir: None,
            max_queued: 256,
            max_sessions: 8,
            read_timeout: Duration::from_secs(30),
            header_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            watchdog_interval: Duration::from_millis(50),
            stuck_multiple: 4,
            stuck_after: Duration::from_secs(600),
        }
    }
}

/// The stable content key of a compile request: everything that can
/// influence the result, nothing that cannot. See `docs/SERVICE.md` for the
/// exact field list (the key algorithm is part of the store format).
pub fn content_key(core: &FPCore, target: &Target, seed: u64, config_name: &str) -> String {
    let config = named_config(config_name).unwrap_or_default();
    let mut h = ContentHasher::new();
    h.str("chassis-request 1");
    h.str(&canonical_text(core));
    h.u128(target.fingerprint());
    h.u64(seed);
    h.u128(config.fingerprint());
    h.hex_digest()
}

/// The named configuration profiles the wire protocol exposes.
pub fn named_config(name: &str) -> Option<Config> {
    match name {
        "default" => Some(Config::default()),
        "fast" => Some(Config::fast()),
        _ => None,
    }
}

/// The HTTP status for a typed compile error, mirroring the
/// [`ErrorKind`] taxonomy: client-fixable input problems are 4xx, capacity
/// problems 503, daemon bugs 500.
pub fn status_for(kind: ErrorKind) -> u16 {
    match kind {
        // The expression itself cannot be sampled / ground-truthed: the
        // request is well-formed but unprocessable.
        ErrorKind::Sampling | ErrorKind::GroundTruth => 422,
        ErrorKind::Unsupported => 501,
        ErrorKind::ResourceExhausted => 503,
        ErrorKind::Internal => 500,
    }
}

/// One in-flight compile job; concurrent requests for the same key block on
/// this instead of starting duplicate searches. Waiters are counted: when
/// the last one abandons (its deadline expired or its client hung up), the
/// flight's [`CancelToken`] fires and the underlying search winds down at
/// its next cancellation point, freeing the worker for live requests (see
/// [`leave_flight`]).
struct Flight {
    done: Mutex<Option<(u16, String)>>,
    cv: Condvar,
    waiters: AtomicUsize,
    cancel: CancelToken,
}

/// Why [`Flight::wait_until`] returned without an answer.
enum Abandoned {
    /// The waiter's own request deadline expired.
    Deadline,
    /// The waiter's client disconnected.
    ClientGone,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
            cancel: CancelToken::new(),
        }
    }

    /// Fills the flight. First writer wins — the watchdog's stuck reclaim and
    /// the job itself can race, and every waiter must see exactly one answer.
    /// Returns whether this call was the one that filled it.
    fn fill(&self, status: u16, body: String) -> bool {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        if done.is_some() {
            return false;
        }
        *done = Some((status, body));
        self.cv.notify_all();
        true
    }

    /// Registers one waiter. Call it under the flight-map lock, which
    /// [`leave_flight`] also holds, so no request can join a flight whose
    /// last waiter is leaving.
    fn join(&self) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// Blocks until filled, the waiter's deadline expires, or its client
    /// disconnects (probed between condvar waits, at least every 100 ms; a
    /// wait never runs past the deadline). The 600 s cap is a safety net:
    /// jobs complete, are cancelled, or are reclaimed by the watchdog, so a
    /// full wait means a bug.
    fn wait_until(
        &self,
        deadline: Option<Instant>,
        client_gone: &dyn Fn() -> bool,
    ) -> Result<(u16, String), Abandoned> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        let started = Instant::now();
        while done.is_none() {
            let mut wait = Duration::from_millis(100);
            if let Some(deadline) = deadline {
                let now = Instant::now();
                if now >= deadline {
                    return Err(Abandoned::Deadline);
                }
                wait = wait.min(deadline - now);
            }
            let (next, _) = self
                .cv
                .wait_timeout(done, wait)
                .unwrap_or_else(PoisonError::into_inner);
            done = next;
            if done.is_some() {
                break;
            }
            if client_gone() {
                return Err(Abandoned::ClientGone);
            }
            if started.elapsed() >= Duration::from_secs(600) {
                return Ok((500, error_body(None, "internal", "compile job timed out")));
            }
        }
        match done.as_ref() {
            Some((status, body)) => Ok((*status, body.clone())),
            None => Ok((500, error_body(None, "internal", "flight signalled empty"))),
        }
    }
}

struct SessionCache {
    entries: HashMap<(String, u64), (u64, Arc<Session>)>,
    tick: u64,
}

/// Counters surfaced on `GET /stats`.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    bad_requests: AtomicU64,
    queue_rejected: AtomicU64,
    accept_drops: AtomicU64,
    panics_recovered: AtomicU64,
    /// Searches cancelled mid-flight (deadline expiry or all waiters gone).
    cancelled: AtomicU64,
    /// Requests shed at admission: their deadline had already passed.
    deadline_shed: AtomicU64,
    /// Stuck workers written off and replaced by the watchdog.
    watchdog_fired: AtomicU64,
    jobs_failed: [AtomicU64; 5],
}

fn kind_index(kind: ErrorKind) -> usize {
    match kind {
        ErrorKind::Sampling => 0,
        ErrorKind::Unsupported => 1,
        ErrorKind::ResourceExhausted => 2,
        ErrorKind::GroundTruth => 3,
        ErrorKind::Internal => 4,
    }
}

const KIND_NAMES: [&str; 5] = [
    "sampling",
    "unsupported",
    "resource-exhausted",
    "ground-truth",
    "internal",
];

/// Watchdog bookkeeping for one submitted compile job.
struct InflightJob {
    key: String,
    flight: Arc<Flight>,
    accepted: Instant,
    deadline: Option<Instant>,
    /// When a worker actually picked the job up (`None` while queued).
    started: Mutex<Option<Instant>>,
    /// The watchdog wrote this worker off as stuck: its pool slot was
    /// replaced, and the worker retires when (if) the job finally returns.
    abandoned: AtomicBool,
}

struct ServerState {
    config: ServerConfig,
    local_addr: SocketAddr,
    store: ResultStore,
    pool: Mutex<Option<Pool>>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    sessions: Mutex<SessionCache>,
    counters: Counters,
    shutdown: AtomicBool,
    /// Jobs registered for the watchdog, keyed by a monotonic id.
    inflight: Mutex<HashMap<u64, Arc<InflightJob>>>,
    next_job: AtomicU64,
    started: Instant,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServerState {
    /// The session for a `(config, seed)` pair, created on first use. The
    /// cache is bounded: each session holds prepared benchmarks (samples +
    /// ground truth), so unbounded growth would be a memory leak with a
    /// per-seed amplification factor.
    fn session(&self, config_name: &str, seed: u64) -> Option<Arc<Session>> {
        let config = named_config(config_name)?.with_seed(seed);
        let mut cache = lock(&self.sessions);
        cache.tick += 1;
        let tick = cache.tick;
        let key = (config_name.to_owned(), seed);
        if let Some((last_use, session)) = cache.entries.get_mut(&key) {
            *last_use = tick;
            return Some(Arc::clone(session));
        }
        let session = Arc::new(Session::new(config));
        cache.entries.insert(key, (tick, Arc::clone(&session)));
        while cache.entries.len() > self.config.max_sessions.max(1) {
            let Some(oldest) = cache
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            cache.entries.remove(&oldest);
        }
        Some(session)
    }

    fn failed_job(&self, kind: ErrorKind) {
        self.counters.jobs_failed[kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a job with the watchdog; returns its registry id.
    fn track(&self, job: Arc<InflightJob>) -> u64 {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        lock(&self.inflight).insert(id, job);
        id
    }

    fn untrack(&self, id: u64) {
        lock(&self.inflight).remove(&id);
    }
}

/// Removes `key → flight` from the flight map iff it still maps to this
/// exact flight; a newer flight for the same key keeps its own entry.
fn detach_flight(state: &ServerState, key: &str, flight: &Arc<Flight>) {
    remove_flight(&mut lock(&state.flights), key, flight);
}

fn remove_flight(flights: &mut HashMap<String, Arc<Flight>>, key: &str, flight: &Arc<Flight>) {
    if flights.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
        flights.remove(key);
    }
}

/// One waiter gives up or is answered. The last waiter out of an unanswered
/// flight cancels the underlying search — nobody is left to read its result
/// — and removes the flight from the map, so a later identical request
/// starts a fresh compile instead of joining a cancelled one. Both happen
/// under the map lock, which every [`Flight::join`] holds too.
fn leave_flight(state: &ServerState, key: &str, flight: &Arc<Flight>) {
    let mut flights = lock(&state.flights);
    if flight.waiters.fetch_sub(1, Ordering::SeqCst) == 1 && lock(&flight.done).is_none() {
        flight.cancel.cancel();
        remove_flight(&mut flights, key, flight);
    }
}

/// A running daemon. Obtained from [`start`]; used in-process by the tests
/// and the replay bench, and by `serve` (the CLI binary).
pub struct Handle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Handle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and blocks until the accept loop and every worker
    /// have exited. Queued jobs are drained first; flights that still have
    /// waiters after the drain are filled with 503.
    pub fn stop(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        self.join_inner();
    }

    /// Blocks until the daemon shuts down (via [`Handle::stop`] from another
    /// thread or a `POST /shutdown` request), then drains and joins.
    pub fn wait(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        if let Some(pool) = lock(&self.state.pool).take() {
            pool.shutdown();
        }
        // Any flight not filled by the drain (submitted after shutdown won a
        // race, or its job was lost) must not strand its waiters.
        let leftovers: Vec<Arc<Flight>> =
            lock(&self.state.flights).drain().map(|(_, f)| f).collect();
        for flight in leftovers {
            flight.fill(
                503,
                error_body(None, "resource-exhausted", "daemon shut down"),
            );
        }
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Propagates binding and store-directory errors, and the OS's error when
/// not one pool worker thread starts.
pub fn start(config: ServerConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let store = ResultStore::open(&StoreConfig {
        memory_capacity: config.memory_capacity,
        disk_dir: config.disk_dir.clone(),
    })?;
    let pool = Pool::new(config.workers, config.max_queued)?;
    let state = Arc::new(ServerState {
        config,
        local_addr: addr,
        store,
        pool: Mutex::new(Some(pool)),
        flights: Mutex::new(HashMap::new()),
        sessions: Mutex::new(SessionCache {
            entries: HashMap::new(),
            tick: 0,
        }),
        counters: Counters::default(),
        shutdown: AtomicBool::new(false),
        inflight: Mutex::new(HashMap::new()),
        next_job: AtomicU64::new(0),
        started: Instant::now(),
    });
    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("chassis-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_state))?;
    let watchdog_state = Arc::clone(&state);
    let watchdog = std::thread::Builder::new()
        .name("chassis-watchdog".to_owned())
        .spawn(move || watchdog_loop(&watchdog_state))?;
    Ok(Handle {
        addr,
        state,
        accept: Some(accept),
        watchdog: Some(watchdog),
    })
}

/// Scans in-flight jobs every [`ServerConfig::watchdog_interval`] for stuck
/// workers: a job running **stuck-long** (a hard multiple of its deadline
/// budget, or [`ServerConfig::stuck_after`] without one) is written off —
/// its search cancelled, its waiters answered, its pool slot replaced — so
/// capacity recovers even if the worker never returns. Deadlines are not
/// the watchdog's business: each request answers its own in
/// [`Flight::wait_until`].
fn watchdog_loop(state: &Arc<ServerState>) {
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(state.config.watchdog_interval);
        let now = Instant::now();
        let jobs: Vec<Arc<InflightJob>> = lock(&state.inflight).values().map(Arc::clone).collect();
        let mut lost = 0usize;
        for job in jobs {
            let Some(started) = *lock(&job.started) else {
                continue; // still queued; its worker is not wedged
            };
            let allowed = match job.deadline {
                Some(deadline) => deadline
                    .saturating_duration_since(job.accepted)
                    .saturating_mul(state.config.stuck_multiple.max(2))
                    .max(state.config.watchdog_interval.saturating_mul(4)),
                None => state.config.stuck_after,
            };
            if now.saturating_duration_since(started) > allowed
                && !job.abandoned.swap(true, Ordering::SeqCst)
            {
                job.flight.cancel.cancel();
                let (status, kind) = if job.deadline.is_some() {
                    (504, "deadline")
                } else {
                    (503, "cancelled")
                };
                if job.flight.fill(
                    status,
                    error_body(Some(&job.key), kind, "job reclaimed by the watchdog"),
                ) {
                    detach_flight(state, &job.key, &job.flight);
                }
                state
                    .counters
                    .watchdog_fired
                    .fetch_add(1, Ordering::Relaxed);
                lost += 1;
            }
        }
        if lost > 0 {
            if let Some(pool) = lock(&state.pool).as_ref() {
                for _ in 0..lost {
                    pool.note_worker_lost();
                }
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if state.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The accept fault point simulates a flaky front end: an abort drops
        // exactly this connection; a panic is caught here so the accept
        // thread — the daemon's single point of failure — survives.
        match catch_unwind(AssertUnwindSafe(|| fault::point("service.accept"))) {
            Ok(false) => {}
            Ok(true) => {
                state.counters.accept_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Err(_) => {
                state
                    .counters
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        let conn_state = Arc::clone(state);
        // Parsing and canonicalizing a request recurse over its expression,
        // so a connection gets the same stack as a compile worker.
        let spawned = std::thread::Builder::new()
            .name("chassis-conn".to_owned())
            .stack_size(fpcore::parser::THREAD_STACK_BYTES)
            .spawn(move || connection_loop(stream, &conn_state));
        drop(spawned);
    }
}

/// A routed response: status and JSON body. Overload answers (503/504) get
/// `Retry-After: 1` at write time.
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn new(status: u16, body: String) -> Reply {
        Reply { status, body }
    }
}

/// Whether the connection's client has gone away, probed with a
/// non-blocking peek: a closed or reset socket reports gone; a merely idle
/// one (or a pipelining one with bytes in flight) does not.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut byte = [0u8; 1];
    let gone = match stream.peek(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

fn connection_loop(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let Ok(probe_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        // Wait (up to the idle read timeout) for the request's first byte,
        // then hold the whole request to the header budget: a slowloris
        // client dribbling a byte per read-timeout window gets a 408 instead
        // of pinning this thread indefinitely.
        match reader.fill_buf() {
            Ok([]) | Err(_) => return,
            Ok(_) => {}
        }
        let header_deadline = Instant::now() + state.config.header_timeout;
        let request = match read_request(&mut reader, Some(header_deadline)) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                if let Some((status, why)) = e.status() {
                    let body = error_body(None, "bad-request", why);
                    let _ = write_response(
                        &mut write_half,
                        status,
                        reason(status),
                        "application/json",
                        body.as_bytes(),
                        false,
                        &[],
                    );
                }
                return;
            }
        };
        let keep_alive = request.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        let probe = || client_gone(&probe_half);
        // Route under a panic boundary: a handler bug answers 500 and keeps
        // the daemon (and even this connection) alive.
        let reply = match catch_unwind(AssertUnwindSafe(|| route(&request, state, &probe))) {
            Ok(reply) => reply,
            Err(_) => {
                state
                    .counters
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                Reply::new(
                    500,
                    error_body(None, "internal", "request handler panicked"),
                )
            }
        };
        // Every overload answer carries a Retry-After, so a well-behaved
        // client backs off instead of hammering.
        let extra: Vec<(&str, String)> = matches!(reply.status, 503 | 504)
            .then(|| ("Retry-After", "1".to_owned()))
            .into_iter()
            .collect();
        if write_response(
            &mut write_half,
            reply.status,
            reason(reply.status),
            "application/json",
            reply.body.as_bytes(),
            keep_alive,
            &extra,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

fn route(request: &Request, state: &Arc<ServerState>, client_gone: &dyn Fn() -> bool) -> Reply {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Reply::new(200, "{\"status\":\"ok\"}".to_owned()),
        ("GET", "/stats") => Reply::new(200, stats_body(state)),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Unblock our own accept loop so `Handle::wait` returns.
            let _ = TcpStream::connect(state.local_addr);
            Reply::new(200, "{\"status\":\"shutting-down\"}".to_owned())
        }
        ("POST", "/compile") => handle_compile(request, state, client_gone),
        ("GET", path) if path.starts_with("/result/") => {
            handle_result(&path["/result/".len()..], state)
        }
        (_, "/healthz" | "/stats" | "/compile" | "/shutdown") => {
            Reply::new(405, error_body(None, "bad-request", "method not allowed"))
        }
        _ => Reply::new(404, error_body(None, "not-found", "no such route")),
    }
}

fn handle_result(key: &str, state: &Arc<ServerState>) -> Reply {
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return Reply::new(
            400,
            error_body(None, "bad-request", "keys are 32 hex characters"),
        );
    }
    match state.store.get(key) {
        Some((body, hit)) => Reply::new(200, with_cache(&body, cache_tag(hit))),
        None => Reply::new(404, error_body(Some(key), "not-found", "no stored result")),
    }
}

fn cache_tag(hit: StoreHit) -> &'static str {
    match hit {
        StoreHit::Memory => "memory",
        StoreHit::Disk => "disk",
    }
}

fn handle_compile(
    request: &Request,
    state: &Arc<ServerState>,
    client_gone: &dyn Fn() -> bool,
) -> Reply {
    let received = Instant::now();
    let bad = |message: &str| {
        state.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        Reply::new(400, error_body(None, "bad-request", message))
    };
    let Ok(body_text) = std::str::from_utf8(&request.body) else {
        return bad("body is not utf-8");
    };
    let doc = match Json::parse(body_text) {
        Ok(doc) => doc,
        Err(e) => return bad(&format!("invalid json: {e}")),
    };
    let Some(fpcore_text) = doc.get("fpcore").and_then(Json::as_str) else {
        return bad("missing required string field \"fpcore\"");
    };
    let Some(target_name) = doc.get("target").and_then(Json::as_str) else {
        return bad("missing required string field \"target\"");
    };
    let seed = match doc.get("seed") {
        None => Config::default().seed,
        Some(v) => match v.as_u64() {
            Some(seed) => seed,
            None => return bad("\"seed\" must be a non-negative integer"),
        },
    };
    let config_name = match doc.get("config") {
        None => "fast",
        Some(v) => match v.as_str() {
            Some(name) => name,
            None => return bad("\"config\" must be a string"),
        },
    };
    if named_config(config_name).is_none() {
        return bad("unknown config (expected \"default\" or \"fast\")");
    }
    let client = doc
        .get("client")
        .and_then(Json::as_str)
        .unwrap_or("anonymous");
    // The end-to-end deadline: `deadline_ms` in the body, `x-deadline-ms` as
    // a header fallback, measured from request receipt. It becomes an
    // admission check, a wall-clock cap on the search, and a cancel signal.
    let deadline_ms = match doc.get("deadline_ms") {
        Some(v) => match v.as_u64() {
            Some(ms) => Some(ms),
            None => return bad("\"deadline_ms\" must be a non-negative integer (milliseconds)"),
        },
        None => request.header("x-deadline-ms").and_then(|v| v.parse().ok()),
    };
    let deadline = deadline_ms.map(|ms| received + Duration::from_millis(ms));
    let core = match fpcore::parse_fpcore(fpcore_text) {
        Ok(core) => core,
        Err(e) => return bad(&format!("invalid fpcore: {e}")),
    };
    let Some(target) = builtin::by_name(target_name) else {
        return bad(&format!("unknown target {target_name:?}"));
    };

    let key = content_key(&core, &target, seed, config_name);

    // Level 1 + 2: the content-addressed store (cheap — served regardless of
    // how tight the deadline is).
    if let Some((body, hit)) = state.store.get(&key) {
        return Reply::new(200, with_cache(&body, cache_tag(hit)));
    }

    // Admission control: a deadline that has already passed is shed now
    // (504, never cached) instead of holding a queue slot it can never use.
    // A deadline still ahead is answered by this request's own wait.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        state.counters.deadline_shed.fetch_add(1, Ordering::Relaxed);
        return Reply::new(
            504,
            error_body(Some(&key), "deadline", "deadline expired before admission"),
        );
    }

    // Level 3: coalesce onto an in-flight job for the same key. Joining
    // under the map lock keeps the waiter count from dipping to zero (and
    // cancelling the job) while this request still cares.
    let flight = {
        let mut flights = lock(&state.flights);
        if let Some(existing) = flights.get(&key) {
            let existing = Arc::clone(existing);
            existing.join();
            drop(flights);
            state.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            return finish_wait(state, &existing, deadline, client_gone, &key, "coalesced");
        }
        let flight = Arc::new(Flight::new());
        flight.join();
        flights.insert(key.clone(), Arc::clone(&flight));
        flight
    };

    // Level 4: a fresh compile job on the worker pool, registered with the
    // watchdog, which reclaims its worker if the job wedges.
    let job = Arc::new(InflightJob {
        key: key.clone(),
        flight: Arc::clone(&flight),
        accepted: received,
        deadline,
        started: Mutex::new(None),
        abandoned: AtomicBool::new(false),
    });
    let id = state.track(Arc::clone(&job));
    let job_state = Arc::clone(state);
    let job_config = config_name.to_owned();
    let job_target = target;
    let submitted = {
        let pool = lock(&state.pool);
        match pool.as_ref() {
            Some(pool) => pool.submit(
                client,
                Box::new(move || {
                    compile_job(&job_state, id, &job, &core, &job_target, seed, &job_config)
                }),
            ),
            None => Err(crate::pool::PoolFull),
        }
    };
    if submitted.is_err() {
        state.untrack(id);
        detach_flight(state, &key, &flight);
        state
            .counters
            .queue_rejected
            .fetch_add(1, Ordering::Relaxed);
        let body = error_body(Some(&key), "resource-exhausted", "compile queue is full");
        flight.fill(503, body.clone());
        leave_flight(state, &key, &flight);
        return Reply::new(503, body);
    }
    state.counters.compiles.fetch_add(1, Ordering::Relaxed);
    finish_wait(state, &flight, deadline, client_gone, &key, "miss")
}

/// Waits on a flight as one counted waiter, honouring the request's own
/// deadline and the client-liveness probe: the one place a request's
/// deadline is answered. The waiter always leaves ([`leave_flight`]) — the
/// last one out of an unanswered flight cancels the search.
fn finish_wait(
    state: &Arc<ServerState>,
    flight: &Arc<Flight>,
    deadline: Option<Instant>,
    client_gone: &dyn Fn() -> bool,
    key: &str,
    how: &str,
) -> Reply {
    let outcome = flight.wait_until(deadline, client_gone);
    leave_flight(state, key, flight);
    match outcome {
        Ok((status, body)) => Reply::new(status, with_cache(&body, how)),
        Err(Abandoned::Deadline) => Reply::new(
            504,
            error_body(Some(key), "deadline", "deadline expired before completion"),
        ),
        // Nobody is left to read this; the connection write will fail.
        Err(Abandoned::ClientGone) => Reply::new(
            503,
            error_body(Some(key), "cancelled", "client disconnected"),
        ),
    }
}

/// Runs on a pool worker: compile under the flight's cancel token and any
/// remaining deadline budget, store on success (never when cancelled), fill
/// the flight. Returns [`JobOutcome::Abandoned`] when the watchdog already
/// wrote this worker off, so the pool retires it (its replacement is
/// already running).
fn compile_job(
    state: &Arc<ServerState>,
    id: u64,
    job: &Arc<InflightJob>,
    core: &FPCore,
    target: &Target,
    seed: u64,
    config_name: &str,
) -> JobOutcome {
    let begun = Instant::now();
    *lock(&job.started) = Some(begun);
    let token = job.flight.cancel.clone();
    // Dequeued dead: the deadline passed while queued or every waiter
    // abandoned. Don't start the search.
    if token.is_cancelled() || job.deadline.is_some_and(|d| begun >= d) {
        state.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        if job.flight.fill(
            504,
            error_body(
                Some(&job.key),
                "deadline",
                "deadline expired before the job started",
            ),
        ) {
            detach_flight(state, &job.key, &job.flight);
        }
        state.untrack(id);
        return JobOutcome::Done;
    }
    let outcome = state.session(config_name, seed).map_or_else(
        || {
            Err(CompileError::Unsupported(format!(
                "unknown config {config_name:?}"
            )))
        },
        |session| {
            // Run through the corpus entry point (a 1×1 grid) so the job
            // inherits its panic isolation and typed-error reporting. The
            // cancel token and the remaining deadline budget bound the
            // search cooperatively: both degrade to an initial-containing
            // frontier, never an error.
            let mut ctl = SearchControl::new().with_cancel(&token);
            if let Some(deadline) = job.deadline {
                ctl = ctl.with_budget(Budget::wall_clock(
                    deadline.saturating_duration_since(Instant::now()),
                ));
            }
            let mut grid = session.compile_many_with(
                std::slice::from_ref(core),
                std::slice::from_ref(target),
                &ctl,
            );
            match grid.pop().and_then(|mut row| row.pop()) {
                Some(cell) => cell,
                None => Err(CompileError::Internal(chassis::JobPanic::new(
                    "compile grid came back empty",
                ))),
            }
        },
    );
    let was_cancelled = token.is_cancelled();
    let missed_deadline = job.deadline.is_some_and(|d| Instant::now() >= d);
    let (status, body) = match outcome {
        Ok(result) if !was_cancelled && !missed_deadline => {
            let body = result_body(&job.key, core, &target.name, seed, config_name, &result);
            state.store.put(&job.key, &body);
            (200, body)
        }
        Ok(_) => {
            // A cancelled or past-deadline search was cut short, so its
            // frontier is not the key's truth: never store it.
            state.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            if missed_deadline {
                (
                    504,
                    error_body(
                        Some(&job.key),
                        "deadline",
                        "deadline expired before completion",
                    ),
                )
            } else {
                (
                    503,
                    error_body(
                        Some(&job.key),
                        "cancelled",
                        "all waiters abandoned the request",
                    ),
                )
            }
        }
        Err(e) => {
            state.failed_job(e.kind());
            (
                status_for(e.kind()),
                error_body(Some(&job.key), &e.kind().to_string(), &e.to_string()),
            )
        }
    };
    // Remove the flight *before* filling it: a request arriving after the
    // fill must start fresh (or hit the store), not wait on a dead flight.
    // Waiters that grabbed the Arc before the removal still get notified.
    detach_flight(state, &job.key, &job.flight);
    job.flight.fill(status, body);
    state.untrack(id);
    if job.abandoned.load(Ordering::SeqCst) {
        JobOutcome::Abandoned
    } else {
        JobOutcome::Done
    }
}

/// The serialized success response (without the per-request `cache` field —
/// that is injected at response time by [`with_cache`], so the stored body is
/// identical no matter how it is later served).
fn result_body(
    key: &str,
    core: &FPCore,
    target_name: &str,
    seed: u64,
    config_name: &str,
    result: &CompilationResult,
) -> String {
    let implementations = result.implementations.iter().map(impl_json).collect();
    let stats = &result.stats;
    let micros = |d: Duration| Json::from_u64(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    Json::Obj(vec![
        ("key".to_owned(), Json::Str(key.to_owned())),
        ("fpcore".to_owned(), Json::Str(canonical_text(core))),
        ("target".to_owned(), Json::Str(target_name.to_owned())),
        ("seed".to_owned(), Json::from_u64(seed)),
        ("config".to_owned(), Json::Str(config_name.to_owned())),
        ("implementations".to_owned(), Json::Arr(implementations)),
        ("initial".to_owned(), impl_json(&result.initial)),
        (
            "stats".to_owned(),
            Json::Obj(vec![
                ("lowering_us".to_owned(), micros(stats.lowering)),
                ("improve_us".to_owned(), micros(stats.improve)),
                ("regimes_us".to_owned(), micros(stats.regimes)),
                (
                    "final_evaluation_us".to_owned(),
                    micros(stats.final_evaluation),
                ),
                ("saturation_us".to_owned(), micros(stats.saturation)),
                (
                    "candidates_scored".to_owned(),
                    Json::from_u64(stats.candidates_scored as u64),
                ),
            ]),
        ),
    ])
    .to_string()
}

/// One implementation as JSON. The `*_hex` fields carry the exact bit
/// patterns (JSON numbers cannot spell NaN/inf, and decimal round-trips are
/// not something the bit-identity bench wants to depend on).
fn impl_json(imp: &Implementation) -> Json {
    Json::Obj(vec![
        ("rendered".to_owned(), Json::Str(imp.rendered.clone())),
        ("cost".to_owned(), Json::from_f64(imp.cost)),
        ("cost_hex".to_owned(), Json::Str(hex_bits(imp.cost))),
        ("error_bits".to_owned(), Json::from_f64(imp.error_bits)),
        (
            "error_bits_hex".to_owned(),
            Json::Str(hex_bits(imp.error_bits)),
        ),
        (
            "accuracy_bits".to_owned(),
            Json::from_f64(imp.accuracy_bits),
        ),
        (
            "accuracy_bits_hex".to_owned(),
            Json::Str(hex_bits(imp.accuracy_bits)),
        ),
    ])
}

fn error_body(key: Option<&str>, kind: &str, message: &str) -> String {
    let mut members = Vec::new();
    if let Some(key) = key {
        members.push(("key".to_owned(), Json::Str(key.to_owned())));
    }
    members.push((
        "error".to_owned(),
        Json::Obj(vec![
            ("kind".to_owned(), Json::Str(kind.to_owned())),
            ("message".to_owned(), Json::Str(message.to_owned())),
        ]),
    ));
    Json::Obj(members).to_string()
}

/// Injects `"cache":"<how>"` as the first member of a serialized JSON object
/// body. The stored body never contains the field, so stored bytes are
/// identical regardless of how they are served.
fn with_cache(body: &str, how: &str) -> String {
    if let Some(rest) = body.strip_prefix('{') {
        if rest.starts_with('}') {
            return format!("{{\"cache\":\"{how}\"}}");
        }
        return format!("{{\"cache\":\"{how}\",{rest}");
    }
    body.to_owned()
}

fn stats_body(state: &Arc<ServerState>) -> String {
    let store = state.store.stats();
    let c = &state.counters;
    let n = |v: u64| Json::from_u64(v);
    let (completed, rejected, replaced) = {
        let pool = lock(&state.pool);
        pool.as_ref().map_or((0, 0, 0), |p| {
            (p.completed(), p.rejected(), p.replacements())
        })
    };
    let failed: Vec<(String, Json)> = KIND_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (
                (*name).to_owned(),
                n(c.jobs_failed[i].load(Ordering::Relaxed)),
            )
        })
        .collect();
    let failed_total: u64 = c
        .jobs_failed
        .iter()
        .map(|v| v.load(Ordering::Relaxed))
        .sum();
    Json::Obj(vec![
        ("requests".to_owned(), n(c.requests.load(Ordering::Relaxed))),
        ("compiles".to_owned(), n(c.compiles.load(Ordering::Relaxed))),
        ("hits_memory".to_owned(), n(store.hits_memory)),
        ("hits_disk".to_owned(), n(store.hits_disk)),
        ("misses".to_owned(), n(store.misses)),
        (
            "coalesced".to_owned(),
            n(c.coalesced.load(Ordering::Relaxed)),
        ),
        ("evictions".to_owned(), n(store.evictions)),
        ("corrupt_recovered".to_owned(), n(store.corrupt_recovered)),
        ("writes_skipped".to_owned(), n(store.writes_skipped)),
        (
            "bad_requests".to_owned(),
            n(c.bad_requests.load(Ordering::Relaxed)),
        ),
        (
            "queue_rejected".to_owned(),
            n(c.queue_rejected.load(Ordering::Relaxed)),
        ),
        ("jobs_completed".to_owned(), n(completed)),
        ("jobs_rejected".to_owned(), n(rejected)),
        ("jobs_failed".to_owned(), n(failed_total)),
        ("jobs_failed_by_kind".to_owned(), Json::Obj(failed)),
        (
            "cancelled".to_owned(),
            n(c.cancelled.load(Ordering::Relaxed)),
        ),
        (
            "deadline_shed".to_owned(),
            n(c.deadline_shed.load(Ordering::Relaxed)),
        ),
        (
            "watchdog_fired".to_owned(),
            n(c.watchdog_fired.load(Ordering::Relaxed)),
        ),
        ("workers_replaced".to_owned(), n(replaced)),
        ("inflight".to_owned(), n(lock(&state.inflight).len() as u64)),
        (
            "uptime_ms".to_owned(),
            n(u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX)),
        ),
        (
            "memory_entries".to_owned(),
            n(state.store.memory_len() as u64),
        ),
        (
            "sessions".to_owned(),
            n(lock(&state.sessions).entries.len() as u64),
        ),
        (
            "accept_drops".to_owned(),
            n(c.accept_drops.load(Ordering::Relaxed)),
        ),
        (
            "panics_recovered".to_owned(),
            n(c.panics_recovered.load(Ordering::Relaxed)),
        ),
    ])
    .to_string()
}
