//! swrouter — a std-only consistent-hash front for a fleet of swserve
//! shards.
//!
//! The router owns no evaluation logic. It canonicalizes each request
//! exactly the way the shards do (same [`swserve`] normalize functions,
//! same FNV-1a content key), places the key on a fixed virtual-node
//! hash [`ring`], and relays the request to the key's home shard over a
//! bounded keep-alive connection [`proxy`] pool. Because shards cache
//! by the same key, this placement *is* the cache policy: every
//! distinct request warms exactly one shard's RAM + disk hierarchy, and
//! repeats land on the warmed shard — cache affinity falls out of the
//! hash, no coordination protocol needed.
//!
//! Failure handling is equally boring on purpose. A shard that fails a
//! fresh dial is marked unhealthy and the request is retried on the
//! ring's next candidate (the client sees one answer, never an error
//! caused by a single shard death); a health thread keeps probing
//! ejected shards and re-admits them when `/healthz` answers again,
//! which routes their keys straight back to their warmed caches. Job
//! ids embed the submitting request's content key (`job-{seq}-{key}`),
//! so status polls follow the submit to the same shard without any
//! routing table.

pub mod proxy;
pub mod ring;

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use swjson::Json;
use swserve::http::{
    error_body, read_request, reason_phrase, write_json, ReadError, Request, Response,
};
use swserve::{content_key, eval, jobs, netlist};

use proxy::{serialize_request, Backend};
use ring::Ring;

/// How a [`Router`] is configured; see `repro route --help` for the
/// CLI surface.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` for an ephemeral port).
    pub addr: String,
    /// Shard addresses, e.g. `["127.0.0.1:7071", "127.0.0.1:7072"]`.
    pub backends: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Idle keep-alive connections pooled per shard.
    pub pool_per_backend: usize,
    /// Read/write timeout for shard I/O.
    pub io_timeout: Duration,
    /// Health-probe cadence for ejected shards.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            vnodes: 64,
            pool_per_backend: 8,
            io_timeout: Duration::from_secs(30),
            health_interval: Duration::from_millis(250),
        }
    }
}

/// Router-level counters (shard-level ones live on each [`Backend`]).
#[derive(Debug)]
pub struct RouterMetrics {
    /// Requests read from clients.
    pub requests: AtomicU64,
    /// Requests answered by a shard.
    pub relayed: AtomicU64,
    /// Requests answered by the router itself (health, metrics, errors).
    pub local: AtomicU64,
    /// Requests that had to move past their home shard.
    pub failovers: AtomicU64,
    /// 503s because every candidate shard failed.
    pub no_backend: AtomicU64,
    /// Healthy→unhealthy transitions.
    pub ejections: AtomicU64,
    /// Unhealthy→healthy transitions (probe recovered the shard).
    pub readmissions: AtomicU64,
    started: Instant,
}

impl Default for RouterMetrics {
    fn default() -> RouterMetrics {
        RouterMetrics {
            requests: AtomicU64::new(0),
            relayed: AtomicU64::new(0),
            local: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            no_backend: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

struct Shared {
    ring: Ring,
    backends: Vec<Backend>,
    metrics: RouterMetrics,
    shutdown: AtomicBool,
}

impl Shared {
    fn render_metrics(&self) -> Json {
        let backends = self
            .backends
            .iter()
            .map(|backend| {
                Json::obj([
                    ("addr", Json::str(backend.addr().to_string())),
                    ("healthy", Json::Bool(backend.is_healthy())),
                    (
                        "forwarded",
                        Json::Num(backend.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "stale_retries",
                        Json::Num(backend.stale_retries.load(Ordering::Relaxed) as f64),
                    ),
                    ("pooled_connections", Json::Num(backend.pooled() as f64)),
                ])
            })
            .collect::<Vec<_>>();
        let m = &self.metrics;
        Json::obj([
            ("role", Json::str("router")),
            ("version", Json::str(env!("CARGO_PKG_VERSION"))),
            (
                "uptime_s",
                Json::Num(m.started.elapsed().as_secs_f64().floor()),
            ),
            (
                "requests",
                Json::Num(m.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "relayed",
                Json::Num(m.relayed.load(Ordering::Relaxed) as f64),
            ),
            ("local", Json::Num(m.local.load(Ordering::Relaxed) as f64)),
            (
                "failovers",
                Json::Num(m.failovers.load(Ordering::Relaxed) as f64),
            ),
            (
                "no_backend",
                Json::Num(m.no_backend.load(Ordering::Relaxed) as f64),
            ),
            (
                "ejections",
                Json::Num(m.ejections.load(Ordering::Relaxed) as f64),
            ),
            (
                "readmissions",
                Json::Num(m.readmissions.load(Ordering::Relaxed) as f64),
            ),
            ("backends", Json::Arr(backends)),
        ])
    }
}

/// A cheap handle onto a running router (tests and the CLI use it).
#[derive(Clone)]
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Router-level counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// True while the given shard index is considered healthy.
    pub fn backend_healthy(&self, index: usize) -> bool {
        self.shared.backends[index].is_healthy()
    }

    /// Begins a drain, as `POST /v1/admin/shutdown` would.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// The shard-routing HTTP front.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
    addr: SocketAddr,
    health_interval: Duration,
}

impl Router {
    /// Binds the router and resolves every shard address. Shards are
    /// presumed healthy until a request or probe says otherwise — the
    /// router boots even if shards are still coming up.
    ///
    /// # Errors
    ///
    /// Bind failures, unresolvable shard addresses, or an empty shard
    /// list.
    pub fn bind(config: &RouterConfig) -> std::io::Result<Router> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend (--backend host:port)",
            ));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for spec in &config.backends {
            let addr = spec
                .to_socket_addrs()
                .map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("backend `{spec}`: {e}"),
                    )
                })?
                .next()
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        format!("backend `{spec}` resolved to nothing"),
                    )
                })?;
            backends.push(Backend::new(
                addr,
                config.pool_per_backend,
                config.io_timeout,
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            ring: Ring::new(backends.len(), config.vnodes),
            backends,
            metrics: RouterMetrics::default(),
            shutdown: AtomicBool::new(false),
        });
        Ok(Router {
            listener,
            shared,
            addr,
            health_interval: config.health_interval,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for observing and draining the router.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a drain is triggered, then lets open connections
    /// finish. Mirrors [`swserve::Server::run`]'s accept loop, plus a
    /// health thread that re-admits ejected shards.
    ///
    /// # Errors
    ///
    /// Listener-level failures only; per-connection and per-shard
    /// errors are contained (that is the router's whole job).
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let health = {
            let shared = Arc::clone(&self.shared);
            let interval = self.health_interval;
            thread::spawn(move || health_loop(&shared, interval))
        };
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(100);
        const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(5);
        let mut backoff = ACCEPT_BACKOFF_MIN;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    connections.push(thread::spawn(move || handle_connection(stream, &shared)));
                    backoff = ACCEPT_BACKOFF_MIN;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            connections.retain(|c| !c.is_finished());
        }
        for connection in connections {
            let _ = connection.join();
        }
        let _ = health.join();
        Ok(())
    }
}

/// Probes shards in the background. Ejected shards are probed every
/// tick so recovery is fast (their keys snap back to warmed caches);
/// healthy shards are probed every eighth tick, which catches silent
/// deaths without the router adding constant probe load.
fn health_loop(shared: &Shared, interval: Duration) {
    let mut tick = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        for backend in &shared.backends {
            let was_healthy = backend.is_healthy();
            if !was_healthy || tick.is_multiple_of(8) {
                let alive = backend.probe();
                if alive != was_healthy {
                    backend.set_healthy(alive);
                    let counter = if alive {
                        &shared.metrics.readmissions
                    } else {
                        &shared.metrics.ejections
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        tick += 1;
        thread::sleep(interval);
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    loop {
        let request = match read_request(&stream) {
            Ok(request) => request,
            Err(ReadError::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(message)) => {
                let _ = write_json(&mut stream, 400, &[], &error_body(&message), false);
                return;
            }
            Err(ReadError::BodyTooLarge) => {
                let _ = write_json(&mut stream, 413, &[], &error_body("body too large"), false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
        let ok = match dispatch(&request, shared) {
            Dispatched::Local { status, body } => {
                shared.metrics.local.fetch_add(1, Ordering::Relaxed);
                write_json(&mut stream, status, &[], &body, !close).is_ok()
            }
            Dispatched::Relayed { shard, response } => {
                shared.metrics.relayed.fetch_add(1, Ordering::Relaxed);
                relay(&mut stream, shard, &response, !close).is_ok()
            }
        };
        if !ok || close {
            return;
        }
    }
}

/// What became of one request.
enum Dispatched {
    /// The router answered it directly.
    Local { status: u16, body: String },
    /// Shard `shard` answered; relay its bytes.
    Relayed { shard: usize, response: Response },
}

impl Dispatched {
    fn error(status: u16, message: &str) -> Dispatched {
        Dispatched::Local {
            status,
            body: error_body(message),
        }
    }
}

/// Routes one request: answer locally (router endpoints, canonicalize
/// errors) or derive the content key and relay to its shard.
fn dispatch(request: &Request, shared: &Shared) -> Dispatched {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let healthy = shared
                .backends
                .iter()
                .filter(|backend| backend.is_healthy())
                .count();
            Dispatched::Local {
                status: 200,
                body: Json::obj([
                    ("status", Json::str("ok")),
                    ("role", Json::str("router")),
                    (
                        "draining",
                        Json::Bool(shared.shutdown.load(Ordering::SeqCst)),
                    ),
                    ("backends", Json::Num(shared.backends.len() as f64)),
                    ("healthy", Json::Num(healthy as f64)),
                ])
                .render(),
            }
        }
        ("GET", "/metrics") => Dispatched::Local {
            status: 200,
            body: shared.render_metrics().render(),
        },
        ("POST", "/v1/admin/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Dispatched::Local {
                status: 200,
                body: r#"{"draining":true}"#.to_string(),
            }
        }
        ("POST", "/v1/gate/eval") => keyed_relay(request, shared, eval::normalize),
        ("POST", "/v1/netlist/eval") => keyed_relay(request, shared, netlist::normalize),
        ("POST", "/v1/jobs") => keyed_relay(request, shared, jobs::normalize_job),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let id = &path["/v1/jobs/".len()..];
            forward(request, shared, job_key(id))
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/gate/eval" | "/v1/netlist/eval" | "/v1/jobs"
            | "/v1/admin/shutdown",
        ) => Dispatched::error(405, "method not allowed"),
        _ => Dispatched::error(404, "no such endpoint"),
    }
}

/// Canonicalizes the body with the same function the shard would use,
/// keys it, and relays. Canonicalization failures are answered at the
/// router with the exact error body the shard would have produced —
/// invalid requests never cost a network hop.
fn keyed_relay(
    request: &Request,
    shared: &Shared,
    normalize: fn(&Json) -> Result<Json, eval::EvalError>,
) -> Dispatched {
    let parsed = match Json::parse_bytes(&request.body) {
        Ok(parsed) => parsed,
        Err(e) => return Dispatched::error(400, &format!("bad JSON: {e}")),
    };
    let normalized = match normalize(&parsed) {
        Ok(normalized) => normalized,
        Err(e) => return Dispatched::error(400, &e.message),
    };
    forward(request, shared, content_key(&normalized.render()))
}

/// The routing key for a job-status poll. Job ids embed the submit's
/// content key as their trailing 16 hex digits (`job-{seq}-{key:016x}`),
/// so polls route to the shard that accepted the job. Unparseable ids
/// still route *deterministically* (hash of the id) — the shard answers
/// the 404.
fn job_key(id: &str) -> u64 {
    id.rsplit('-')
        .next()
        .filter(|hex| hex.len() == 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or_else(|| content_key(id))
}

/// Relays the request to the key's shard, failing over along the ring's
/// candidate order. Healthy shards are tried first (in ring order);
/// unhealthy ones are last-resort candidates — if a probe hasn't
/// re-admitted a shard yet but it is actually back, a request can still
/// land there rather than 503.
fn forward(request: &Request, shared: &Shared, key: u64) -> Dispatched {
    let raw = serialize_request(&request.method, &request.path, &request.body);
    let candidates = shared.ring.candidates(key);
    let ordered = candidates
        .iter()
        .filter(|&&shard| shared.backends[shard].is_healthy())
        .chain(
            candidates
                .iter()
                .filter(|&&shard| !shared.backends[shard].is_healthy()),
        )
        .copied()
        .collect::<Vec<_>>();
    for (attempt, shard) in ordered.iter().copied().enumerate() {
        match shared.backends[shard].request(&raw) {
            Ok(response) => {
                if attempt > 0 {
                    shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                }
                return Dispatched::Relayed { shard, response };
            }
            Err(_) => {
                // A fresh dial failed too: the shard is down. Eject it;
                // the health loop re-admits it when it answers again.
                if shared.backends[shard].set_healthy(false) {
                    shared.metrics.ejections.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    shared.metrics.no_backend.fetch_add(1, Ordering::Relaxed);
    Dispatched::error(503, "no healthy backend")
}

/// Writes a shard's response onward, body bytes untouched (callers rely
/// on byte-identity with direct shard responses). The shard's cache and
/// retry headers are preserved; `x-shard` says who answered.
fn relay(
    stream: &mut TcpStream,
    shard: usize,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nx-shard: {shard}\r\n",
        response.status,
        reason_phrase(response.status),
        response.body.len(),
    );
    for name in ["x-cache", "retry-after"] {
        if let Some(value) = response.header(name) {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_keys_route_polls_to_the_submitting_shard() {
        assert_eq!(job_key("job-3-00ff00ff00ff00ff"), 0x00ff_00ff_00ff_00ff);
        assert_eq!(job_key("job-12-cbf29ce484222325"), 0xcbf2_9ce4_8422_2325);
        // Unparseable ids still route deterministically.
        assert_eq!(job_key("garbage"), content_key("garbage"));
        assert_eq!(job_key("job-1-short"), content_key("job-1-short"));
    }

    #[test]
    fn error_dispatch_matches_shard_error_bodies() {
        // The router's local 400s must be byte-identical to what a
        // shard would answer, so clients cannot tell who rejected them.
        let shared = Shared {
            ring: Ring::new(1, 8),
            backends: vec![Backend::new(
                "127.0.0.1:1".parse().unwrap(),
                1,
                Duration::from_millis(100),
            )],
            metrics: RouterMetrics::default(),
            shutdown: AtomicBool::new(false),
        };
        let request = Request {
            method: "POST".to_string(),
            path: "/v1/gate/eval".to_string(),
            headers: Vec::new(),
            body: br#"{"gate":"warp"}"#.to_vec(),
        };
        let Dispatched::Local { status, body } = dispatch(&request, &shared) else {
            panic!("invalid gate must be answered locally");
        };
        assert_eq!(status, 400);
        let parsed = Json::parse(&body).unwrap();
        let message = parsed.get("error").and_then(Json::as_str).unwrap();
        let direct = eval::normalize(&Json::parse(r#"{"gate":"warp"}"#).unwrap()).unwrap_err();
        assert_eq!(message, direct.message);
    }
}
