//! `serve_mix`: an in-process `swrouter::Router` in front of two
//! in-process `swserve::Server` shards, each with a disk store and a RAM
//! cache smaller than its share of the distinct keys, driven by a
//! seeded request stream over two keep-alive connections.
//!
//! The stream is mostly repeated gate, circuit and netlist requests
//! (answered from RAM), a warm set pre-loaded into the stores at set-up
//! (answered from disk) and a cold share of never-seen tagged gate
//! requests and random 3–5-input truth tables (evaluated, then written
//! to the store). Loads the router relay, `swserve` parse, normalize,
//! hash and cache, `swstore`, `swjson`, `swnet` and `swperf`; skips
//! `magnum` entirely.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swjson::Json;
use swrouter::ring::Ring;
use swrouter::{Router, RouterConfig, RouterHandle};
use swserve::cache::content_key;
use swserve::eval::EvalError;
use swserve::{Server, ServerConfig, ServerHandle};
use swstore::{Store, StoreConfig};

use crate::report::Metric;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Share of the stream drawn from the hot set.
const HOT_SHARE: f64 = 0.80;
/// Share drawn from the warm set; the rest is cold.
const WARM_SHARE: f64 = 0.12;

/// Which evaluation endpoint a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/gate/eval`.
    Gate,
    /// `POST /v1/netlist/eval`.
    Netlist,
}

impl Endpoint {
    fn path(self) -> &'static str {
        match self {
            Endpoint::Gate => "/v1/gate/eval",
            Endpoint::Netlist => "/v1/netlist/eval",
        }
    }

    fn normalize(self, request: &Json) -> Result<Json, EvalError> {
        match self {
            Endpoint::Gate => swserve::eval::normalize(request),
            Endpoint::Netlist => swserve::netlist::normalize(request),
        }
    }

    /// The response body the server must send, computed in-process,
    /// with the trailing newline the server appends.
    fn expected(self, body: &str) -> Result<Vec<u8>, String> {
        let request = Json::parse(body).map_err(|e| format!("{body}: {e}"))?;
        let out = match self {
            Endpoint::Gate => swserve::eval::respond(&request),
            Endpoint::Netlist => swserve::netlist::respond(&request),
        }
        .map_err(|e| format!("{body}: {e}"))?;
        Ok((out + "\n").into_bytes())
    }

    /// The content key the shard caches the request under.
    fn key(self, body: &str) -> Result<u64, String> {
        let request = Json::parse(body).map_err(|e| e.to_string())?;
        let canonical = self.normalize(&request).map_err(|e| e.message)?;
        Ok(content_key(&canonical.render()))
    }
}

/// One request of the stream; hot and warm ones carry the body the
/// server must answer with.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// JSON request body.
    pub body: String,
    /// Expected response body (hot and warm requests).
    pub expected: Option<Arc<Vec<u8>>>,
}

/// Sizes of one serving set-up.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Distinct hot requests.
    pub hot: usize,
    /// Distinct warm requests pre-loaded into the stores.
    pub warm: usize,
    /// RAM cache entries per shard.
    pub cache_capacity: usize,
}

impl Sizes {
    /// The workload's sizes.
    pub const FULL: Sizes = Sizes {
        hot: 64,
        warm: 12000,
        cache_capacity: 256,
    };
    /// The layer probe's sizes.
    pub const PROBE: Sizes = Sizes {
        hot: 64,
        warm: 400,
        cache_capacity: 128,
    };
    /// Smoke sizes.
    pub const SMOKE: Sizes = Sizes {
        hot: 12,
        warm: 40,
        cache_capacity: 16,
    };
}

/// SplitMix64: the seeded generator of every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const GATES: [(&str, usize); 7] = [
    ("maj3", 3),
    ("xor", 2),
    ("and", 2),
    ("or", 2),
    ("nand", 2),
    ("nor", 2),
    ("xnor", 2),
];

fn bits(rng: &mut Rng, n: usize) -> String {
    let bits: Vec<&str> = (0..n)
        .map(|_| if rng.below(2) == 1 { "1" } else { "0" })
        .collect();
    format!("[{}]", bits.join(","))
}

fn tag_field(tag: Option<&str>) -> String {
    tag.map(|t| format!(r#","tag":"{t}""#)).unwrap_or_default()
}

fn gate_request(rng: &mut Rng, tag: Option<&str>) -> Request {
    let (gate, arity) = GATES[rng.below(GATES.len())];
    let backend = if rng.below(2) == 0 { "paper" } else { "ideal" };
    Request {
        endpoint: Endpoint::Gate,
        body: format!(
            r#"{{"gate":"{gate}","backend":"{backend}","inputs":{}{}}}"#,
            bits(rng, arity),
            tag_field(tag)
        ),
        expected: None,
    }
}

fn circuit_request(rng: &mut Rng) -> Request {
    let body = if rng.below(2) == 0 {
        format!(
            r#"{{"kind":"circuit","circuit":"full_adder","inputs":{}}}"#,
            bits(rng, 3)
        )
    } else {
        let width = 1 + rng.below(4);
        format!(
            r#"{{"kind":"circuit","circuit":"ripple_carry_adder","width":{width},"inputs":{}}}"#,
            bits(rng, 2 * width + 1)
        )
    };
    Request {
        endpoint: Endpoint::Gate,
        body,
        expected: None,
    }
}

fn demo_request(rng: &mut Rng) -> Request {
    let body = match rng.below(5) {
        0 => r#"{"demo":"full_adder"}"#.to_string(),
        1 => r#"{"demo":"mul2"}"#.to_string(),
        2 => r#"{"demo":"rca4"}"#.to_string(),
        3 => format!(r#"{{"demo":"rca8","inputs":{}}}"#, bits(rng, 17)),
        _ => format!(r#"{{"demo":"mul4","inputs":{}}}"#, bits(rng, 8)),
    };
    Request {
        endpoint: Endpoint::Netlist,
        body,
        expected: None,
    }
}

/// A random truth table of 3–5 inputs and 1–2 outputs.
fn table_request(rng: &mut Rng, tag: &str) -> Request {
    let inputs = 3 + rng.below(3);
    let outputs = 1 + rng.below(2);
    let columns: Vec<String> = (0..outputs)
        .map(|_| {
            let bits: String = (0..1usize << inputs)
                .map(|_| if rng.below(2) == 1 { '1' } else { '0' })
                .collect();
            format!(r#""{bits}""#)
        })
        .collect();
    Request {
        endpoint: Endpoint::Netlist,
        body: format!(r#"{{"table":[{}],"tag":"{tag}"}}"#, columns.join(",")),
        expected: None,
    }
}

/// A never-seen request: a tagged gate evaluation or a tagged random
/// truth table, half each.
fn cold_request(rng: &mut Rng, tag: &str) -> Request {
    if rng.below(2) == 0 {
        gate_request(rng, Some(tag))
    } else {
        table_request(rng, tag)
    }
}

fn with_expected(mut request: Request) -> Result<Request, String> {
    request.expected = Some(Arc::new(request.endpoint.expected(&request.body)?));
    Ok(request)
}

/// The hot and warm sets of one seed, with their expected bodies.
#[derive(Debug, Clone)]
pub struct Sets {
    /// Repeated requests, answered from RAM.
    pub hot: Vec<Request>,
    /// Pre-loaded requests, answered from disk.
    pub warm: Vec<Request>,
}

/// Generates the hot set (distinct untagged gate, circuit and netlist
/// requests) and the warm set (tagged gate requests and truth tables).
///
/// # Errors
///
/// A request the in-process evaluator rejects.
pub fn generate(seed: u64, sizes: Sizes) -> Result<Sets, String> {
    let mut rng = Rng::new(seed, 0);
    let mut hot = Vec::with_capacity(sizes.hot);
    let mut keys = std::collections::HashSet::new();
    let mut tries = 0;
    while hot.len() < sizes.hot {
        tries += 1;
        if tries > 100 * sizes.hot {
            return Err("hot set: too few distinct requests".into());
        }
        let request = match rng.below(10) {
            0..=5 => gate_request(&mut rng, None),
            6 | 7 => circuit_request(&mut rng),
            _ => demo_request(&mut rng),
        };
        if keys.insert(request.endpoint.key(&request.body)?) {
            hot.push(with_expected(request)?);
        }
    }
    let warm = (0..sizes.warm)
        .map(|i| {
            let tag = format!("w{seed}.{i}");
            with_expected(if rng.below(4) == 0 {
                table_request(&mut rng, &tag)
            } else {
                gate_request(&mut rng, Some(&tag))
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Sets { hot, warm })
}

/// Which cache level answered (`X-Cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// RAM cache hit.
    Ram,
    /// Disk store hit.
    Disk,
    /// Waited on an identical in-flight evaluation.
    Coalesced,
    /// Evaluated.
    Miss,
    /// No or unknown header.
    Other,
}

/// One parsed HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `X-Cache`.
    pub level: Level,
    /// `x-shard` (responses relayed by the router).
    pub shard: Option<usize>,
    /// Body bytes as sent.
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client with a buffered reader.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn read_line(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed responses.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(message.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let status = self
            .read_line()?
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut level, mut shard) = (None, Level::Other, None);
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "x-shard" => shard = value.parse().ok(),
                "x-cache" => {
                    level = match value {
                        "ram" => Level::Ram,
                        "disk" => Level::Disk,
                        "coalesced" => Level::Coalesced,
                        "miss" => Level::Miss,
                        _ => Level::Other,
                    }
                }
                _ => {}
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            level,
            shard,
            body,
        })
    }
}

/// Router plus shards, each serving on its own thread.
pub struct Topology {
    router: RouterHandle,
    router_thread: JoinHandle<std::io::Result<()>>,
    shards: Vec<(ServerHandle, JoinHandle<std::io::Result<()>>)>,
    dirs: Vec<PathBuf>,
}

static TOPOLOGIES: AtomicU64 = AtomicU64::new(0);

impl Topology {
    /// Creates fresh store directories, pre-loads each warm body into
    /// the store of the shard the router's ring assigns it to, and boots
    /// the shards and the router.
    ///
    /// # Errors
    ///
    /// Store, bind or key failures.
    pub fn boot(sets: &Sets, sizes: Sizes) -> Result<Topology, String> {
        let n = TOPOLOGIES.fetch_add(1, Ordering::Relaxed);
        let root = crate::sys::work_dir().join(format!("serve-{}-{n}", std::process::id()));
        let dirs: Vec<PathBuf> = (0..SHARDS)
            .map(|i| root.join(format!("shard{i}")))
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        let io = |e: std::io::Error| e.to_string();
        {
            let stores = dirs
                .iter()
                .map(|d| Store::open(StoreConfig::new(d)).map_err(io))
                .collect::<Result<Vec<_>, _>>()?;
            let ring = Ring::new(SHARDS, RouterConfig::default().vnodes);
            for request in &sets.warm {
                let key = request.endpoint.key(&request.body)?;
                let expected = request
                    .expected
                    .as_ref()
                    .expect("warm requests carry bodies");
                let stored = &expected[..expected.len() - 1];
                stores[ring.primary(key)].put(key, stored).map_err(io)?;
            }
        }
        let mut shards = Vec::with_capacity(SHARDS);
        for dir in &dirs {
            let server = Server::bind(&ServerConfig {
                workers: 1,
                cache_capacity: sizes.cache_capacity,
                store: Some(dir.clone()),
                ..ServerConfig::default()
            })
            .map_err(io)?;
            let handle = server.handle();
            shards.push((handle, std::thread::spawn(move || server.run())));
        }
        let router = Router::bind(&RouterConfig {
            backends: shards.iter().map(|(h, _)| h.addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .map_err(io)?;
        let handle = router.handle();
        let router_thread = std::thread::spawn(move || router.run());
        Ok(Topology {
            router: handle,
            router_thread,
            shards,
            dirs,
        })
    }

    /// The router's address.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Shard `i`'s address.
    pub fn shard_addr(&self, i: usize) -> SocketAddr {
        self.shards[i].0.addr()
    }

    /// Drains the router, then the shards, joins every thread and
    /// deletes the store directories.
    ///
    /// # Errors
    ///
    /// A server that failed while running.
    pub fn shutdown(self) -> Result<(), String> {
        self.router.shutdown();
        let router = self
            .router_thread
            .join()
            .map_err(|_| "router thread panicked")?;
        router.map_err(|e| e.to_string())?;
        drop(self.router);
        for (handle, thread) in self.shards {
            handle.shutdown();
            thread
                .join()
                .map_err(|_| "shard thread panicked")?
                .map_err(|e| e.to_string())?;
        }
        if let Some(root) = self.dirs.first().and_then(|d| d.parent()) {
            let _ = std::fs::remove_dir_all(root);
        }
        Ok(())
    }
}

/// Sends every hot request once, so the timed phase finds them cached.
///
/// # Errors
///
/// Connection failures, or a hot answer that fails [`check`].
pub fn warm_hot(addr: SocketAddr, sets: &Sets) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for request in &sets.hot {
        let response = client
            .request("POST", request.endpoint.path(), &request.body)
            .map_err(|e| e.to_string())?;
        check(request, &response).map_err(|e| format!("hot warm-up: {e}"))?;
    }
    Ok(())
}

/// Checks a response against the request's expected body (when known).
///
/// # Errors
///
/// Non-200 status (429 included) or a body differing in any byte.
pub fn check(request: &Request, response: &Response) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!("status {} for {}", response.status, request.body));
    }
    match &request.expected {
        Some(expected) if expected.as_slice() != response.body.as_slice() => {
            Err(format!("body differs for {}", request.body))
        }
        _ => Ok(()),
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Client-side latency, ms.
    pub ms: f64,
    /// Cache level that answered.
    pub level: Level,
    /// Target endpoint.
    pub endpoint: Endpoint,
    /// Answering shard.
    pub shard: Option<usize>,
    /// Sent inside a span.
    pub traced: bool,
}

/// What a stream produced.
#[derive(Debug, Default)]
pub struct Stream {
    /// Every timed request.
    pub records: Vec<Record>,
    /// Requests sent (I/O failures included).
    pub attempted: u64,
    /// Requests that failed: I/O errors and failed checks.
    pub failed: u64,
    /// From the start to the last completion, seconds.
    pub wall_s: f64,
}

/// A cold request and the length and FNV-1a hash of the body the
/// server answered with, checked after the timed phase. FNV-1a steps
/// are bijections of the running hash, so a body differing in any
/// single byte always hashes differently.
type ColdAnswer = (Endpoint, String, usize, u64);

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drives `connections` closed-loop keep-alive connections against
/// `addr` until `duration` has passed; each connection first sends one
/// checked, untimed warm-up request. Cold answers are verified against
/// in-process evaluation after the timed phase.
///
/// # Errors
///
/// Connection failures.
pub fn drive(
    addr: SocketAddr,
    sets: &Arc<Sets>,
    seed: u64,
    connections: usize,
    duration: Duration,
    tracer: &mut Tracer,
) -> Result<Stream, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let sets = Arc::clone(sets);
            let mut tracer = tracer.fork();
            std::thread::spawn(move || -> Result<_, String> {
                let mut rng = Rng::new(seed, 1 + c as u64);
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let warm_up = &sets.hot[c % sets.hot.len()];
                let response = client
                    .request("POST", warm_up.endpoint.path(), &warm_up.body)
                    .map_err(|e| e.to_string())?;
                check(warm_up, &response).map_err(|e| format!("warm-up op: {e}"))?;
                let (mut records, mut cold, mut failed) = (Vec::new(), Vec::new(), 0u64);
                let mut attempted = 0u64;
                let mut last = Instant::now();
                let mut op = 0u64;
                while Instant::now() < deadline {
                    let draw = rng.unit();
                    let fresh;
                    let request = if draw < HOT_SHARE {
                        &sets.hot[rng.below(sets.hot.len())]
                    } else if draw < HOT_SHARE + WARM_SHARE {
                        &sets.warm[rng.below(sets.warm.len())]
                    } else {
                        fresh = cold_request(&mut rng, &format!("c{seed}.{c}.{op}"));
                        &fresh
                    };
                    let sent = Instant::now();
                    let (response, traced) = tracer.op("serve.request", op, || {
                        client.request("POST", request.endpoint.path(), &request.body)
                    });
                    last = Instant::now();
                    let ms = (last - sent).as_secs_f64() * 1e3;
                    op += 1;
                    attempted += 1;
                    let response = match response {
                        Ok(response) => response,
                        Err(_) => {
                            failed += 1;
                            client = Client::connect(addr).map_err(|e| e.to_string())?;
                            continue;
                        }
                    };
                    records.push(Record {
                        ms,
                        level: response.level,
                        endpoint: request.endpoint,
                        shard: response.shard,
                        traced,
                    });
                    if check(request, &response).is_err() {
                        failed += 1;
                    } else if request.expected.is_none() {
                        let hash = fnv1a(&response.body);
                        cold.push((
                            request.endpoint,
                            request.body.clone(),
                            response.body.len(),
                            hash,
                        ));
                    }
                }
                Ok((records, cold, attempted, failed, last, tracer))
            })
        })
        .collect();
    let mut stream = Stream::default();
    let mut cold: Vec<ColdAnswer> = Vec::new();
    let mut last = start;
    let mut first_error = None;
    for worker in workers {
        match worker
            .join()
            .map_err(|_| "client thread panicked".to_string())?
        {
            Ok((records, answers, attempted, failed, done, spans)) => {
                stream.records.extend(records);
                stream.attempted += attempted;
                cold.extend(answers);
                stream.failed += failed;
                last = last.max(done);
                tracer.merge(spans);
            }
            Err(e) => first_error = first_error.or(Some(e)),
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    stream.wall_s = (last - start).as_secs_f64();
    for (endpoint, body, len, hash) in cold {
        if endpoint.expected(&body).map_or(true, |expected| {
            expected.len() != len || fnv1a(&expected) != hash
        }) {
            stream.failed += 1;
        }
    }
    Ok(stream)
}

/// Builds sets, stores and topology and warms the hot set; the set-up
/// the workload times.
fn setup(seed: u64, sizes: Sizes) -> Result<(Arc<Sets>, Topology), String> {
    let sets = generate(seed, sizes)?;
    let topology = Topology::boot(&sets, sizes)?;
    warm_hot(topology.addr(), &sets)?;
    Ok((Arc::new(sets), topology))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or connection failures.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = if cfg.smoke { Sizes::SMOKE } else { Sizes::FULL };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setup_reps() {
        if let Some((_, old)) = kept.take() {
            Topology::shutdown(old)?;
        }
        let start = Instant::now();
        kept = Some(setup(cfg.seed, sizes)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (sets, topology) = kept.expect("at least one set-up");
    let conns = cfg.clients();
    let stream = drive(topology.addr(), &sets, cfg.seed, conns, cfg.seconds, tracer);
    topology.shutdown()?;
    let stream = stream?;
    let count = |level: Level| stream.records.iter().filter(|r| r.level == level).count();
    let facts = vec![
        ("hot_set".into(), sets.hot.len().to_string()),
        ("warm_set".into(), sets.warm.len().to_string()),
        (
            "cache_capacity_per_shard".into(),
            sizes.cache_capacity.to_string(),
        ),
        (
            "x_cache_ram_disk_miss_coalesced".into(),
            format!(
                "{} {} {} {}",
                count(Level::Ram),
                count(Level::Disk),
                count(Level::Miss),
                count(Level::Coalesced)
            ),
        ),
    ];
    Ok(Outcome {
        setup_s,
        latency_ms: stream.records.iter().map(|r| r.ms).collect(),
        traced: stream.records.iter().map(|r| r.traced).collect(),
        miss_ms: Some(
            stream
                .records
                .iter()
                .filter(|r| r.level == Level::Miss)
                .map(|r| r.ms)
                .collect(),
        ),
        wall_s: stream.wall_s,
        peak_rss_mb: crate::sys::peak_rss_mb(),
        attempted: stream.attempted,
        failed: stream.failed,
        threads: conns,
        connections: conns,
        facts,
    })
}

/// Deltas of a shard's and the router's `/metrics` counters.
fn counters(topology: &Topology) -> Result<[f64; 4], String> {
    let get = |addr: SocketAddr| -> Result<Json, String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let response = client
            .request("GET", "/metrics", "")
            .map_err(|e| e.to_string())?;
        Json::parse_bytes(&response.body).map_err(|e| e.to_string())
    };
    let num = |doc: &Json, path: &[&str]| {
        path.iter()
            .try_fold(doc, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let mut totals = [0.0; 4];
    for i in 0..SHARDS {
        let doc = get(topology.shard_addr(i))?;
        totals[0] += num(&doc, &["cache", "misses"]);
        totals[1] += num(&doc, &["store", "puts"]);
        totals[3] += num(&doc, &["shed"]);
    }
    totals[2] = num(&get(topology.addr())?, &["failovers"]);
    Ok(totals)
}

/// Median of a class of records' latencies.
fn class_p50(
    name: &str,
    stream: &Stream,
    keep: impl Fn(&Record) -> bool,
) -> Result<Metric, String> {
    let values: Vec<f64> = stream
        .records
        .iter()
        .filter(|r| keep(r))
        .map(|r| r.ms)
        .collect();
    Metric::median(name, &values, "ms")
}

/// Per-layer metrics of the serving path: a short stream at probe
/// sizes through router and shards, the router relay against direct
/// shard requests, and each stage of the request path called
/// in-process on the same request stream.
///
/// # Errors
///
/// Set-up, connection or evaluation failures.
pub fn layers(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let sizes = if cfg.smoke {
        Sizes::SMOKE
    } else {
        Sizes::PROBE
    };
    let seconds = Duration::from_millis(if cfg.smoke { 500 } else { 2000 });
    let (sets, topology) = setup(cfg.seed, sizes)?;
    let before = counters(&topology)?;
    let stream = drive(
        topology.addr(),
        &sets,
        cfg.seed,
        cfg.clients(),
        seconds,
        tracer,
    );
    let after = counters(&topology);
    let relay = relay_probe(&topology, &sets, tracer);
    topology.shutdown()?;
    let (stream, after, (via_router, direct)) = (stream?, after?, relay?);
    if stream.failed > 0 {
        return Err(format!(
            "{} failed requests in the probe stream",
            stream.failed
        ));
    }

    let n = stream.records.len().max(1) as f64;
    let share =
        |level: Level| stream.records.iter().filter(|r| r.level == level).count() as f64 / n;
    let max_shard = (0..SHARDS)
        .map(|i| stream.records.iter().filter(|r| r.shard == Some(i)).count())
        .max()
        .unwrap_or(0) as f64
        / n;
    let ram = class_p50("swserve.ram_p50_ms", &stream, |r| r.level == Level::Ram)?;
    let relay_ms = crate::stats::median(&via_router).zip(crate::stats::median(&direct));
    let (router_p50, direct_p50) = relay_ms.ok_or("relay probe: no RAM hits")?;
    let count = stream.records.len();
    let mut metrics = vec![
        ram.note("X-Cache: ram, client latency through the router"),
        class_p50("swstore.disk_p50_ms", &stream, |r| r.level == Level::Disk)?
            .note("X-Cache: disk"),
        class_p50("swnet.netlist_miss_p50_ms", &stream, |r| {
            r.level == Level::Miss && r.endpoint == Endpoint::Netlist
        })?
        .note("X-Cache: miss on /v1/netlist/eval"),
        Metric::new("swserve.ram_hit_share", share(Level::Ram), "ratio", count),
        Metric::new("swstore.disk_hit_share", share(Level::Disk), "ratio", count),
        Metric::new("swserve.miss_share", share(Level::Miss), "ratio", count),
        Metric::new(
            "swserve.coalesced_share",
            share(Level::Coalesced),
            "ratio",
            count,
        ),
        Metric::new("swrouter.max_shard_share", max_shard, "ratio", count).note("x-shard counts"),
        Metric::new(
            "swrouter.relay_ms",
            router_p50 - direct_p50,
            "ms",
            via_router.len() + direct.len(),
        )
        .note(format!(
            "RAM-hit p50 via router {router_p50:.4} ms - direct to shard {direct_p50:.4} ms"
        )),
    ];
    for (i, (name, note)) in [
        ("swserve.evaluations", "shard /metrics cache.misses delta"),
        ("swstore.puts", "shard /metrics store.puts delta"),
        (
            "swrouter.failovers",
            "router /metrics failovers delta (expected 0)",
        ),
        ("swserve.shed", "shard /metrics shed delta (expected 0)"),
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push(Metric::new(name, after[i] - before[i], "count", count).note(note));
    }
    metrics.extend(stage_probes(cfg, &sets, tracer)?);
    Ok(metrics)
}

/// RAM-hit latency of hot requests through the router and sent directly
/// to the shard that owns them, interleaved.
fn relay_probe(
    topology: &Topology,
    sets: &Sets,
    tracer: &mut Tracer,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut router = Client::connect(topology.addr()).map_err(io)?;
    let mut shards = (0..SHARDS)
        .map(|i| Client::connect(topology.shard_addr(i)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let (mut via_router, mut direct) = (Vec::new(), Vec::new());
    for (op, request) in sets.hot.iter().cycle().take(4 * sets.hot.len()).enumerate() {
        let path = request.endpoint.path();
        let (response, ms) = tracer.timed("swrouter.relay", op as u64, || {
            router.request("POST", path, &request.body)
        });
        let response = response.map_err(io)?;
        check(request, &response)?;
        let shard = response.shard.ok_or("router response without x-shard")?;
        if response.level == Level::Ram {
            via_router.push(ms);
        }
        let (response, ms) = tracer.timed("swserve.direct", op as u64, || {
            shards[shard].request("POST", path, &request.body)
        });
        let response = response.map_err(io)?;
        check(request, &response)?;
        if response.level == Level::Ram {
            direct.push(ms);
        }
    }
    Ok((via_router, direct))
}

/// Each stage of the request path, called in-process on hot, warm and
/// cold requests of the stream: parse, normalize, render the canonical
/// form, hash it, evaluate, and store get/put of the answers.
fn stage_probes(cfg: &RunConfig, sets: &Sets, tracer: &mut Tracer) -> Result<Vec<Metric>, String> {
    let per_class = if cfg.smoke { 20 } else { 300 };
    let mut rng = Rng::new(cfg.seed, 999);
    let cold: Vec<Request> = (0..per_class)
        .map(|i| cold_request(&mut rng, &format!("p{}.{i}", cfg.seed)))
        .collect();
    let sample: Vec<&Request> = sets
        .hot
        .iter()
        .cycle()
        .take(per_class)
        .chain(sets.warm.iter().cycle().take(per_class))
        .chain(cold.iter())
        .collect();
    let mut ms: [Vec<f64>; 8] = Default::default();
    let mut answers = Vec::with_capacity(sample.len());
    for (op, request) in sample.iter().enumerate() {
        let op = op as u64;
        let (parsed, t) = tracer.timed("swjson.parse", op, || Json::parse(&request.body));
        ms[0].push(t);
        let parsed = parsed.map_err(|e| e.to_string())?;
        let (canonical, t) = tracer.timed("swserve.normalize", op, || {
            request.endpoint.normalize(&parsed)
        });
        ms[1].push(t);
        let canonical = canonical.map_err(|e| e.message)?;
        let (text, t) = tracer.timed("swjson.render", op, || canonical.render());
        ms[2].push(t);
        let (key, t) = tracer.timed("swserve.content_key", op, || content_key(&text));
        ms[3].push(t);
        let (doc, t) = match request.endpoint {
            Endpoint::Gate => tracer.timed("swserve.evaluate", op, || {
                swserve::eval::evaluate(&canonical)
            }),
            Endpoint::Netlist => tracer.timed("swserve.netlist_evaluate", op, || {
                swserve::netlist::evaluate(&canonical)
            }),
        };
        ms[if request.endpoint == Endpoint::Gate {
            4
        } else {
            5
        }]
        .push(t);
        answers.push((key, doc.map_err(|e| e.message)?.render()));
    }
    let dir = crate::sys::work_dir().join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(StoreConfig::new(&dir)).map_err(|e| e.to_string())?;
    for (op, (key, body)) in answers.iter().enumerate() {
        let (put, t) = tracer.timed("swstore.put", op as u64, || {
            store.put(*key, body.as_bytes())
        });
        put.map_err(|e| e.to_string())?;
        ms[6].push(t);
    }
    for (op, (key, body)) in answers.iter().enumerate() {
        let (got, t) = tracer.timed("swstore.get", op as u64, || store.get(*key));
        if got.as_deref() != Some(body.as_bytes()) {
            return Err("store probe read back a different body".into());
        }
        ms[7].push(t);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let names = [
        ("swjson.parse_us", "Json::parse of the request body"),
        (
            "swserve.normalize_us",
            "eval::normalize / netlist::normalize",
        ),
        ("swjson.render_us", "Json::render of the canonical form"),
        (
            "swserve.content_key_us",
            "cache::content_key of the canonical text",
        ),
        (
            "swserve.evaluate_us",
            "eval::evaluate, gate endpoint requests",
        ),
        (
            "swserve.netlist_evaluate_us",
            "netlist::evaluate, netlist endpoint requests",
        ),
        ("swstore.put_us", "Store::put of the answers, temp store"),
        ("swstore.get_us", "Store::get of the answers, temp store"),
    ];
    names
        .iter()
        .zip(ms.iter())
        .map(|(&(name, note), values)| {
            let us: Vec<f64> = values.iter().map(|v| v * 1e3).collect();
            Metric::median(name, &us, "us").map(|m| m.note(note))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_sees_every_single_byte_change() {
        let body = b"{\"gate\":\"xor\"}\n".to_vec();
        for i in 0..body.len() {
            let mut changed = body.clone();
            changed[i] ^= 0x20;
            assert_ne!(fnv1a(&body), fnv1a(&changed), "byte {i}");
        }
    }

    #[test]
    fn generation_is_seeded() {
        let a = generate(5, Sizes::SMOKE).unwrap();
        let b = generate(5, Sizes::SMOKE).unwrap();
        let c = generate(6, Sizes::SMOKE).unwrap();
        let bodies = |s: &Sets| {
            s.hot
                .iter()
                .chain(&s.warm)
                .map(|r| r.body.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
    }

    #[test]
    fn check_rejects_bad_status_and_any_changed_byte() {
        let sets = generate(1, Sizes::SMOKE).unwrap();
        let request = &sets.hot[0];
        let good = Response {
            status: 200,
            level: Level::Ram,
            shard: Some(0),
            body: request.expected.as_ref().unwrap().to_vec(),
        };
        assert!(check(request, &good).is_ok());
        let mut flipped = good.body.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 1;
        assert!(check(
            request,
            &Response {
                body: flipped,
                ..good
            }
        )
        .is_err());
        let shed = Response {
            status: 429,
            level: Level::Other,
            shard: None,
            body: Vec::new(),
        };
        assert!(check(request, &shed).is_err());
    }
}
