//! The backend side of the router: bounded keep-alive connection pools
//! and a minimal HTTP/1.1 client just big enough to relay swserve's
//! JSON responses byte for byte.
//!
//! Each [`Backend`] keeps one connection pool: a small stack of idle `TcpStream`s
//! that previous requests left open. A forward checks out an idle
//! connection when one exists (the common case under keep-alive load),
//! otherwise dials fresh; connections whose response said
//! `connection: keep-alive` go back into the pool, up to the bound —
//! extras are simply closed. A pooled connection that fails mid-request
//! is indistinguishable from a dead shard *from one sample*, so the
//! caller retries once on a fresh dial before declaring the backend
//! down (see [`Backend::request`]).

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use swserve::http::{self, ReadError, Response};

/// Why a backend request failed (all of them are retryable on another
/// shard; none leave a half-written client response).
#[derive(Debug)]
pub enum ProxyError {
    /// Dial, write, or read failure.
    Io(std::io::Error),
    /// The shard answered bytes that do not parse as HTTP/1.1.
    BadResponse(String),
}

impl From<ReadError> for ProxyError {
    /// Unparseable or oversized responses are bad responses; a closed,
    /// timed-out or failed socket is an I/O failure.
    fn from(e: ReadError) -> ProxyError {
        match e {
            ReadError::Malformed(m) => ProxyError::BadResponse(m),
            ReadError::BodyTooLarge => ProxyError::BadResponse(format!(
                "response body exceeds the relay bound of {} bytes",
                http::MAX_RESPONSE_BODY
            )),
            e => ProxyError::Io(e.into()),
        }
    }
}

impl std::fmt::Display for ProxyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyError::Io(e) => write!(f, "io: {e}"),
            ProxyError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

/// One shard as the router sees it: address, health flag, connection
/// pool, and per-backend counters.
#[derive(Debug)]
pub struct Backend {
    addr: SocketAddr,
    healthy: AtomicBool,
    idle: Mutex<VecDeque<TcpStream>>,
    pool_cap: usize,
    /// Requests this shard answered.
    pub forwarded: AtomicU64,
    /// Pooled connections that died and were replaced by a fresh dial.
    pub stale_retries: AtomicU64,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl Backend {
    /// A backend with an empty pool, initially presumed healthy.
    pub fn new(addr: SocketAddr, pool_cap: usize, io_timeout: Duration) -> Backend {
        Backend {
            addr,
            healthy: AtomicBool::new(true),
            idle: Mutex::new(VecDeque::new()),
            pool_cap: pool_cap.max(1),
            forwarded: AtomicU64::new(0),
            stale_retries: AtomicU64::new(0),
            connect_timeout: Duration::from_millis(500),
            io_timeout,
        }
    }

    /// The shard's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health verdict.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Flip the health flag; returns the previous value so callers can
    /// count transitions.
    pub fn set_healthy(&self, healthy: bool) -> bool {
        self.healthy.swap(healthy, Ordering::SeqCst)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.idle.lock().expect("pool poisoned").pop_front()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("pool poisoned");
        if idle.len() < self.pool_cap {
            idle.push_back(stream);
        } // else: drop — the bound is the point.
    }

    /// Idle connections currently pooled (for metrics).
    pub fn pooled(&self) -> usize {
        self.idle.lock().expect("pool poisoned").len()
    }

    fn dial(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        Ok(stream)
    }

    /// Sends `raw` (a fully serialized request) and reads one response.
    /// Tries a pooled keep-alive connection first; if that fails — a
    /// stale keep-alive is expected after idle periods — retries once on
    /// a fresh dial. Only a fresh-dial failure is evidence the shard is
    /// actually down, and that verdict is the caller's to act on.
    ///
    /// # Errors
    ///
    /// [`ProxyError`] once both the pooled and fresh attempts failed.
    pub fn request(&self, raw: &[u8]) -> Result<Response, ProxyError> {
        if let Some(stream) = self.checkout() {
            match round_trip(stream, raw, self) {
                Ok(response) => return Ok(response),
                Err(_) => {
                    // Stale pooled connection; fall through to a fresh dial.
                    self.stale_retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let stream = self.dial().map_err(ProxyError::Io)?;
        round_trip(stream, raw, self)
    }

    /// A quick liveness probe: `GET /healthz` answering 200.
    pub fn probe(&self) -> bool {
        let raw = b"GET /healthz HTTP/1.1\r\nhost: router\r\nconnection: keep-alive\r\n\r\n";
        match self.dial() {
            Ok(stream) => matches!(round_trip(stream, raw, self), Ok(r) if r.status == 200),
            Err(_) => false,
        }
    }
}

/// One request/response exchange on `stream`, the response read through
/// the shared reader, which enforces the `HTTP/1.` status line,
/// well-formed headers and the relay bound
/// ([`http::MAX_RESPONSE_BODY`]). When the shard keeps the connection
/// alive the stream goes back into the backend's pool.
fn round_trip(
    mut stream: TcpStream,
    raw: &[u8],
    backend: &Backend,
) -> Result<Response, ProxyError> {
    stream.write_all(raw).map_err(ProxyError::Io)?;
    stream.flush().map_err(ProxyError::Io)?;
    let response = http::read_response(&mut BufReader::new(&stream))?;
    backend.forwarded.fetch_add(1, Ordering::Relaxed);
    if response
        .header("connection")
        .is_some_and(|value| value.eq_ignore_ascii_case("keep-alive"))
    {
        backend.checkin(stream);
    }
    Ok(response)
}

/// Serializes a request for relaying: same method/path/body, explicit
/// content-length, keep-alive.
pub fn serialize_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: shard\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
        body.len()
    );
    let mut raw = Vec::with_capacity(head.len() + body.len());
    raw.extend_from_slice(head.as_bytes());
    raw.extend_from_slice(body);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    /// A tiny one-shot HTTP responder for exercising the client side.
    fn fake_shard(responses: Vec<String>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for response in responses {
                // Swallow one request's head + body (requests are tiny).
                let mut buffer = [0u8; 4096];
                let _ = stream.read(&mut buffer);
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        addr
    }

    fn response(status: u16, body: &str, keep_alive: bool) -> String {
        format!(
            "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\ncontent-length: {}\r\nx-cache: ram\r\nconnection: {}\r\n\r\n{body}",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
    }

    #[test]
    fn keep_alive_responses_return_the_connection_to_the_pool() {
        let body = "{\"ok\":true}\n";
        let addr = fake_shard(vec![response(200, body, true), response(200, body, true)]);
        let backend = Backend::new(addr, 4, Duration::from_secs(2));
        let raw = serialize_request("POST", "/v1/gate/eval", b"{}");
        let first = backend.request(&raw).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, body.as_bytes());
        assert_eq!(first.header("x-cache"), Some("ram"));
        assert_eq!(backend.pooled(), 1, "keep-alive connection pooled");
        backend.request(&raw).unwrap();
        assert_eq!(
            backend.forwarded.load(Ordering::Relaxed),
            2,
            "second request reused the pooled connection"
        );
    }

    #[test]
    fn close_responses_do_not_pool() {
        let addr = fake_shard(vec![response(200, "{}\n", false)]);
        let backend = Backend::new(addr, 4, Duration::from_secs(2));
        backend
            .request(&serialize_request("GET", "/healthz", b""))
            .unwrap();
        assert_eq!(backend.pooled(), 0);
    }

    #[test]
    fn stale_pooled_connection_retries_on_a_fresh_dial() {
        // First exchange pools the connection, then the shard thread
        // exits, closing it. A second listener on the same port is not
        // possible, so use two serial exchanges on one listener instead:
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            // Exchange 1: answer keep-alive, then DROP the connection.
            {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buffer = [0u8; 4096];
                let _ = stream.read(&mut buffer);
                stream
                    .write_all(response(200, "{}\n", true).as_bytes())
                    .unwrap();
            } // dropped: pooled connection is now stale
              // Exchange 2: accept the retry dial.
            let (mut stream, _) = listener.accept().unwrap();
            let mut buffer = [0u8; 4096];
            let _ = stream.read(&mut buffer);
            stream
                .write_all(response(200, "{\"retried\":true}\n", true).as_bytes())
                .unwrap();
        });
        let backend = Backend::new(addr, 4, Duration::from_secs(2));
        let raw = serialize_request("POST", "/v1/gate/eval", b"{}");
        backend.request(&raw).unwrap();
        assert_eq!(backend.pooled(), 1);
        let second = backend.request(&raw).unwrap();
        assert_eq!(second.body, b"{\"retried\":true}\n");
        assert_eq!(backend.stale_retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dead_shard_is_an_error_not_a_hang() {
        // Bind then drop a listener: the port is (very likely) closed.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let backend = Backend::new(addr, 2, Duration::from_millis(300));
        let result = backend.request(&serialize_request("GET", "/healthz", b""));
        assert!(result.is_err());
        assert!(!backend.probe());
    }
}
