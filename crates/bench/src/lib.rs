//! Shared helpers for the benchmark binaries.
//!
//! The `parbench` reports (`BENCH_batch.json`, `BENCH_rhs.json`,
//! `BENCH_serve.json`, ...) use machine-readable JSON envelopes so downstream
//! tooling can parse them uniformly. The grid-sweep benchmarks share one
//! envelope shape ([`write_bench_json`]); other benchmarks assemble their
//! own document and write it through [`write_report`]. The [`httpc`]
//! module is the tiny blocking HTTP/1.1 client the `swserve` loadtest and
//! smoke probe drive the server with.

use swrun::json::Json;

/// Assembles the common benchmark-report envelope, with the machine's
/// hardware thread count (`cpus`), writes it to `out` with a trailing
/// newline, and prints the path.
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_bench_json(out: &str, benchmark: &str, unit: &str, reference: &str, grids: Vec<Json>) {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let report = Json::obj([
        ("benchmark", Json::str(benchmark)),
        ("unit", Json::str(unit)),
        ("reference", Json::str(reference)),
        ("cpus", Json::Num(cpus as f64)),
        ("grids", Json::Arr(grids)),
    ]);
    write_report(out, &report);
}

/// Writes any JSON benchmark report to `out` with a trailing newline and
/// prints the path. Use this for reports whose shape doesn't fit the
/// grid-sweep envelope of [`write_bench_json`].
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_report(out: &str, report: &Json) {
    std::fs::write(out, report.render() + "\n").expect("failed to write report");
    println!("wrote {out}");
}

/// A minimal blocking HTTP/1.1 client over `std::net`, just enough to
/// drive the `swserve` API: keep-alive connections, `Content-Length`
/// framed bodies, lowercase header access.
pub mod httpc {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// One parsed response.
    #[derive(Debug)]
    pub struct Response {
        /// The HTTP status code.
        pub status: u16,
        /// Header name/value pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// The body with the server's cosmetic trailing newline removed.
        pub body: String,
    }

    impl Response {
        /// The first header with this (lowercase) name.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        }
    }

    /// A keep-alive connection to the server.
    pub struct Client {
        stream: TcpStream,
    }

    impl Client {
        /// Connects with a generous read timeout.
        ///
        /// # Errors
        ///
        /// Propagates connection failures.
        pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            Ok(Client { stream })
        }

        /// Issues one request and reads the response, reusing the
        /// connection (keep-alive).
        ///
        /// # Errors
        ///
        /// Socket failures and malformed responses surface as
        /// `io::Error`.
        pub fn request(
            &mut self,
            method: &str,
            path: &str,
            body: &str,
        ) -> std::io::Result<Response> {
            let head = format!(
                "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            self.stream.write_all(head.as_bytes())?;
            self.stream.write_all(body.as_bytes())?;
            self.read_response()
        }

        fn read_line(&mut self) -> std::io::Result<String> {
            let mut line = Vec::new();
            let mut byte = [0u8; 1];
            loop {
                let n = self.stream.read(&mut byte)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ));
                }
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line).map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 header")
                    });
                }
                line.push(byte[0]);
            }
        }

        fn read_response(&mut self) -> std::io::Result<Response> {
            let status_line = self.read_line()?;
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad status line `{status_line}`"),
                    )
                })?;
            let mut headers = Vec::new();
            loop {
                let line = self.read_line()?;
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                }
            }
            let length: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse().ok())
                .ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
                })?;
            let mut body = vec![0u8; length];
            self.stream.read_exact(&mut body)?;
            let mut body = String::from_utf8(body).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body")
            })?;
            if body.ends_with('\n') {
                body.pop();
            }
            Ok(Response {
                status,
                headers,
                body,
            })
        }
    }
}
