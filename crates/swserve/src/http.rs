//! A minimal HTTP/1.1 layer over `std::net` — just enough for a JSON
//! service and its clients: request and response parsing with
//! `Content-Length` framed bodies, keep-alive, and response writing. No
//! chunked encoding, no TLS, no pipelining (each request is fully
//! answered before the next is read, which HTTP/1.1 permits).
//!
//! Inputs come off the network, so everything is bounded: start lines
//! and headers are capped, bodies are capped (a server answers 413), and
//! malformed framing produces an error instead of a hang or a panic. The
//! server reads requests with [`read_request`]; the router's backend
//! pool, the benchmark client and the integration tests read responses
//! with [`read_response`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Largest accepted request body (1 MiB — JSON requests are tiny).
pub const MAX_BODY: usize = 1 << 20;
/// Largest accepted response body: the request bound with headroom for
/// large netlist responses.
pub const MAX_RESPONSE_BODY: usize = 8 << 20;
/// Largest accepted start line (request or status line) or header line.
pub const MAX_LINE: usize = 8 << 10;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;

/// The first header named `name` (lowercase) in a parsed header list.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// The path, e.g. `/v1/gate/eval` (query strings are not split off —
    /// the API doesn't use them).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// True if the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The exact body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Response {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before (or between) messages.
    Closed,
    /// The socket read timed out (idle keep-alive tick; retry or close).
    TimedOut,
    /// The message is malformed; for a request the text is safe to echo
    /// in a 400.
    Malformed(String),
    /// The body exceeds [`MAX_BODY`] (requests, answer 413) or
    /// [`MAX_RESPONSE_BODY`] (responses).
    BodyTooLarge,
    /// An underlying socket error.
    Io(std::io::Error),
}

impl From<ReadError> for std::io::Error {
    /// The error as an `io::Error`, for clients that report socket
    /// failures and protocol failures alike.
    fn from(e: ReadError) -> std::io::Error {
        use std::io::{Error, ErrorKind};
        match e {
            ReadError::Closed => Error::new(ErrorKind::UnexpectedEof, "connection closed"),
            ReadError::TimedOut => Error::new(ErrorKind::TimedOut, "read timed out"),
            ReadError::Malformed(m) => Error::new(ErrorKind::InvalidData, m),
            ReadError::BodyTooLarge => Error::new(ErrorKind::InvalidData, "body too large"),
            ReadError::Io(e) => e,
        }
    }
}

/// Reads one CRLF- (or LF-) terminated line of at most [`MAX_LINE`]
/// bytes, without the terminator.
fn read_line(reader: &mut impl BufRead) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(ReadError::Closed);
                }
                return Err(ReadError::Malformed("truncated line".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| ReadError::Malformed("non-UTF-8 in message head".into()));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(ReadError::Malformed("line too long".into()));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if line.is_empty() {
                    return Err(ReadError::TimedOut);
                }
                // A partial line followed by a timeout: treat as io so
                // the caller drops the connection rather than spinning.
                return Err(ReadError::Io(e));
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// Reads header lines up to the blank line that ends the head: at most
/// [`MAX_HEADERS`], each `name: value`, names lowercased.
fn read_headers(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ReadError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed("too many headers".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads the `Content-Length` framed body (none without the header) of
/// at most `max_body` bytes.
fn read_body(
    reader: &mut impl BufRead,
    headers: &[(String, String)],
    max_body: usize,
) -> Result<Vec<u8>, ReadError> {
    let length = match find_header(headers, "content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad content-length `{v}`")))?,
    };
    if length > max_body {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ReadError::Malformed("truncated body".into())
        } else {
            ReadError::Io(e)
        }
    })?;
    Ok(body)
}

/// Reads one request off the stream. Blocks until a request arrives,
/// the stream's read timeout fires, or the peer disconnects.
///
/// # Errors
///
/// See [`ReadError`]; `Malformed` and `BodyTooLarge` deserve an HTTP
/// error response, the rest close the connection.
pub fn read_request(stream: &TcpStream) -> Result<Request, ReadError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    let headers = read_headers(&mut reader)?;
    let body = read_body(&mut reader, &headers, MAX_BODY)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads one response: an `HTTP/1.x` status line, headers and a
/// `Content-Length` framed body of at most [`MAX_RESPONSE_BODY`] bytes.
/// It never reads past the body, so a reader made per response loses
/// nothing on a connection where each request is answered before the
/// next is sent.
///
/// # Errors
///
/// See [`ReadError`]: `Closed` when the peer closed before the status
/// line, `Malformed` for anything that does not parse, `BodyTooLarge`
/// past the bound.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, ReadError> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| ReadError::Malformed(format!("bad status in `{status_line}`")))?,
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad status line `{status_line}`"
            )))
        }
    };
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers, MAX_RESPONSE_BODY)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// The reason phrase of `status` for a response's status line
/// (`"Response"` for a code this service never sends). The one table:
/// the router relays shard statuses with it too.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes a JSON response. `extra` headers are emitted verbatim (e.g.
/// `("X-Cache", "hit")`, `("Retry-After", "1")`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    extra: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason_phrase(status),
        body.len() + 1
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    // Trailing newline so `curl` output ends cleanly; counted above.
    stream.write_all(b"\n")?;
    stream.flush()
}

/// A ready-made `{"error": ...}` body.
pub fn error_body(message: &str) -> String {
    swjson::Json::obj([("error", swjson::Json::str(message))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        (client.join().unwrap(), server)
    }

    #[test]
    fn parses_a_post_with_body() {
        let (mut client, server) = pair();
        client
            .write_all(b"POST /v1/gate/eval HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        let request = read_request(&server).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/gate/eval");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(!request.wants_close());
    }

    #[test]
    fn rejects_malformed_framing() {
        let cases: &[&[u8]] = &[
            b"NONSENSE\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: hat\r\n\r\n",
        ];
        for case in cases {
            let (mut client, server) = pair();
            client.write_all(case).unwrap();
            drop(client);
            assert!(
                matches!(read_request(&server), Err(ReadError::Malformed(_))),
                "{} must be malformed",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn rejects_oversized_bodies_cleanly() {
        let (mut client, server) = pair();
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        client.write_all(head.as_bytes()).unwrap();
        assert!(matches!(
            read_request(&server),
            Err(ReadError::BodyTooLarge)
        ));
    }

    #[test]
    fn eof_before_any_request_is_closed() {
        let (client, server) = pair();
        drop(client);
        assert!(matches!(read_request(&server), Err(ReadError::Closed)));
    }

    #[test]
    fn truncated_body_is_malformed_not_a_hang() {
        let (mut client, server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
            .unwrap();
        drop(client);
        assert!(matches!(
            read_request(&server),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn written_responses_parse_back() {
        let (mut client, mut server_stream) = pair();
        let body = r#"{"ok":true}"#;
        write_json(&mut server_stream, 200, &[("X-Cache", "hit")], body, true).unwrap();
        drop(server_stream);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(raw.contains("x-cache: hit\r\n") || raw.contains("X-Cache: hit\r\n"));
        assert!(raw.ends_with("{\"ok\":true}\n"), "{raw}");
    }

    #[test]
    fn reads_a_response_and_stops_at_its_body() {
        let raw =
            b"HTTP/1.1 200 OK\r\nX-Cache: ram\r\ncontent-length: 12\r\n\r\n{\"ok\":true}\nnext";
        let mut reader = &raw[..];
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("x-cache"), Some("ram"));
        assert_eq!(response.body, b"{\"ok\":true}\n");
        assert_eq!(reader, b"next", "the reader stops at the end of the body");
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        let long_line = format!("HTTP/1.1 200 {}\r\n\r\n", "x".repeat(MAX_LINE + 1));
        let oversize = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_RESPONSE_BODY + 1
        );
        let many_headers = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            "a: b\r\n".repeat(MAX_HEADERS + 1)
        );
        let malformed = |e: &ReadError| matches!(e, ReadError::Malformed(_));
        type Case<'a> = (&'a str, &'a [u8], fn(&ReadError) -> bool);
        let cases: [Case; 12] = [
            ("empty input", b"", |e| matches!(e, ReadError::Closed)),
            (
                "garbage status line",
                b"TOTALLY NOT HTTP\r\n\r\n",
                malformed,
            ),
            ("no status code", b"HTTP/1.1\r\n\r\n", malformed),
            ("non-numeric status", b"HTTP/1.1 OK 200\r\n\r\n", malformed),
            (
                "HTTP/2",
                b"HTTP/2 200 OK\r\ncontent-length: 0\r\n\r\n",
                malformed,
            ),
            (
                "header without a colon",
                b"HTTP/1.1 200 OK\r\nbad header\r\n\r\n",
                malformed,
            ),
            (
                "non-numeric content-length",
                b"HTTP/1.1 200 OK\r\ncontent-length: hat\r\n\r\n",
                malformed,
            ),
            (
                "content-length past usize",
                b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999\r\n\r\n",
                malformed,
            ),
            ("content-length past the bound", oversize.as_bytes(), |e| {
                matches!(e, ReadError::BodyTooLarge)
            }),
            (
                "truncated body",
                b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort",
                malformed,
            ),
            ("line over MAX_LINE", long_line.as_bytes(), malformed),
            ("too many headers", many_headers.as_bytes(), malformed),
        ];
        for (what, raw, expected) in cases {
            match read_response(&mut &raw[..]) {
                Err(e) => assert!(expected(&e), "{what}: unexpected error {e:?}"),
                Ok(r) => panic!("{what}: parsed as {r:?}"),
            }
        }
    }

    #[test]
    fn error_body_is_json() {
        let body = error_body("no such gate");
        assert_eq!(body, r#"{"error":"no such gate"}"#);
    }
}
