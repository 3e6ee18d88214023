//! Wire format of the sweep service: a hand-rolled slice of HTTP/1.1
//! plus the JSON request/response bodies.
//!
//! The service speaks to local clients over a `TcpListener`, so the
//! protocol is deliberately small: one request per connection,
//! `Connection: close`, bodies framed by `Content-Length` on the way in
//! and by `Content-Length` (plain responses) or connection close
//! (progress streams) on the way out. No chunked encoding, no
//! keep-alive, no TLS — everything a vendored, offline dependency stack
//! can carry on `std` alone.

use crate::experiment::{OracleConfig, Scenario, ScenarioResult};
use dgsched_des::stats::StoppingRule;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on accepted request bodies. A scenario matrix is a few
/// kilobytes; anything near this limit is a malformed or hostile client.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Upper bound on one line of a message head (start line or header,
/// terminator included), so a client that never sends `\n` cannot make
/// the daemon buffer without bound.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the number of header lines in a message head.
pub const MAX_HEADERS: usize = 100;

fn default_seed() -> u64 {
    2008
}

/// Body of `POST /sweep`: one scenario-matrix request.
///
/// The cache key is derived from `(scenarios, base_seed, rule)` only —
/// see [`canonical_sweep_bytes`](crate::experiment::canonical_sweep_bytes)
/// — so the same sweep submitted by different tenants dedupes and caches
/// as one computation. `tenant` only feeds fair-share admission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRequest {
    /// The scenario matrix to run. Names must be unique (the journal
    /// keys records by name).
    pub scenarios: Vec<Scenario>,
    /// Base seed of the replication streams (default: 2008, matching
    /// `dgsched run`).
    #[serde(default = "default_seed")]
    pub base_seed: u64,
    /// Sequential stopping rule (default: the paper's 95 % / 2.5 %).
    #[serde(default)]
    pub rule: StoppingRule,
    /// Fair-share admission bucket. Requests without a tenant share the
    /// `"anonymous"` bucket.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tenant: Option<String>,
}

/// Validates a request's scenario matrix the way `dgsched run` validates
/// a scenario file, plus the journal's unique-name requirement. The
/// daemon and `dgsched run FILE` both call it, so they reject the same
/// matrices before any work starts.
pub fn validate_scenarios(scenarios: &[Scenario]) -> Result<(), String> {
    if scenarios.is_empty() {
        return Err("request contains no scenarios".to_string());
    }
    for scenario in scenarios {
        scenario.validate()?;
    }
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "scenario names must be unique (duplicate: {:?})",
            w[0]
        ));
    }
    Ok(())
}

/// The most search restarts per replication an oracle request may ask for.
/// Far above any real search (the default is 8): restart outcomes are held
/// in memory until their replication folds, so this bounds what a request
/// can make the daemon allocate.
pub const MAX_ORACLE_RESTARTS: u32 = 4096;

/// The most replications an oracle request may ask the oracle to
/// evaluate (the default is 3). Each one is a pool cell of every
/// environment group, allocated before any work starts.
pub const MAX_ORACLE_REPLICATIONS: u64 = 4096;

/// Validates an oracle request's search knobs before any work starts:
/// at least one restart, and no more restarts or replications than the
/// caps above. The daemon and `dgsched run` both call it, so they
/// reject the same knobs with the same message.
pub fn validate_oracle(ocfg: &OracleConfig) -> Result<(), String> {
    if ocfg.restarts == 0 {
        return Err("oracle.restarts must be non-zero".to_string());
    }
    if ocfg.restarts > MAX_ORACLE_RESTARTS {
        return Err(format!(
            "oracle.restarts must be at most {MAX_ORACLE_RESTARTS} (got {})",
            ocfg.restarts
        ));
    }
    if ocfg.replications > MAX_ORACLE_REPLICATIONS {
        return Err(format!(
            "oracle.replications must be at most {MAX_ORACLE_REPLICATIONS} (got {})",
            ocfg.replications
        ));
    }
    Ok(())
}

/// Body of a successful `/sweep` or `/oracle` response. Serialised once,
/// cached, and replayed byte-for-byte on every cache hit — the
/// determinism contract (same request ⇒ same bytes at any pool width) is
/// what makes cache hits trivially verifiable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResponse {
    /// The 128-bit sweep (or oracle) fingerprint the result is cached
    /// under.
    pub fingerprint: String,
    /// One result per scenario, in request order — exactly what
    /// [`run_matrix`](crate::experiment::run_matrix) would produce, or
    /// [`run_matrix_regret`](crate::experiment::run_matrix_regret) with a
    /// `regret` section on every non-saturated scenario.
    pub results: Vec<ScenarioResult>,
}

/// Body of `POST /oracle`: a sweep request plus the hindsight-oracle
/// search knobs. Cached under the oracle fingerprint — a key space
/// tagged distinctly from sweep fingerprints, so a `/sweep` and an
/// `/oracle` over the same scenarios never collide in the store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleRequest {
    /// The scenario matrix to run and score against the oracle.
    pub scenarios: Vec<Scenario>,
    /// Base seed of the replication streams (default: 2008).
    #[serde(default = "default_seed")]
    pub base_seed: u64,
    /// Sequential stopping rule for the base sweep.
    #[serde(default)]
    pub rule: StoppingRule,
    /// Search knobs: restarts, iterations, seed, replications.
    #[serde(default)]
    pub oracle: OracleConfig,
    /// Fair-share admission bucket, as on `/sweep`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tenant: Option<String>,
}

impl OracleRequest {
    /// The sweep half of the request, and its search knobs.
    pub fn into_parts(self) -> (SweepRequest, OracleConfig) {
        let sweep = SweepRequest {
            scenarios: self.scenarios,
            base_seed: self.base_seed,
            rule: self.rule,
            tenant: self.tenant,
        };
        (sweep, self.oracle)
    }
}

/// One line of a `POST /sweep?stream=1` response: progress events while
/// the sweep runs, then a final `result` line embedding the same bytes a
/// plain response would carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum StreamEvent {
    /// A scenario finished; `done` is strictly increasing.
    Progress {
        /// Scenarios completed so far.
        done: u64,
        /// Scenarios in the sweep.
        total: u64,
        /// Name of the scenario completed by this event.
        scenario: String,
    },
}

/// A parsed inbound HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent, including any query string.
    pub target: String,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Path of the target, without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// True when the query string contains the given `key=value` pair or
    /// bare `key` flag.
    pub fn query_flag(&self, key: &str) -> bool {
        let Some(query) = self.target.split_once('?').map(|(_, q)| q) else {
            return false;
        };
        query
            .split('&')
            .any(|kv| kv == key || kv.strip_prefix(key).map(|v| v.starts_with('=')) == Some(true))
    }
}

/// A parsed inbound HTTP response (the client half, used by
/// [`http_request`] and the self-test).
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code of the response line.
    pub status: u16,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

/// Case-insensitive header lookup (names are stored lowercased).
pub fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one CRLF- (or LF-) terminated line, without the terminator;
/// a line longer than [`MAX_LINE_BYTES`] is an `InvalidData` error.
fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    let n = r.take(MAX_LINE_BYTES as u64).read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-message",
        ));
    }
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(bad(format!(
            "head line exceeds the {MAX_LINE_BYTES}-byte limit"
        )));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads headers (already past the start line) until the blank line;
/// names are lowercased. More than [`MAX_HEADERS`] is an `InvalidData`
/// error.
fn read_headers<R: BufRead>(r: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() == MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} header lines")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header line: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_body<R: BufRead>(r: &mut R, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let len = match header_value(headers, "content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(format!("unparsable content-length: {v:?}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(bad(format!(
            "body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Parses one HTTP/1.1 request from the stream: start line, headers,
/// and a `Content-Length`-framed body.
pub fn read_http_request<R: BufRead>(r: &mut R) -> io::Result<HttpRequest> {
    let start = read_line(r)?;
    let mut parts = start.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(bad(format!("malformed request line: {start:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol version: {version:?}")));
    }
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(HttpRequest {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        headers,
        body,
    })
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Writes a complete `Content-Length`-framed response and flushes it.
pub fn write_http_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        status_reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Writes the head of a close-delimited streaming response (no
/// `Content-Length`; the body ends when the connection closes). The
/// caller then writes JSONL event lines.
pub fn write_http_stream_head<W: Write>(
    w: &mut W,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\ncontent-type: {content_type}\r\nconnection: close\r\n"
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.flush()
}

fn write_request_head<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body_len: usize,
) -> io::Result<()> {
    write!(
        w,
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {body_len}\r\nconnection: close\r\n"
    )?;
    for (name, value) in headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")
}

fn read_response_head<R: BufRead>(r: &mut R) -> io::Result<(u16, Vec<(String, String)>)> {
    let start = read_line(r)?;
    let status = start
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("malformed status line: {start:?}")))?;
    Ok((status, read_headers(r)?))
}

/// Minimal blocking HTTP client: one request, one response, connection
/// closed. The body is read to `Content-Length` when present, else to
/// EOF (the framing the service's streaming responses use). Used by the
/// `serve --check` self-test and the integration tests.
pub fn http_request(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write_request_head(&mut writer, method, target, headers, body.len())?;
    writer.write_all(body)?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    let body = match header_value(&headers, "content-length") {
        Some(v) => {
            let len = v
                .parse::<usize>()
                .map_err(|_| bad(format!("unparsable content-length: {v:?}")))?;
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// What [`http_request_streaming`] yields: status, response headers, and
/// the reader positioned at the first body line.
pub type StreamingResponse = (u16, Vec<(String, String)>, BufReader<TcpStream>);

/// [`http_request`] for streaming endpoints: sends the request, parses
/// the response head, and hands back the reader positioned at the first
/// body line so the caller can consume JSONL events as they arrive.
pub fn http_request_streaming(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<StreamingResponse> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    write_request_head(&mut writer, method, target, headers, body.len())?;
    writer.write_all(body)?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    Ok((status, headers, reader))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        canonical_oracle_bytes, canonical_sweep_bytes, fingerprint_canonical, oracle_fingerprint,
        sweep_fingerprint, KeySpace,
    };
    use crate::serve::server::check_request;
    use std::io::Cursor;
    use std::time::{Duration, Instant};

    /// Text that puts multi-byte UTF-8 right against every escape the
    /// writer emits, so each unescaped run starts or ends at an escape.
    const MIXED: &str = "é\"日本\\😀\nß\u{1}\t\"\"\\x\u{1f}€";

    #[test]
    fn request_round_trips_through_the_parser() {
        let wire = b"POST /sweep?stream=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_http_request(&mut Cursor::new(&wire[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/sweep");
        assert!(req.query_flag("stream"));
        assert!(!req.query_flag("str"));
        assert_eq!(header_value(&req.headers, "HOST"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let wire = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_http_request(&mut Cursor::new(&wire[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for wire in [
            &b"FROB\r\n\r\n"[..],
            &b"GET / SPDY/3\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nno-colon\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\ncontent-length: zap\r\n\r\n"[..],
        ] {
            assert!(
                read_http_request(&mut Cursor::new(wire)).is_err(),
                "accepted {wire:?}"
            );
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let wire = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = read_http_request(&mut Cursor::new(wire.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn head_lines_are_capped() {
        let head = |len: usize| {
            let mut wire = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
            wire.resize(wire.len() + len, b'a');
            wire.extend_from_slice(b"\r\n\r\n");
            wire
        };
        // A header line of exactly the limit, terminator included, parses.
        let fits = MAX_LINE_BYTES - "x-pad: \r\n".len();
        let req = read_http_request(&mut Cursor::new(head(fits))).unwrap();
        assert_eq!(header_value(&req.headers, "x-pad").unwrap().len(), fits);
        // One byte more does not, and neither does a megabyte.
        for len in [fits + 1, 1 << 20] {
            let err = read_http_request(&mut Cursor::new(head(len))).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}: {err}");
            assert!(err.to_string().contains("limit"), "{err}");
        }
        // The start line is capped the same way.
        let mut wire = b"GET /".to_vec();
        wire.resize(64 << 10, b'a');
        let err = read_http_request(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_count_is_capped() {
        let head = |count: usize| {
            let mut wire = "GET /healthz HTTP/1.1\r\n".to_string();
            for i in 0..count {
                wire += &format!("x-h{i}: v\r\n");
            }
            wire += "\r\n";
            wire.into_bytes()
        };
        let req = read_http_request(&mut Cursor::new(head(MAX_HEADERS))).unwrap();
        assert_eq!(req.headers.len(), MAX_HEADERS);
        let err = read_http_request(&mut Cursor::new(head(MAX_HEADERS + 1))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header lines"), "{err}");
    }

    #[test]
    fn response_writer_frames_by_content_length() {
        let mut out = Vec::new();
        write_http_response(&mut out, 200, "application/json", &[("x-k", "v")], b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("x-k: v\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn strings_round_trip_through_the_codec() {
        for text in [
            "",
            "\"",
            "\\",
            "a",
            "é",
            "😀\"",
            "\\😀",
            MIXED,
            &MIXED.repeat(3),
        ] {
            let wire = serde_json::to_string(text).unwrap();
            let back: String = serde_json::from_str(&wire).unwrap();
            assert_eq!(back, text, "via {wire}");
            let back: String = serde_json::from_slice(wire.as_bytes()).unwrap();
            assert_eq!(back, text, "via {wire}");
        }
        // Escapes the writer never emits: `\/`, `\b`, `\f`, `\u00XX` and
        // a surrogate pair, at the start, middle and end of a string.
        for (wire, want) in [
            (r#""\u00e9""#, "é"),
            (r#""\u00e9é\u00e9""#, "ééé"),
            (r#""x\ud83d\ude00""#, "x😀"),
            (r#""\ud83d\ude00😀\/""#, "😀😀/"),
            (r#""\b\f\r日""#, "\u{8}\u{c}\r日"),
            (r#""""#, ""),
        ] {
            let back: String = serde_json::from_str(wire).unwrap();
            assert_eq!(back, want, "via {wire}");
        }
    }

    #[test]
    fn unterminated_strings_and_escapes_fail() {
        for (wire, want) in [
            (r#"""#, "unterminated string"),
            (r#""abc"#, "unterminated string"),
            (r#""é😀"#, "unterminated string"),
            (r#""a\"b"#, "unterminated string"),
            (r#""abc\"#, "unterminated escape"),
            (r#""é\"#, "unterminated escape"),
            (r#""\u00e"#, "\\u escape"),
            (r#""\ud83d""#, "unpaired surrogate"),
            (r#""\q""#, "invalid escape"),
        ] {
            let err = serde_json::from_str::<String>(wire).unwrap_err();
            assert!(err.to_string().contains(want), "{wire}: {err}");
        }
    }

    /// A request with escape- and UTF-8-heavy names and tenant.
    fn mixed_request() -> SweepRequest {
        let mut req = check_request();
        for (i, s) in req.scenarios.iter_mut().enumerate() {
            s.name = format!("{i}:{MIXED}{}", s.name);
        }
        req.tenant = Some(MIXED.to_string());
        req
    }

    #[test]
    fn decoded_requests_canonicalise_to_the_same_bytes() {
        let req = mixed_request();
        let wire = serde_json::to_vec(&req).unwrap();
        let back: SweepRequest = serde_json::from_slice(&wire).unwrap();
        assert_eq!(serde_json::to_vec(&back).unwrap(), wire);
        assert_eq!(
            canonical_sweep_bytes(&back.scenarios, back.base_seed, &back.rule).unwrap(),
            canonical_sweep_bytes(&req.scenarios, req.base_seed, &req.rule).unwrap()
        );
    }

    /// The daemon fingerprints the canonical bytes it already holds; the
    /// answer must be the public functions' answer, and neither may
    /// drift, or every cache entry on disk goes cold.
    #[test]
    fn fingerprints_are_pinned() {
        let req = check_request();
        let (s, seed, rule) = (&req.scenarios, req.base_seed, &req.rule);
        let ocfg = OracleConfig::default();
        let sweep = sweep_fingerprint(s, seed, rule).unwrap();
        let oracle = oracle_fingerprint(s, seed, rule, &ocfg).unwrap();
        assert_eq!(sweep, "fb94d2ce12663213f2c7c6ece28fdc8b");
        assert_eq!(oracle, "ddb2247a3fd31ca69994e462e6b1f5bc");
        let canonical = canonical_sweep_bytes(s, seed, rule).unwrap();
        assert_eq!(fingerprint_canonical(KeySpace::Sweep, &canonical), sweep);
        let canonical = canonical_oracle_bytes(s, seed, rule, &ocfg).unwrap();
        assert_eq!(fingerprint_canonical(KeySpace::Oracle, &canonical), oracle);
    }

    /// Decoding is linear in the body: a string-heavy ~1 MiB request
    /// takes milliseconds. A decoder that rescans the rest of the input
    /// per character needs tens of seconds.
    #[test]
    fn string_heavy_request_decodes_in_linear_time() {
        let mut req = mixed_request();
        for s in &mut req.scenarios {
            s.name = s.name.repeat((512 << 10) / s.name.len());
        }
        let wire = serde_json::to_vec(&req).unwrap();
        assert!(wire.len() > 1 << 20, "{} bytes", wire.len());
        let start = Instant::now();
        let back: SweepRequest = serde_json::from_slice(&wire).unwrap();
        let took = start.elapsed();
        assert_eq!(back.scenarios[1].name, req.scenarios[1].name);
        assert!(
            took < Duration::from_secs(1),
            "{} bytes took {took:?}",
            wire.len()
        );
    }

    #[test]
    fn sweep_request_defaults_apply() {
        let req: SweepRequest = serde_json::from_str(r#"{"scenarios":[]}"#).unwrap();
        assert_eq!(req.base_seed, 2008);
        assert_eq!(
            req.rule.max_relative_error,
            StoppingRule::default().max_relative_error
        );
        assert!(req.tenant.is_none());
    }
}
