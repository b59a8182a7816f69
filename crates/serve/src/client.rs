//! A minimal blocking HTTP/1.1 client — the other half of the hand-rolled
//! protocol, used by the cluster coordinator, peer warm-start, the
//! benchmark's HTTP door, and the integration tests.
//!
//! One [`Client`] is one (lazily re-established) keep-alive connection: a
//! request rides the open socket when there is one, and a connection the
//! server closed (idle timeout, `Connection: close`) is transparently
//! re-dialed once before the request is reported as failed.
//!
//! Every exchange is bounded: the dial uses a connect timeout, the socket
//! carries read/write timeouts, and the whole request — dial included —
//! runs under a per-request deadline, so a hung or half-dead worker can
//! never block the caller forever. The coordinator reads the
//! [`reconnects`](Client::reconnects)/[`timeouts`](Client::timeouts)
//! counters as its per-worker health view.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One HTTP exchange's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResult {
    /// The response status code.
    pub status: u16,
    /// The response body.
    pub body: String,
    /// The server's `x-request-id` correlation echo, when present.
    pub request_id: Option<String>,
}

impl HttpResult {
    /// The parsed JSON body.
    ///
    /// # Errors
    /// Returns the codec's parse error on a non-JSON body.
    pub fn json(&self) -> Result<json::Value, json::ParseError> {
        json::parse(&self.body)
    }
}

/// A keep-alive HTTP/1.1 client for one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    reconnects: usize,
    timeouts: usize,
    /// Per-request deadline: dial + write + read of one exchange must
    /// complete within this budget.
    deadline: Duration,
}

/// The default per-request deadline.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:7171"`) with the default
    /// 30-second per-request deadline.
    ///
    /// # Errors
    /// Propagates the connection failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_with_deadline(addr, DEFAULT_DEADLINE)
    }

    /// Connect with an explicit per-request deadline, which also bounds
    /// this initial dial.
    ///
    /// # Errors
    /// Propagates the connection failure (including a dial timeout).
    pub fn connect_with_deadline(addr: &str, deadline: Duration) -> io::Result<Client> {
        let mut client =
            Client { addr: addr.to_string(), stream: None, reconnects: 0, timeouts: 0, deadline };
        client.stream = Some(client.dial(deadline)?);
        Ok(client)
    }

    /// Replace the per-request deadline (dial + write + read budget).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// The per-request deadline in effect.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// How often an already-established connection had to be re-dialed.
    pub fn reconnects(&self) -> usize {
        self.reconnects
    }

    /// How many requests failed on a timeout (dial, write, or read) —
    /// the stall half of the coordinator's health view, next to
    /// [`reconnects`](Self::reconnects).
    pub fn timeouts(&self) -> usize {
        self.timeouts
    }

    fn dial(&self, remaining: Duration) -> io::Result<BufReader<TcpStream>> {
        // `TcpStream::connect` has no timeout; resolve and dial the first
        // address under the remaining request budget instead.
        let addr = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, remaining.max(Duration::from_millis(1)))?;
        stream.set_read_timeout(Some(self.deadline))?;
        stream.set_write_timeout(Some(self.deadline))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// `GET path`.
    ///
    /// # Errors
    /// Propagates connection and framing failures.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResult> {
        self.request("GET", path, None, &[])
    }

    /// `GET path` with extra request headers (e.g. the
    /// `x-consensus-trace` propagation context).
    ///
    /// # Errors
    /// Propagates connection and framing failures.
    pub fn get_with(&mut self, path: &str, headers: &[(&str, &str)]) -> io::Result<HttpResult> {
        self.request("GET", path, None, headers)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    /// Propagates connection and framing failures.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<HttpResult> {
        self.request("POST", path, Some(body), &[])
    }

    /// `POST path` with a JSON body and extra request headers (e.g. the
    /// `x-consensus-trace` propagation context stamped by the cluster
    /// coordinator on every dispatch).
    ///
    /// # Errors
    /// Propagates connection and framing failures.
    pub fn post_json_with(
        &mut self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<HttpResult> {
        self.request("POST", path, Some(body), headers)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> io::Result<HttpResult> {
        let started = Instant::now();
        for attempt in 0..2 {
            let remaining = match self.deadline.checked_sub(started.elapsed()) {
                Some(left) if !left.is_zero() => left,
                _ => {
                    self.timeouts += 1;
                    self.stream = None;
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("request deadline of {:?} exhausted", self.deadline),
                    ));
                }
            };
            if self.stream.is_none() {
                self.stream = Some(match self.dial(remaining) {
                    Ok(stream) => stream,
                    Err(e) => {
                        if is_timeout(&e) {
                            self.timeouts += 1;
                        }
                        return Err(e);
                    }
                });
                if attempt > 0 {
                    self.reconnects += 1;
                }
            }
            match self.try_request(method, path, body, headers, started) {
                Ok(result) => return Ok(result),
                Err(e) => {
                    // The server may have closed an idle keep-alive
                    // connection between requests; re-dial exactly once.
                    // A timeout is not that — the peer is stalled, and a
                    // retry would just burn the rest of the deadline.
                    self.stream = None;
                    if is_timeout(&e) {
                        self.timeouts += 1;
                        return Err(e);
                    }
                    if attempt > 0 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("attempt 1 either returned or errored")
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
        started: Instant,
    ) -> io::Result<HttpResult> {
        let deadline = self.deadline;
        let reader = self.stream.as_mut().expect("connected before request");
        // Tighten the socket timeouts to the remaining request budget, so
        // the deadline holds within (coarsely) one blocking call of slack.
        let remaining = deadline
            .checked_sub(started.elapsed())
            .filter(|left| !left.is_zero())
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "request deadline exhausted"))?;
        reader.get_ref().set_read_timeout(Some(remaining))?;
        reader.get_ref().set_write_timeout(Some(remaining))?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        match body {
            None => head.push_str("\r\n"),
            Some(body) => {
                head.push_str(&format!(
                    "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ));
            }
        }
        reader.get_mut().write_all(head.as_bytes())?;

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status: u16 =
            status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line {status_line:?}"),
                )
            })?;

        let mut content_length = 0usize;
        let mut close = false;
        let mut request_id = None;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        content_length = value.parse().map_err(|_| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("bad Content-Length {value:?}"),
                            )
                        })?;
                    }
                    "connection" if value.eq_ignore_ascii_case("close") => close = true,
                    "x-request-id" => request_id = Some(value.to_string()),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(HttpResult { status, body, request_id })
    }
}

/// Whether an I/O error is a timeout (`TimedOut`, or the `WouldBlock` some
/// platforms report for an expired socket timeout).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn deadline_bounds_a_stalled_server() {
        // A listener that accepts and then never answers: the request must
        // come back as a timeout within (roughly) the deadline, and the
        // timeout counter must tick.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = Client::connect_with_deadline(&addr, Duration::from_millis(200)).unwrap();
        let started = Instant::now();
        let err = client.get("/healthz").unwrap_err();
        assert!(is_timeout(&err), "expected a timeout, got {err}");
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(client.timeouts(), 1);
        drop(hold.join());
    }

    #[test]
    fn dead_address_fails_fast_not_forever() {
        // Bind then drop: the port refuses connections immediately.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let started = Instant::now();
        assert!(Client::connect_with_deadline(&addr, Duration::from_millis(500)).is_err());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
