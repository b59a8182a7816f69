//! The multi-threaded TCP server: an acceptor thread feeding a bounded
//! pool of connection workers over a condvar-backed queue, with keep-alive
//! connection handling and graceful shutdown.
//!
//! Built on `std::net` alone (the environment is registry-less — no
//! tokio/hyper), which shapes the design: blocking reads with a read
//! timeout bound how long an idle keep-alive connection can pin a worker,
//! and shutdown wakes the blocked acceptor by connecting to its own
//! listener.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use consensus_core::error::Error;

use crate::api::{App, Response};
use crate::http::{self, HttpError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, in-process
    /// benches).
    pub addr: String,
    /// Worker threads handling connections (`0` = available parallelism).
    pub threads: usize,
    /// How long a worker blocks on an idle keep-alive connection before
    /// closing it (also the granularity at which workers notice shutdown
    /// mid-connection).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            read_timeout: Duration::from_secs(5),
        }
    }
}

impl ServeConfig {
    /// The worker count with `0` resolved to available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        }
    }
}

/// Upper bound on connections waiting for a worker; connections beyond it
/// are shed with a `503` instead of queueing (each queued connection holds
/// an open fd — an unbounded queue turns a connection flood into fd
/// exhaustion).
const MAX_PENDING_CONNECTIONS: usize = 1024;

/// The accepted-connection queue feeding the worker pool.
#[derive(Debug, Default)]
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    /// Enqueue a connection, or hand it back when the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut pending = self.pending.lock().expect("queue lock poisoned");
        if pending.len() >= MAX_PENDING_CONNECTIONS {
            return Err(stream);
        }
        pending.push_back(stream);
        drop(pending);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop a connection, blocking until one arrives or shutdown is
    /// signalled (`None` = drain complete, worker should exit).
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut pending = self.pending.lock().expect("queue lock poisoned");
        loop {
            if let Some(stream) = pending.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(pending, Duration::from_millis(50))
                .expect("queue lock poisoned");
            pending = guard;
        }
    }
}

/// A running server; dropping without [`stop`](Server::stop)/
/// [`wait`](Server::wait) detaches the threads (the process exits anyway).
#[derive(Debug)]
pub struct Server {
    app: Arc<App>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start the acceptor plus the worker pool.
    ///
    /// # Errors
    /// Returns [`Error::Io`] when the address cannot be bound.
    pub fn bind(app: Arc<App>, cfg: &ServeConfig) -> Result<Server, Error> {
        // A restarted server races its predecessor's TIME_WAIT sockets on
        // the same port (std's TcpListener does not set SO_REUSEADDR, and
        // this workspace forbids the unsafe needed to set it by hand), so
        // retry AddrInUse briefly instead of failing the restart.
        let mut listener = TcpListener::bind(&cfg.addr);
        for _ in 0..20 {
            match &listener {
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    std::thread::sleep(Duration::from_millis(250));
                    listener = TcpListener::bind(&cfg.addr);
                }
                _ => break,
            }
        }
        let listener = listener.map_err(|e| Error::io(format!("binding {}", cfg.addr), e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::io(format!("resolving local address of {}", cfg.addr), e))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue::default());

        let acceptor = {
            let app = Arc::clone(&app);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            app.metrics().connection_accepted();
                            if let Err(mut shed) = queue.push(stream) {
                                // Overloaded: shed the connection with a
                                // 503 rather than queueing unboundedly.
                                let response = Response::error(
                                    503,
                                    "overloaded",
                                    "connection queue full; retry later",
                                );
                                let _ = write(&mut shed, &response, false);
                            }
                        }
                        // Transient accept failures (per-connection
                        // resets, fd exhaustion) must not kill the server —
                        // but some (EMFILE) persist, so back off instead of
                        // spinning the acceptor at 100% CPU.
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                queue.ready.notify_all();
            })
        };

        let workers = (0..cfg.effective_threads())
            .map(|_| {
                let app = Arc::clone(&app);
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&shutdown);
                let read_timeout = cfg.read_timeout;
                std::thread::spawn(move || {
                    while let Some(stream) = queue.pop(&shutdown) {
                        handle_connection(&app, stream, read_timeout, &shutdown);
                    }
                })
            })
            .collect();

        Ok(Server { app, addr, shutdown, acceptor: Some(acceptor), workers })
    }

    /// The bound address (the actual port when `addr` asked for `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Signal shutdown and join every thread: in-flight requests complete,
    /// queued connections drain, new connections stop being accepted.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    /// Block until the server exits (i.e. until another handle — or a
    /// signal-induced process death — ends it). The CLI foreground path.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Serve one connection: keep-alive request loop until the peer closes,
/// framing fails, the idle timeout fires, or shutdown is signalled.
fn handle_connection(app: &App, stream: TcpStream, read_timeout: Duration, shutdown: &AtomicBool) {
    let _active = app.metrics().connection_active();
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // No shutdown check before the read: a connection popped during
        // shutdown drains — its already-sent request is answered (with
        // `Connection: close`) rather than reset.
        match http::read_request(&mut reader) {
            Ok(None) => return,
            Ok(Some(request)) => {
                let response = app.handle(&request);
                // Shutdown closes after the in-flight answer, not before.
                let keep_alive = request.keep_alive && !shutdown.load(Ordering::SeqCst);
                if write(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(HttpError::Io(_)) => return, // peer gone or idle timeout
            Err(HttpError::Bad(message)) => {
                let response = Response::error(400, "bad-request", &message);
                let _ = write(&mut writer, &response, false);
                return;
            }
            Err(HttpError::TooLarge(what)) => {
                let response =
                    Response::error(413, "too-large", &format!("request too large: {what}"));
                let _ = write(&mut writer, &response, false);
                return;
            }
        }
    }
}

fn write(writer: &mut impl Write, response: &Response, keep_alive: bool) -> std::io::Result<()> {
    http::write_response_with(
        writer,
        response.status,
        response.content_type,
        &response.headers,
        response.body.as_bytes(),
        keep_alive,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::tests::serial;
    use crate::client::Client;
    use consensus_lab::session::Session;

    fn start(threads: usize) -> Server {
        let cfg = ServeConfig { threads, ..ServeConfig::default() };
        Server::bind(Arc::new(App::new(Session::new())), &cfg).unwrap()
    }

    #[test]
    fn serves_keep_alive_requests_on_one_connection() {
        let _serial = serial();
        let server = start(2);
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        for _ in 0..3 {
            let result = client.get("/healthz").unwrap();
            assert_eq!(result.status, 200);
            assert!(result.body.contains("\"ok\""));
        }
        assert_eq!(client.reconnects(), 0, "keep-alive must reuse the connection");
        let metrics = json::parse(&client.get("/metrics").unwrap().body).unwrap();
        let registry = metrics.get("registry").unwrap();
        let accepted = registry.get("counters").unwrap().get_usize("http.connections.accepted");
        assert_eq!(accepted, Some(1));
        // The connection serving this very page is the one active.
        let active = registry.get("gauges").unwrap().get_usize("http.connections.active");
        assert_eq!(active, Some(1));
        // Close the connection before stopping so the worker is not left
        // blocked in an idle read for the full timeout.
        drop(client);
        server.stop();
    }

    #[test]
    fn answers_in_flight_then_refuses_after_stop() {
        let _serial = serial();
        let server = start(1);
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        server.stop();
        let mut fresh = Client::connect(&addr);
        let dead = match fresh.as_mut() {
            Err(_) => true, // nothing listening any more
            Ok(client) => client.get("/healthz").is_err(),
        };
        assert!(dead, "a stopped server must not answer new connections");
    }

    #[test]
    fn malformed_requests_get_a_400_and_a_closed_connection() {
        use std::io::{Read, Write};
        let _serial = serial();
        let server = start(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"total nonsense\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        server.stop();
    }
}
