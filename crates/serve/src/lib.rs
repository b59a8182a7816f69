//! **The consensus service** — a multi-threaded HTTP solvability query
//! service over the lab's [`Session`](consensus_lab::session::Session)
//! facade.
//!
//! The sweep engine answers the paper's question — *is consensus solvable
//! under adversary `A` at resolution `d`?* — one process at a time. This
//! crate turns that machinery into an always-warm network oracle: a single
//! long-lived `Session` (shared space cache, optional persistent verdict
//! journal) behind a bounded worker pool, so the first query pays for the
//! expansion and every later query — from any connection — is a cache hit.
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing over `std::net` (the build
//!   environment is registry-less; no tokio/hyper);
//! * [`server`] — acceptor + bounded worker-thread pool, keep-alive,
//!   graceful shutdown;
//! * [`api`] — the endpoints (`POST /v1/check`, `POST /v1/sweep` with an
//!   optional `"shard":"i/n"` slice, `GET /v1/journal/segment`,
//!   `GET /v1/catalog`, `GET /v1/stats`, `GET /healthz`, `GET /metrics`
//!   with an optional `?format=prometheus`), per-request ids + tracing
//!   spans, and the typed [`Error`](consensus_core::error::Error) →
//!   structured `4xx`/`5xx` mapping;
//! * [`metrics`] — the app's own [`consensus_obs`] registry, recorded
//!   once per request: a latency histogram per endpoint
//!   (`http.request.<endpoint>`, plus `http.request.unrouted`), whose
//!   counts are the request counts; the counters `http.errors_4xx`,
//!   `http.errors_5xx` and `http.connections.accepted`; and the gauge
//!   `http.connections.active`. Also the one JSON encoding of a registry
//!   snapshot and its decoder, shared by `/metrics`, `/v1/stats` and the
//!   cluster's fleet fold;
//! * [`client`] — a minimal keep-alive client.
//!
//! The `consensus-lab` binary (grown in `crates/lab`, moved here when it
//! gained the service subcommands, and now living in `crates/cluster`
//! above the coordinator) exposes all of this as `consensus-lab serve`.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use consensus_serve::api::App;
//! use consensus_serve::client::Client;
//! use consensus_serve::server::{ServeConfig, Server};
//! use consensus_lab::session::Session;
//!
//! let app = Arc::new(App::new(Session::new()));
//! let server = Server::bind(app, &ServeConfig::default()).unwrap();
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//! let answer = client
//!     .post_json("/v1/check", r#"{"adversary":"cgp-reduced-lossy-link","depth":3}"#)
//!     .unwrap();
//! assert_eq!(answer.status, 200);
//! assert!(answer.body.contains("\"verdict\":\"solvable\""));
//! server.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod metrics;
pub mod server;

pub use api::{App, Response};
pub use client::{Client, HttpResult};
pub use metrics::Metrics;
pub use server::{ServeConfig, Server};
