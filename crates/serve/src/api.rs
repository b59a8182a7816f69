//! The service API: routing and JSON request/response shapes over one
//! shared [`Session`].
//!
//! Every data-plane request is answered by the *same* long-lived
//! [`Session`] — that is the point of the service: the first query warms
//! the in-memory [`SpaceCache`](consensus_lab::cache::SpaceCache) (and the
//! verdict journal, when configured), and every request after it is a
//! cache hit. [`App`] is [`Sync`]; the server's worker threads share one
//! instance behind an [`std::sync::Arc`].
//!
//! | Method | Path          | Body                                   | Answer |
//! |--------|---------------|----------------------------------------|--------|
//! | POST   | `/v1/check`   | one query object                       | the [`ScenarioRecord`](consensus_lab::store::ScenarioRecord) JSON |
//! | POST   | `/v1/sweep`   | a grid (`catalog`+`max_depth` or `queries`), optional `"shard":"i/n"` | `records` + `meta` |
//! | GET    | `/v1/journal/segment` | —                              | the verdict journal as an absorbable warm-start segment |
//! | GET    | `/v1/trace?since=ID` | —                               | this worker's span-ring fragment past the cursor (non-destructive) |
//! | GET    | `/v1/catalog` | —                                      | the built-in adversary registry |
//! | GET    | `/v1/stats`   | —                                      | the metrics snapshot plus tracer state |
//! | GET    | `/healthz`    | —                                      | liveness |
//! | GET    | `/metrics`    | —                                      | the metrics snapshot plus the session's cache counters (JSON) |
//! | GET    | `/metrics?format=prometheus` | —                       | the metrics snapshot as Prometheus text |
//!
//! The metrics snapshot is the process-global [`consensus_obs`] registry
//! merged with the app's own request metrics
//! ([`Metrics::snapshot`](crate::metrics::Metrics::snapshot)); both JSON
//! pages carry it as `registry`, encoded by
//! [`snapshot_to_json`].
//!
//! Every request gets a process-unique id, carried as the `id` attribute
//! of its `http.request` trace span and (when request logging is enabled,
//! as the `serve` subcommand does) echoed in one structured completion
//! line on stderr. Every response also carries an `x-request-id` header
//! (propagated from the request when supplied, generated otherwise), and
//! an `x-consensus-trace` request header parents the request's span under
//! the remote caller — see [`App::handle`].
//!
//! Failures are structured: `{"error":{"status":…,"kind":…,"message":…}}`,
//! with the status class decided by [`Error::status_code`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use consensus_core::error::Error;
use consensus_lab::report::SweepMeta;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind, Shard};
use consensus_lab::session::{Query, Session};
use consensus_obs::prom;
use consensus_obs::trace::{trace_id, tracer, TraceContext, TRACE_HEADER};
use json::Value;

use crate::http::Request;
use crate::metrics::{requests_total, round3, snapshot_to_json, Endpoint, Metrics};

/// Refuse `/v1/sweep` grids larger than this many scenarios — a bound on
/// per-request work, not a scalability limit (shard bigger grids across
/// requests, exactly as the CLI shards them across processes).
pub const MAX_SWEEP_SCENARIOS: usize = 65_536;

/// One HTTP answer: a status, a body, its content type, and any extra
/// response headers (the `x-request-id` correlation echo).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The `Content-Type` of the body (`application/json` for every
    /// route except the Prometheus exposition).
    pub content_type: &'static str,
    /// Extra response header fields, written verbatim after the framing
    /// headers (today: the `x-request-id` echo stamped by
    /// [`App::handle`]).
    pub headers: Vec<(String, String)>,
}

/// The default body content type.
const JSON_CONTENT_TYPE: &str = "application/json";

impl Response {
    /// A `200` with the given JSON body.
    pub fn ok(body: String) -> Self {
        Response { status: 200, body, content_type: JSON_CONTENT_TYPE, headers: Vec::new() }
    }

    /// A `200` with a plain-text body of the given content type.
    pub fn text(body: String, content_type: &'static str) -> Self {
        Response { status: 200, body, content_type, headers: Vec::new() }
    }

    /// A structured error payload; see the module docs.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        let body = Value::Obj(vec![(
            "error".into(),
            Value::Obj(vec![
                ("status".into(), Value::Int(i64::from(status))),
                ("kind".into(), Value::Str(kind.to_string())),
                ("message".into(), Value::Str(message.to_string())),
            ]),
        )]);
        Response {
            status,
            body: body.to_string(),
            content_type: JSON_CONTENT_TYPE,
            headers: Vec::new(),
        }
    }

    /// The structured form of a typed facade [`Error`], via its
    /// [`status_code`](Error::status_code)/[`kind`](Error::kind) mapping.
    pub fn from_error(err: &Error) -> Self {
        Response::error(err.status_code(), err.kind(), &err.to_string())
    }
}

/// The routable application: one shared warm [`Session`] plus telemetry.
#[derive(Debug)]
pub struct App {
    session: Session,
    metrics: Metrics,
    /// The `/v1/catalog` payload, rendered once — the registry is static
    /// for the process lifetime, so requests must not rebuild every
    /// adversary just to re-serialize an identical body.
    catalog_body: String,
    /// The next request id — process-unique, monotone, shared by the
    /// `http.request` span and the request log line.
    next_request_id: AtomicU64,
    /// Emit one structured completion line per request on stderr (the
    /// `serve` subcommand turns this on; tests and benches stay quiet).
    log_requests: bool,
}

impl App {
    /// An app answering from `session`.
    pub fn new(session: Session) -> Self {
        App {
            session,
            metrics: Metrics::new(),
            catalog_body: render_catalog(),
            next_request_id: AtomicU64::new(1),
            log_requests: false,
        }
    }

    /// Enable (or disable) the per-request completion log line.
    #[must_use]
    pub fn log_requests(mut self, enabled: bool) -> Self {
        self.log_requests = enabled;
        self
    }

    /// The shared session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The service telemetry (the server layer records connections here).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Route and answer one request, recording telemetry: the latency
    /// histograms, an `http.request` span carrying the request id (which
    /// parents any session spans the handler opens on this thread), and
    /// optionally one structured completion line.
    ///
    /// Distributed context: an `x-consensus-trace` request header (see
    /// [`TraceContext`]) parents this request's span under the remote
    /// caller — directly via [`consensus_obs::trace::Tracer::span_under`]
    /// when the caller shares
    /// this process's trace id (the in-process cluster shape), or as
    /// `remote_trace`/`remote_parent` span attributes a coordinator uses
    /// to re-parent the stitched fragment. An `x-request-id` header is
    /// echoed on the response (generated when absent), so cluster retry
    /// and rebalance log lines correlate with worker completion lines.
    pub fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        let request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
        let remote = request.header(TRACE_HEADER).and_then(TraceContext::parse);
        let mut span = match remote {
            Some(ctx) if ctx.is_local() => {
                tracer().span_under("http.request", Some(ctx.parent_span))
            }
            _ => tracer().span("http.request"),
        };
        span.set_attr("id", request_id);
        span.set_attr("method", request.method.as_str());
        span.set_attr("target", request.target.as_str());
        if let Some(ctx) = remote.filter(|ctx| !ctx.is_local()) {
            // A foreign caller: record its context so a coordinator can
            // re-parent this fragment when stitching the cluster trace.
            span.set_attr("remote_trace", format!("{:032x}", ctx.trace_id));
            span.set_attr("remote_parent", ctx.parent_span);
        }
        let echo_id = match request.header("x-request-id") {
            Some(supplied) => supplied.to_string(),
            // Prefix the per-process counter with the trace id's top 32
            // bits so ids stay unique across a fleet of workers.
            None => format!("{:08x}-{request_id}", (trace_id() >> 96) as u32),
        };
        let (endpoint, mut response) = self.route(request);
        response.headers.push(("x-request-id".into(), echo_id.clone()));
        let elapsed = start.elapsed();
        span.set_attr("endpoint", endpoint.map_or("-", Endpoint::name));
        span.set_attr("status", u64::from(response.status));
        drop(span);
        self.metrics.record(endpoint, response.status, elapsed);
        if self.log_requests {
            let line = Value::Obj(vec![
                ("event".into(), Value::Str("http.request".into())),
                ("id".into(), Value::Int(request_id as i64)),
                ("request_id".into(), Value::Str(echo_id)),
                ("method".into(), Value::Str(request.method.clone())),
                ("target".into(), Value::Str(request.target.clone())),
                ("endpoint".into(), Value::Str(endpoint.map_or("-", Endpoint::name).to_string())),
                ("status".into(), Value::Int(i64::from(response.status))),
                ("dur_us".into(), Value::Int(elapsed.as_micros().min(i64::MAX as u128) as i64)),
            ]);
            eprintln!("{line}");
        }
        response
    }

    fn route(&self, request: &Request) -> (Option<Endpoint>, Response) {
        let method = request.method.as_str();
        // Split the origin-form target into path and query (`/metrics` is
        // the only route that reads its query string today).
        let (path, query) = request
            .target
            .split_once('?')
            .map_or((request.target.as_str(), ""), |(p, q)| (p, q));
        match path {
            "/v1/check" => {
                (Some(Endpoint::Check), self.expect_post(method, request, |body| self.check(body)))
            }
            "/v1/sweep" => {
                (Some(Endpoint::Sweep), self.expect_post(method, request, |body| self.sweep(body)))
            }
            "/v1/journal/segment" => {
                (Some(Endpoint::Segment), self.expect_get(method, Self::journal_segment))
            }
            "/v1/trace" => {
                let response = if method == "GET" {
                    self.trace_body(query)
                } else {
                    Response::error(405, "method-not-allowed", "use GET")
                };
                (Some(Endpoint::Trace), response)
            }
            "/v1/catalog" => (Some(Endpoint::Catalog), self.expect_get(method, Self::catalog)),
            "/v1/stats" => (Some(Endpoint::Stats), self.expect_get(method, Self::stats_body)),
            "/healthz" => (Some(Endpoint::Healthz), self.expect_get(method, Self::healthz)),
            "/metrics" if query.split('&').any(|kv| kv == "format=prometheus") => {
                (Some(Endpoint::Metrics), self.expect_get(method, Self::metrics_prometheus))
            }
            "/metrics" => (Some(Endpoint::Metrics), self.expect_get(method, Self::metrics_body)),
            other => (None, Response::error(404, "not-found", &format!("no route for {other:?}"))),
        }
    }

    fn expect_post(
        &self,
        method: &str,
        request: &Request,
        handler: impl FnOnce(&Value) -> Response,
    ) -> Response {
        if method != "POST" {
            return Response::error(405, "method-not-allowed", "use POST");
        }
        let text = match request.body_str() {
            Ok(text) => text,
            Err(e) => return Response::error(400, "bad-body", &e.to_string()),
        };
        match json::parse(text) {
            Ok(value) => handler(&value),
            Err(e) => Response::error(400, "bad-body", &e.to_string()),
        }
    }

    fn expect_get(&self, method: &str, handler: impl FnOnce(&Self) -> Response) -> Response {
        if method != "GET" {
            return Response::error(405, "method-not-allowed", "use GET");
        }
        handler(self)
    }

    fn check(&self, body: &Value) -> Response {
        let query = match parse_query(body) {
            Ok(query) => query,
            Err(response) => return response,
        };
        match self.session.check(&query) {
            Ok(record) => {
                let mut body = String::new();
                record.write_to(&mut body);
                Response::ok(body)
            }
            Err(err) => Response::from_error(&err),
        }
    }

    fn sweep(&self, body: &Value) -> Response {
        let (entries, shard) = match parse_sweep(body) {
            Ok(parsed) => parsed,
            Err(response) => return response,
        };
        if shard.is_some() {
            self.metrics.shard_request();
        }
        let report = self.session.check_many_indexed(&entries);
        // The same counters a CLI sweep writes to sweep-meta.json — note
        // the cache block (disk hits included, filled in by the runner) is
        // the session-cumulative view, matching `/metrics`.
        let meta = SweepMeta {
            scenarios: entries.len(),
            threads: report.threads,
            cache: report.cache,
            expand: report.expand,
        };
        // The text of `{"records": [...], "meta": ...}`, with each record
        // appended straight into the body.
        let mut body = String::from("{\"records\":[");
        for (i, record) in report.store.records().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            record.write_to(&mut body);
        }
        body.push_str("],\"meta\":");
        meta.to_json().write_to(&mut body);
        body.push('}');
        Response::ok(body)
    }

    fn catalog(&self) -> Response {
        Response::ok(self.catalog_body.clone())
    }

    /// `GET /v1/journal/segment`: this worker's verdict journal as one
    /// absorbable segment — the peer tier of the memory → disk → peer
    /// warm-start ladder (`serve --warm-from` on the receiving side). The
    /// payload carries the journal [`cache_salt`](consensus_lab::persist::cache_salt)
    /// so the receiver can refuse segments from a different code version,
    /// exactly as it refuses a stale local journal. A worker running
    /// without a cache directory answers `{"enabled": false}` and no
    /// entries.
    fn journal_segment(&self) -> Response {
        self.metrics.segment_served();
        let (enabled, entries) = match self.session.disk_cache() {
            None => (false, Vec::new()),
            Some(disk) => (true, disk.export_entries()),
        };
        Response::ok(
            Value::Obj(vec![
                ("enabled".into(), Value::Bool(enabled)),
                ("salt".into(), Value::Str(consensus_lab::persist::cache_salt())),
                ("count".into(), Value::Int(entries.len() as i64)),
                ("entries".into(), Value::Arr(entries)),
            ])
            .to_string(),
        )
    }

    /// `GET /v1/trace?since=ID`: this worker's span-ring fragment — every
    /// finished span with id greater than `since` (default 0), oldest
    /// first, **without** disturbing the ring (so it composes with a
    /// concurrent `--trace-out` flusher). The payload carries the
    /// process trace id (hex), the tracer's enabled flag, the `dropped`
    /// overwrite counter, and a `cursor` (the max id returned, or the
    /// request's `since` when nothing is new) the caller resumes from —
    /// the drain half of cross-node trace stitching.
    fn trace_body(&self, query: &str) -> Response {
        let mut since = 0u64;
        for kv in query.split('&').filter(|kv| !kv.is_empty()) {
            let Some(("since", value)) = kv.split_once('=') else {
                return Response::error(400, "bad-request", &format!("unknown query {kv:?}"));
            };
            since = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Response::error(
                        400,
                        "bad-request",
                        &format!("\"since\" must be a span id, got {value:?}"),
                    );
                }
            };
        }
        let t = tracer();
        let spans = t.spans_since(since);
        let cursor = spans.iter().map(|s| s.id).max().unwrap_or(since);
        // SpanRecord::to_jsonl already renders each span as one JSON
        // object — splice them into the array verbatim.
        let mut body = format!(
            "{{\"trace_id\":\"{:032x}\",\"enabled\":{},\"dropped\":{},\"cursor\":{cursor},\
             \"spans\":[",
            trace_id(),
            t.is_enabled(),
            t.dropped(),
        );
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&span.to_jsonl());
        }
        body.push_str("]}");
        Response::ok(body)
    }

    fn healthz(&self) -> Response {
        Response::ok(
            Value::Obj(vec![
                ("status".into(), Value::Str("ok".into())),
                ("uptime_ms".into(), Value::Float(round3(self.metrics.uptime_ms()))),
            ])
            .to_string(),
        )
    }

    /// The cache hierarchy, exactly as a SweepReport accounts it: space
    /// counters from the shared SpaceCache, scenario-level disk hits from
    /// the journal.
    fn cache_stats(&self) -> consensus_lab::cache::CacheStats {
        let mut stats = self.session.space_cache().stats();
        if let Some(disk) = self.session.disk_cache() {
            stats.disk_hits = disk.hits();
        }
        stats
    }

    /// The fields that open both JSON metrics pages: uptime, the request
    /// total and the snapshot itself.
    fn snapshot_fields(&self) -> Vec<(String, Value)> {
        let snap = self.metrics.snapshot();
        vec![
            ("uptime_ms".into(), Value::Float(round3(self.metrics.uptime_ms()))),
            ("requests_total".into(), Value::Int(requests_total(&snap) as i64)),
            ("registry".into(), snapshot_to_json(&snap)),
        ]
    }

    /// `GET /metrics`: the metrics snapshot plus the session's cache and
    /// journal counters.
    fn metrics_body(&self) -> Response {
        let mut fields = self.snapshot_fields();
        let stats = self.cache_stats();
        fields.push((
            "cache".into(),
            Value::Obj(vec![
                ("hits".into(), Value::Int(stats.hits as i64)),
                ("builds".into(), Value::Int(stats.builds as i64)),
                ("ladder_hits".into(), Value::Int(stats.ladder_hits as i64)),
                ("disk_hits".into(), Value::Int(stats.disk_hits as i64)),
                ("budget_misses".into(), Value::Int(stats.budget_misses as i64)),
            ]),
        ));
        let disk = match self.session.disk_cache() {
            None => Value::Obj(vec![("enabled".into(), Value::Bool(false))]),
            Some(disk) => Value::Obj(vec![
                ("enabled".into(), Value::Bool(true)),
                ("loaded".into(), Value::Int(disk.loaded() as i64)),
                ("hits".into(), Value::Int(disk.hits() as i64)),
                ("stores".into(), Value::Int(disk.stores() as i64)),
            ]),
        };
        fields.push(("disk".into(), disk));
        Response::ok(Value::Obj(fields).to_string())
    }

    /// `GET /v1/stats`: the metrics snapshot plus tracer counters — what
    /// the cluster coordinator folds into its fleet snapshot.
    fn stats_body(&self) -> Response {
        let mut fields = self.snapshot_fields();
        let t = tracer();
        fields.push((
            "trace".into(),
            Value::Obj(vec![
                ("enabled".into(), Value::Bool(t.is_enabled())),
                ("spans_started".into(), Value::Int(t.spans_started() as i64)),
                ("dropped".into(), Value::Int(t.dropped() as i64)),
            ]),
        ));
        Response::ok(Value::Obj(fields).to_string())
    }

    /// `GET /metrics?format=prometheus`: uptime, the metrics snapshot
    /// through [`prom::write_snapshot`], and the session's cache counters,
    /// as Prometheus text exposition (version 0.0.4).
    fn metrics_prometheus(&self) -> Response {
        let mut out = String::new();
        prom::write_type(&mut out, "consensus_uptime_ms", "gauge");
        prom::write_sample(&mut out, "consensus_uptime_ms", &[], round3(self.metrics.uptime_ms()));
        prom::write_snapshot(&mut out, &self.metrics.snapshot());
        let stats = self.cache_stats();
        prom::write_type(&mut out, "consensus_cache_events_total", "counter");
        for (kind, value) in [
            ("hits", stats.hits),
            ("builds", stats.builds),
            ("ladder_hits", stats.ladder_hits),
            ("disk_hits", stats.disk_hits),
            ("budget_misses", stats.budget_misses),
        ] {
            prom::write_sample(
                &mut out,
                "consensus_cache_events_total",
                &[("kind", kind)],
                value as f64,
            );
        }
        Response::text(out, prom::CONTENT_TYPE)
    }
}

fn render_catalog() -> String {
    let entries: Vec<Value> = adversary::catalog::entries()
        .iter()
        .map(|entry| {
            let ma = entry.build();
            Value::Obj(vec![
                ("name".into(), Value::Str(entry.name.to_string())),
                ("n".into(), Value::Int(ma.n() as i64)),
                ("compact".into(), Value::Bool(ma.is_compact())),
                (
                    "expected".into(),
                    Value::Str(
                        match entry.expected {
                            Some(true) => "solvable",
                            Some(false) => "unsolvable",
                            None => "mixed",
                        }
                        .to_string(),
                    ),
                ),
                ("summary".into(), Value::Str(entry.summary.to_string())),
                ("spec".into(), Value::Str(entry.spec.to_string())),
            ])
        })
        .collect();
    Value::Obj(vec![("entries".into(), Value::Arr(entries))]).to_string()
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "bad-request", message)
}

fn object_keys<'a>(value: &'a Value, allowed: &[&str]) -> Result<&'a [(String, Value)], Response> {
    let Value::Obj(fields) = value else {
        return Err(bad_request("request body must be a JSON object"));
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(bad_request(&format!(
                "unknown field {key:?} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(fields)
}

/// Parse one query object: `{"spec": term, depth, [analysis],
/// [certificate]}` — the
/// shared spec language ([`adversary::spec`]) used by `consensus-lab check
/// --spec`. The pre-redesign vocabulary (`"adversary"` for catalog names,
/// `"pool"`/`"eventually"`/`"by"` for 2-process pools) is kept as compat
/// aliases lowering to the same terms, so alias and `"spec"` requests for
/// one adversary produce byte-identical records — with one intentional
/// tightening: an `"eventually"` target absent from the `"pool"` word is
/// now a 400 (the shared `eventually(pool, target)` rule), where the
/// pre-redesign path silently checked a vacuous adversary admitting no
/// sequence at all (see [`AdversarySpec::pool`]).
fn parse_query(value: &Value) -> Result<Query, Response> {
    object_keys(
        value,
        &[
            "spec",
            "adversary",
            "pool",
            "eventually",
            "by",
            "depth",
            "analysis",
            "certificate",
        ],
    )?;
    let spec = match (value.get("spec"), value.get("adversary"), value.get("pool")) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
            return Err(bad_request(
                "\"spec\" and the \"adversary\"/\"pool\" compat aliases are mutually exclusive",
            ));
        }
        (Some(spec), None, None) => {
            if value.get("eventually").is_some() || value.get("by").is_some() {
                return Err(bad_request(
                    "\"eventually\"/\"by\" only apply to \"pool\" queries — spell the liveness \
                     inside \"spec\" (e.g. \"eventually(<->, by=2)\")",
                ));
            }
            let Some(spec) = spec.as_str() else {
                return Err(bad_request("\"spec\" must be a spec-language string"));
            };
            AdversarySpec::parse(spec).map_err(|e| Response::from_error(&e))?
        }
        (None, Some(_), Some(_)) => {
            return Err(bad_request("\"adversary\" and \"pool\" are mutually exclusive"));
        }
        (None, Some(name), None) => {
            if value.get("eventually").is_some() || value.get("by").is_some() {
                return Err(bad_request("\"eventually\"/\"by\" only apply to \"pool\" queries"));
            }
            match name.as_str() {
                Some(name) => AdversarySpec::catalog(name),
                None => return Err(bad_request("\"adversary\" must be a catalog name string")),
            }
        }
        (None, None, Some(word)) => {
            let Some(word) = word.as_str() else {
                return Err(bad_request("\"pool\" must be a graph-word string"));
            };
            let eventually = match value.get("eventually") {
                None => {
                    if value.get("by").is_some() {
                        return Err(bad_request("\"by\" requires \"eventually\""));
                    }
                    None
                }
                Some(target) => {
                    let Some(target) = target.as_str() else {
                        return Err(bad_request("\"eventually\" must be a graph-token string"));
                    };
                    let deadline = match value.get("by") {
                        None => None,
                        Some(_) => Some(value.get_usize("by").ok_or_else(|| {
                            bad_request("\"by\" must be a non-negative round number")
                        })?),
                    };
                    Some((target.to_string(), deadline))
                }
            };
            AdversarySpec::pool(word, eventually.as_ref().map(|(t, by)| (t.as_str(), *by)))
                .map_err(|e| Response::from_error(&e))?
        }
        (None, None, None) => {
            return Err(bad_request(
                "query needs \"spec\", \"adversary\" (catalog name), or \"pool\"",
            ));
        }
    };
    let depth = value
        .get_usize("depth")
        .ok_or_else(|| bad_request("query needs a non-negative integer \"depth\""))?;
    let analysis = match value.get("analysis") {
        None => AnalysisKind::Solvability,
        Some(name) => {
            let Some(name) = name.as_str() else {
                return Err(bad_request("\"analysis\" must be an analysis-name string"));
            };
            AnalysisKind::parse(name).map_err(|e| Response::from_error(&e))?
        }
    };
    let certificate = match value.get("certificate") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err(bad_request("\"certificate\" must be a boolean")),
    };
    let query = Query::new(spec, depth, analysis);
    Ok(if certificate {
        query.with_certificate()
    } else {
        query
    })
}

/// A parsed sweep body: the globally indexed queries to run (already
/// restricted to the requested shard, when one was given) plus that
/// shard.
type SweepRequest = (Vec<(usize, Query)>, Option<Shard>);

/// Parse a sweep body into globally indexed queries: either an explicit
/// `"queries"` array (indices are array positions) or the catalog grid
/// (`"catalog": true` + `"max_depth"` + optional `"analyses"`), whose
/// indices — and therefore whose records — match `consensus-lab sweep`
/// exactly. An optional `"shard": "i/n"` field (the CLI `--shard`
/// grammar, via [`Shard::parse`]) restricts the computed slice while
/// keeping the *global* indices, so shard responses from different
/// workers merge byte-stably.
fn parse_sweep(value: &Value) -> Result<SweepRequest, Response> {
    let fields = object_keys(value, &["queries", "catalog", "max_depth", "analyses", "shard"])?;
    let shard = match value.get("shard") {
        None => None,
        Some(spec) => {
            let Some(spec) = spec.as_str() else {
                return Err(bad_request("\"shard\" must be an \"i/n\" string"));
            };
            Some(Shard::parse(spec).map_err(|e| Response::from_error(&e))?)
        }
    };
    let grid_fields = fields.len() - usize::from(shard.is_some());
    let queries = if let Some(list) = value.get("queries") {
        if grid_fields > 1 {
            return Err(bad_request("\"queries\" excludes the catalog-grid fields"));
        }
        let Value::Arr(items) = list else {
            return Err(bad_request("\"queries\" must be an array of query objects"));
        };
        let mut queries = Vec::with_capacity(items.len());
        for item in items {
            queries.push(parse_query(item)?);
        }
        queries
    } else {
        if value.get("catalog").and_then(Value::as_bool) != Some(true) {
            return Err(bad_request("sweep needs \"queries\" or \"catalog\": true"));
        }
        let max_depth = value
            .get_usize("max_depth")
            .ok_or_else(|| bad_request("catalog sweep needs an integer \"max_depth\""))?;
        let analyses = match value.get("analyses") {
            None => AnalysisKind::ALL.to_vec(),
            Some(Value::Arr(names)) => {
                let mut kinds = Vec::with_capacity(names.len());
                for name in names {
                    let Some(name) = name.as_str() else {
                        return Err(bad_request("\"analyses\" must be analysis-name strings"));
                    };
                    kinds.push(AnalysisKind::parse(name).map_err(|e| Response::from_error(&e))?);
                }
                kinds
            }
            Some(_) => return Err(bad_request("\"analyses\" must be an array")),
        };
        Query::catalog_grid(max_depth, &analyses)
    };
    if queries.is_empty() {
        return Err(bad_request("sweep grid is empty"));
    }
    if queries.len() > MAX_SWEEP_SCENARIOS {
        return Err(bad_request(&format!(
            "sweep grid of {} scenarios exceeds the per-request bound of {MAX_SWEEP_SCENARIOS}; \
             shard it across requests",
            queries.len()
        )));
    }
    let grid_len = queries.len();
    let entries: Vec<(usize, Query)> = queries
        .into_iter()
        .enumerate()
        .filter(|(i, _)| shard.as_ref().is_none_or(|shard| shard.selects(*i)))
        .collect();
    if entries.is_empty() {
        return Err(bad_request(&format!(
            "shard {} selects no scenarios from a grid of {grid_len}",
            shard.expect("only a shard can empty a non-empty grid")
        )));
    }
    Ok((entries, shard))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn request(method: &str, target: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn app() -> App {
        App::new(Session::new())
    }

    /// The tracer is process-global, and a span opened while one test has
    /// it on records when it closes, even after that test turned it off
    /// and drained the ring. So every test that handles requests (each
    /// opens spans) or toggles the tracer holds this lock for its whole
    /// run. A panicked holder must not wedge the rest.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn check_answers_a_record() {
        let _serial = serial();
        let app = app();
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"adversary":"cgp-reduced-lossy-link","depth":3,"analysis":"solvability"}"#,
        ));
        assert_eq!(response.status, 200, "{}", response.body);
        let record = json::parse(&response.body).unwrap();
        assert_eq!(record.get("verdict").unwrap().as_str(), Some("solvable"));
        assert_eq!(record.get_usize("index"), Some(0));
    }

    #[test]
    fn check_defaults_to_solvability_and_accepts_pools() {
        let _serial = serial();
        let app = app();
        let response =
            app.handle(&request("POST", "/v1/check", r#"{"pool":"-> <- <->","depth":2}"#));
        assert_eq!(response.status, 200, "{}", response.body);
        let record = json::parse(&response.body).unwrap();
        assert_eq!(record.get("analysis").unwrap().as_str(), Some("solvability"));
        // The label is the canonical (sorted) spec string.
        assert_eq!(record.get("adversary").unwrap().as_str(), Some("pool(<- -> <->)"));
    }

    #[test]
    fn spec_field_and_compat_aliases_answer_identical_records() {
        use consensus_lab::store::TIMING_FIELDS;
        let _serial = serial();
        let app = app();
        // Each alias body and its spec-language spelling must produce
        // byte-identical records (modulo timing fields).
        for (alias_body, spec_body) in [
            (
                r#"{"adversary":"cgp-reduced-lossy-link","depth":2}"#,
                r#"{"spec":"catalog(cgp-reduced-lossy-link)","depth":2}"#,
            ),
            (r#"{"pool":"-> <- <->","depth":2}"#, r#"{"spec":"pool(<-> <- ->)","depth":2}"#),
            (
                r#"{"pool":"-> <- <->","eventually":"<->","by":2,"depth":2}"#,
                r#"{"spec":"eventually(-> <- <->, <->, by=2)","depth":2}"#,
            ),
        ] {
            let alias = app.handle(&request("POST", "/v1/check", alias_body));
            assert_eq!(alias.status, 200, "{alias_body} → {}", alias.body);
            let spec = app.handle(&request("POST", "/v1/check", spec_body));
            assert_eq!(spec.status, 200, "{spec_body} → {}", spec.body);
            assert_eq!(
                json::parse(&alias.body).unwrap().without_keys(TIMING_FIELDS),
                json::parse(&spec.body).unwrap().without_keys(TIMING_FIELDS),
                "{alias_body} vs {spec_body}"
            );
        }
    }

    #[test]
    fn alias_liveness_target_outside_pool_is_a_400() {
        let _serial = serial();
        // Intentional tightening of the alias surface (see parse_query):
        // the pre-redesign path accepted this shape and checked a vacuous
        // adversary; the shared lowering rejects it like eventually(..)
        // does, with a typed spec error.
        let app = app();
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"pool":"-> <-","eventually":"<->","depth":2}"#,
        ));
        assert_eq!(response.status, 400, "{}", response.body);
        let err = json::parse(&response.body).unwrap();
        let err = err.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("spec"));
        assert!(
            err.get("message").unwrap().as_str().unwrap().contains("not in the pool"),
            "{}",
            response.body
        );
    }

    #[test]
    fn composed_specs_check_end_to_end() {
        let _serial = serial();
        let app = app();
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"spec":"union(pool(->), pool(<-))","depth":2}"#,
        ));
        assert_eq!(response.status, 200, "{}", response.body);
        let record = json::parse(&response.body).unwrap();
        assert_eq!(record.get("adversary").unwrap().as_str(), Some("union(pool(->), pool(<-))"));
        assert_eq!(record.get("verdict").unwrap().as_str(), Some("solvable"));
    }

    #[test]
    fn malformed_specs_are_400_with_an_offset() {
        let _serial = serial();
        let app = app();
        let response =
            app.handle(&request("POST", "/v1/check", r#"{"spec":"union(pool(->)","depth":2}"#));
        assert_eq!(response.status, 400, "{}", response.body);
        let err = json::parse(&response.body).unwrap();
        let err = err.get("error").unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("spec"));
        assert!(
            err.get("message").unwrap().as_str().unwrap().contains("at byte 14"),
            "{}",
            response.body
        );
        // "spec" excludes the compat aliases.
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"spec":"pool(->)","adversary":"sw-lossy-link","depth":2}"#,
        ));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("mutually exclusive"), "{}", response.body);
    }

    #[test]
    fn typed_errors_map_to_status_codes() {
        let _serial = serial();
        let app = app();
        // Unknown catalog entry → Error::Spec → 400.
        let response =
            app.handle(&request("POST", "/v1/check", r#"{"adversary":"no-such","depth":2}"#));
        assert_eq!(response.status, 400, "{}", response.body);
        let err = json::parse(&response.body).unwrap();
        assert_eq!(err.get("error").unwrap().get("kind").unwrap().as_str(), Some("spec"));
        // Unknown analysis name → 400 with the valid set in the message.
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"adversary":"sw-lossy-link","depth":2,"analysis":"nope"}"#,
        ));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("unknown-analysis"), "{}", response.body);
        // Malformed JSON → 400 bad-body.
        let response = app.handle(&request("POST", "/v1/check", "{"));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("bad-body"), "{}", response.body);
        // Unknown body fields fail loudly, like unknown CLI flags.
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"adversary":"sw-lossy-link","depth":2,"depht":3}"#,
        ));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("depht"), "{}", response.body);
    }

    #[test]
    fn budget_exhaustion_is_422() {
        use consensus_core::config::{AnalysisConfig, CacheConfig, ExpandConfig};
        let _serial = serial();
        let app = App::new(
            Session::with_configs(
                ExpandConfig::with_budget(10),
                AnalysisConfig::default(),
                CacheConfig::default(),
            )
            .unwrap(),
        );
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"adversary":"sw-lossy-link","depth":4,"analysis":"component-stats"}"#,
        ));
        assert_eq!(response.status, 422, "{}", response.body);
        let err = json::parse(&response.body).unwrap();
        assert_eq!(err.get("error").unwrap().get("kind").unwrap().as_str(), Some("budget"));
    }

    #[test]
    fn sweep_matches_direct_session_records() {
        use consensus_lab::store::TIMING_FIELDS;
        let _serial = serial();
        let app = app();
        let response = app.handle(&request(
            "POST",
            "/v1/sweep",
            r#"{"catalog":true,"max_depth":2,"analyses":["solvability","bivalence"]}"#,
        ));
        assert_eq!(response.status, 200, "{}", response.body);
        let payload = json::parse(&response.body).unwrap();
        let Some(Value::Arr(records)) = payload.get("records") else {
            panic!("records must be an array");
        };
        let queries = Query::catalog_grid(2, &[AnalysisKind::Solvability, AnalysisKind::Bivalence]);
        assert_eq!(records.len(), queries.len());
        let direct = Session::new().check_many(&queries);
        for (served, direct) in records.iter().zip(direct.store.records()) {
            assert_eq!(
                served.without_keys(TIMING_FIELDS),
                direct.to_json().without_keys(TIMING_FIELDS)
            );
        }
        let meta = payload.get("meta").unwrap();
        assert_eq!(meta.get_usize("scenarios"), Some(queries.len()));
        assert!(meta.get("cache").unwrap().get_usize("builds").unwrap() > 0);
    }

    #[test]
    fn sweep_validates_its_grid() {
        let _serial = serial();
        let app = app();
        for (body, fragment) in [
            (r#"{"max_depth":2}"#, "catalog"),
            (r#"{"catalog":true}"#, "max_depth"),
            (r#"{"queries":[]}"#, "empty"),
            (r#"{"queries":[{"depth":1}]}"#, "adversary"),
            (r#"{"catalog":true,"max_depth":2,"queries":[]}"#, "excludes"),
        ] {
            let response = app.handle(&request("POST", "/v1/sweep", body));
            assert_eq!(response.status, 400, "{body} → {}", response.body);
            assert!(response.body.contains(fragment), "{body} → {}", response.body);
        }
    }

    /// The value of counter `name` on the app's `/v1/stats` page.
    fn stats_counter(app: &App, name: &str) -> usize {
        let stats = json::parse(&app.handle(&request("GET", "/v1/stats", "")).body).unwrap();
        stats.get("registry").unwrap().get("counters").unwrap().get_usize(name).unwrap()
    }

    #[test]
    fn sharded_sweeps_union_to_the_full_grid() {
        use consensus_lab::store::TIMING_FIELDS;
        let _serial = serial();
        let app = app();
        let full = app.handle(&request(
            "POST",
            "/v1/sweep",
            r#"{"catalog":true,"max_depth":1,"analyses":["solvability"]}"#,
        ));
        assert_eq!(full.status, 200, "{}", full.body);
        // Only a sweep that carries a `shard` counts as a shard request.
        assert_eq!(stats_counter(&app, "sweep.shard_requests"), 0);
        let full = json::parse(&full.body).unwrap();
        let Some(Value::Arr(full_records)) = full.get("records") else {
            panic!("records must be an array");
        };
        // The two shard slices carry global indices and union to the full
        // grid, record for record.
        let mut sharded: Vec<(usize, Value)> = Vec::new();
        for (served, shard) in ["0/2", "1/2"].into_iter().enumerate() {
            let body = format!(
                r#"{{"catalog":true,"max_depth":1,"analyses":["solvability"],"shard":"{shard}"}}"#
            );
            let slice = app.handle(&request("POST", "/v1/sweep", &body));
            assert_eq!(slice.status, 200, "{}", slice.body);
            assert_eq!(stats_counter(&app, "sweep.shard_requests"), served + 1);
            let slice = json::parse(&slice.body).unwrap();
            let Some(Value::Arr(records)) = slice.get("records") else {
                panic!("records must be an array");
            };
            for record in records {
                sharded.push((record.get_usize("index").unwrap(), record.clone()));
            }
        }
        sharded.sort_by_key(|(index, _)| *index);
        assert_eq!(sharded.len(), full_records.len());
        for ((index, shard_record), full_record) in sharded.iter().zip(full_records) {
            assert_eq!(*index, full_record.get_usize("index").unwrap());
            assert_eq!(
                shard_record.without_keys(TIMING_FIELDS),
                full_record.without_keys(TIMING_FIELDS)
            );
        }
    }

    #[test]
    fn malformed_shards_are_typed_400s() {
        let _serial = serial();
        let app = app();
        for (body, fragment) in [
            (r#"{"catalog":true,"max_depth":1,"shard":"2/2"}"#, "bad-shard"),
            (r#"{"catalog":true,"max_depth":1,"shard":"nope"}"#, "bad-shard"),
            (r#"{"catalog":true,"max_depth":1,"shard":"0/0"}"#, "bad-shard"),
            (r#"{"catalog":true,"max_depth":1,"shard":3}"#, "i/n"),
        ] {
            let response = app.handle(&request("POST", "/v1/sweep", body));
            assert_eq!(response.status, 400, "{body} → {}", response.body);
            assert!(response.body.contains(fragment), "{body} → {}", response.body);
        }
        // A refused shard is not a served one.
        assert_eq!(stats_counter(&app, "sweep.shard_requests"), 0);
    }

    #[test]
    fn journal_segment_without_a_cache_is_disabled() {
        let _serial = serial();
        let app = app();
        assert_eq!(stats_counter(&app, "journal.segments_served"), 0);
        let response = app.handle(&request("GET", "/v1/journal/segment", ""));
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(stats_counter(&app, "journal.segments_served"), 1);
        let segment = json::parse(&response.body).unwrap();
        assert_eq!(segment.get("enabled").and_then(Value::as_bool), Some(false));
        assert_eq!(segment.get_usize("count"), Some(0));
        assert_eq!(
            segment.get("salt").unwrap().as_str(),
            Some(consensus_lab::persist::cache_salt().as_str())
        );
        assert_eq!(app.handle(&request("POST", "/v1/journal/segment", "")).status, 405);
    }

    #[test]
    fn catalog_health_metrics_and_routing() {
        let _serial = serial();
        let app = app();
        let response = app.handle(&request("GET", "/v1/catalog", ""));
        assert_eq!(response.status, 200);
        let catalog = json::parse(&response.body).unwrap();
        let Some(Value::Arr(entries)) = catalog.get("entries") else {
            panic!("entries must be an array");
        };
        assert_eq!(entries.len(), adversary::catalog::entries().len());
        // Every entry publishes its canonical spec string.
        for entry in entries {
            let spec = entry.get("spec").unwrap().as_str().unwrap();
            assert!(adversary::SpecTerm::parse(spec).is_ok(), "{spec}");
        }

        // A fixed mix of 200, 400, 404 and 405 answers.
        assert_eq!(app.handle(&request("GET", "/healthz", "")).status, 200);
        assert_eq!(app.handle(&request("GET", "/nope", "")).status, 404);
        assert_eq!(app.handle(&request("GET", "/v1/check", "")).status, 405);
        assert_eq!(app.handle(&request("POST", "/metrics", "")).status, 405);
        assert_eq!(app.handle(&request("POST", "/v1/check", "{")).status, 400);

        // The three pages render one snapshot: the same per-endpoint,
        // unrouted, 4xx and 5xx counts, except that each page GET counts
        // once under `metrics` or `stats` after it has been rendered.
        let metrics = json::parse(&app.handle(&request("GET", "/metrics", "")).body).unwrap();
        let prom = app.handle(&request("GET", "/metrics?format=prometheus", "")).body;
        let stats = json::parse(&app.handle(&request("GET", "/v1/stats", "")).body).unwrap();
        let names: Vec<String> = Endpoint::ALL
            .iter()
            .map(|e| e.name())
            .chain(["unrouted"])
            .map(|name| format!("http.request.{name}"))
            .collect();
        let json_counts = |page: &Value| -> Vec<u64> {
            let registry = page.get("registry").unwrap();
            let mut counts: Vec<u64> = names
                .iter()
                .map(|name| {
                    let hist = registry.get("histograms_ns").unwrap().get(name).unwrap();
                    for key in ["p50", "p90", "p99", "max"] {
                        assert!(hist.get(key).is_some(), "{name} has no {key}");
                    }
                    hist.get_usize("count").unwrap() as u64
                })
                .collect();
            for name in ["http.errors_4xx", "http.errors_5xx"] {
                counts.push(registry.get("counters").unwrap().get_usize(name).unwrap() as u64);
            }
            counts
        };
        let prom_value = |series: &str| -> u64 {
            let line = prom.lines().find(|line| line.starts_with(&format!("{series} ")));
            line.unwrap_or_else(|| panic!("no {series} in:\n{prom}"))[series.len() + 1..]
                .parse()
                .unwrap()
        };
        let mut prom_counts: Vec<u64> = names
            .iter()
            .map(|name| prom_value(&format!("consensus_{}_ns_count", prom::metric_name(name))))
            .collect();
        for name in ["http_errors_4xx", "http_errors_5xx"] {
            prom_counts.push(prom_value(&format!("consensus_{name}_total")));
        }
        // check, sweep, segment, trace, catalog, stats, healthz, metrics,
        // unrouted; then 4xx (404 + 405 + 405 + 400) and 5xx.
        let mut expected = vec![2, 0, 0, 0, 1, 0, 1, 1, 1, 4, 0];
        assert_eq!(json_counts(&metrics), expected, "/metrics");
        expected[7] += 1;
        assert_eq!(prom_counts, expected, "/metrics?format=prometheus");
        expected[7] += 1;
        assert_eq!(json_counts(&stats), expected, "/v1/stats");
        // The request total is the histograms' summed count.
        assert_eq!(metrics.get_usize("requests_total"), Some(6));
        assert_eq!(stats.get_usize("requests_total"), Some(8));

        assert_eq!(metrics.get("cache").unwrap().get_usize("builds"), Some(0));
        let disk = metrics.get("disk").unwrap();
        assert_eq!(disk.get("enabled").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn stats_returns_the_registry_snapshot() {
        let _serial = serial();
        let app = app();
        // One answered query populates the obs registry stage histograms.
        let response = app.handle(&request(
            "POST",
            "/v1/check",
            r#"{"adversary":"cgp-reduced-lossy-link","depth":2}"#,
        ));
        assert_eq!(response.status, 200, "{}", response.body);
        let response = app.handle(&request("GET", "/v1/stats", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        let stats = json::parse(&response.body).unwrap();
        let registry = stats.get("registry").unwrap();
        for block in ["counters", "gauges", "histograms_ns"] {
            assert!(registry.get(block).is_some(), "missing {block}");
        }
        // The check above went through the cache, so its counters exist
        // (the registry is process-global — only presence is asserted).
        assert!(registry.get("counters").unwrap().get("cache.builds").is_some());
        let histograms = registry.get("histograms_ns").unwrap();
        let expand = histograms.get("stage.expand").unwrap();
        assert!(expand.get_usize("count").unwrap() >= 1);
        assert!(expand.get_usize("p99").unwrap() >= expand.get_usize("p50").unwrap());
        // The app's own request metrics ride in the same snapshot.
        assert_eq!(histograms.get("http.request.check").unwrap().get_usize("count"), Some(1));
        assert_eq!(stats.get_usize("requests_total"), Some(1));
        let trace = stats.get("trace").unwrap();
        assert!(trace.get("enabled").and_then(Value::as_bool).is_some());
    }

    #[test]
    fn request_id_is_echoed_or_generated() {
        let _serial = serial();
        let app = app();
        // Supplied: propagated verbatim.
        let mut req = request("GET", "/healthz", "");
        req.headers.push(("x-request-id".into(), "cluster-7-retry-2".into()));
        let response = app.handle(&req);
        let echo = response.headers.iter().find(|(k, _)| k == "x-request-id");
        assert_eq!(echo.map(|(_, v)| v.as_str()), Some("cluster-7-retry-2"));
        // Absent: generated, unique per request, prefixed by the process
        // trace-id nibble so ids differ across a fleet.
        let a = app.handle(&request("GET", "/healthz", ""));
        let b = app.handle(&request("GET", "/healthz", ""));
        let id = |r: &Response| {
            r.headers
                .iter()
                .find(|(k, _)| k == "x-request-id")
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_ne!(id(&a), id(&b));
        let prefix = format!("{:08x}-", (trace_id() >> 96) as u32);
        assert!(id(&a).starts_with(&prefix), "{}", id(&a));
        // Errors carry the echo too — correlation matters most there.
        let not_found = app.handle(&request("GET", "/nope", ""));
        assert!(not_found.headers.iter().any(|(k, _)| k == "x-request-id"));
    }

    #[test]
    fn trace_endpoint_serves_a_nondestructive_cursor_fragment() {
        let _serial = serial();
        let app = app();
        tracer().disable();
        let _ = tracer().drain();
        tracer().enable();
        let warm = app.handle(&request("GET", "/healthz", ""));
        assert_eq!(warm.status, 200);
        let response = app.handle(&request("GET", "/v1/trace", ""));
        tracer().disable();
        assert_eq!(response.status, 200, "{}", response.body);
        let payload = json::parse(&response.body).unwrap();
        let hex = payload.get("trace_id").unwrap().as_str().unwrap().to_string();
        assert_eq!(hex, format!("{:032x}", trace_id()));
        assert_eq!(payload.get("enabled").and_then(Value::as_bool), Some(true));
        let Some(Value::Arr(spans)) = payload.get("spans") else {
            panic!("spans must be an array: {}", response.body);
        };
        // The healthz request span is in the fragment; the ring still
        // holds it (non-destructive).
        assert!(
            spans.iter().any(|s| s.get("span").unwrap().as_str() == Some("http.request")),
            "{}",
            response.body
        );
        let cursor = payload.get_usize("cursor").unwrap();
        assert!(cursor >= 1);
        assert!(!tracer().spans_since(0).is_empty(), "/v1/trace must not drain the ring");
        let _ = tracer().drain();
        // Resuming from the cursor returns nothing new.
        let empty = app.handle(&request("GET", &format!("/v1/trace?since={cursor}"), ""));
        let empty = json::parse(&empty.body).unwrap();
        let Some(Value::Arr(spans)) = empty.get("spans") else {
            panic!("spans must be an array");
        };
        assert!(spans.is_empty());
        assert_eq!(empty.get_usize("cursor"), Some(cursor));
        // Bad queries are typed 400s; wrong method is 405.
        assert_eq!(app.handle(&request("GET", "/v1/trace?since=x", "")).status, 400);
        assert_eq!(app.handle(&request("GET", "/v1/trace?nope=1", "")).status, 400);
        assert_eq!(app.handle(&request("POST", "/v1/trace", "")).status, 405);
    }

    #[test]
    fn remote_trace_context_is_recorded_for_stitching() {
        let _serial = serial();
        let app = app();
        tracer().disable();
        let _ = tracer().drain();
        tracer().enable();
        // A foreign trace id (not ours): the span records the remote
        // context as attributes instead of parenting under a local id.
        let foreign = TraceContext { trace_id: trace_id() ^ 1, parent_span: 99 };
        let mut req = request("GET", "/healthz", "");
        req.headers.push((TRACE_HEADER.into(), foreign.to_header()));
        assert_eq!(app.handle(&req).status, 200);
        // A local context parents directly under the given span id.
        let mut req = request("GET", "/healthz", "");
        req.headers.push((TRACE_HEADER.into(), TraceContext::local(12345).to_header()));
        assert_eq!(app.handle(&req).status, 200);
        tracer().disable();
        let spans = tracer().drain();
        let foreign_span = spans
            .iter()
            .find(|s| s.to_jsonl().contains("remote_parent"))
            .expect("foreign context span");
        assert!(foreign_span
            .to_jsonl()
            .contains(&format!("\"remote_trace\":\"{:032x}\"", foreign.trace_id)));
        assert!(foreign_span.to_jsonl().contains("\"remote_parent\":99"));
        assert_eq!(foreign_span.parent, None, "foreign context must not fake a local parent");
        let local_span = spans
            .iter()
            .find(|s| s.parent == Some(12345))
            .expect("local context parents under the caller's span id");
        assert_eq!(local_span.name, "http.request");
    }

    #[test]
    fn metrics_renders_prometheus_on_request() {
        let _serial = serial();
        let app = app();
        assert_eq!(app.handle(&request("GET", "/healthz", "")).status, 200);
        let response = app.handle(&request("GET", "/metrics?format=prometheus", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, consensus_obs::prom::CONTENT_TYPE);
        let page = &response.body;
        assert!(page.contains("# TYPE consensus_http_request_healthz_ns summary\n"), "{page}");
        assert!(page.contains("consensus_http_request_healthz_ns_count 1\n"), "{page}");
        assert!(page.contains("consensus_http_request_healthz_ns{quantile=\"0.99\"}"), "{page}");
        assert!(page.contains("consensus_http_request_healthz_ns_max "), "{page}");
        assert!(page.contains("consensus_http_connections_active 0\n"), "{page}");
        assert!(page.contains("consensus_uptime_ms "), "{page}");
        assert!(page.contains("consensus_cache_events_total{kind=\"builds\"}"), "{page}");
        // One `# TYPE` line per family, the process and app registries
        // merged into one snapshot.
        let mut families: Vec<&str> = page.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let listed = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), listed, "{page}");
        // An unknown format falls back to the JSON page.
        let response = app.handle(&request("GET", "/metrics?format=json", ""));
        assert_eq!(response.content_type, "application/json");
        assert!(json::parse(&response.body).is_ok());
    }
}
