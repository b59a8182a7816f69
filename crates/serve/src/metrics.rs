//! Per-process service telemetry: request counters, latency histograms
//! (a legacy fixed-bucket one plus per-endpoint log-bucketed
//! [`consensus_obs`] histograms), and connection counters — everything
//! `GET /metrics` exposes beyond the cache counters it reads from the
//! shared [`Session`](consensus_lab::session::Session).
//!
//! Lock-free: every datum is an atomic, so the hot path records a request
//! with a handful of relaxed increments and readers never contend with
//! workers.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use consensus_obs::metrics::Histogram;
use consensus_obs::prom;
use json::Value;

/// The service's routed endpoints, in stable reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/check`.
    Check,
    /// `POST /v1/sweep`.
    Sweep,
    /// `GET /v1/journal/segment`.
    Segment,
    /// `GET /v1/trace`.
    Trace,
    /// `GET /v1/catalog`.
    Catalog,
    /// `GET /v1/stats`.
    Stats,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
}

impl Endpoint {
    /// All endpoints, in reporting order.
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Check,
        Endpoint::Sweep,
        Endpoint::Segment,
        Endpoint::Trace,
        Endpoint::Catalog,
        Endpoint::Stats,
        Endpoint::Healthz,
        Endpoint::Metrics,
    ];

    /// The stable key used in the metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Check => "check",
            Endpoint::Sweep => "sweep",
            Endpoint::Segment => "segment",
            Endpoint::Trace => "trace",
            Endpoint::Catalog => "catalog",
            Endpoint::Stats => "stats",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|x| *x == self).expect("listed endpoint")
    }
}

/// Upper bucket bounds of the legacy fixed-bucket latency histogram, in
/// milliseconds; an implicit overflow bucket catches everything beyond
/// the last bound.
pub const LATENCY_BOUNDS_MS: [f64; 10] =
    [0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 1000.0];

/// The percentiles reported per endpoint, as `(json key, quantile)`.
const ENDPOINT_QUANTILES: [(&str, f64); 3] = [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)];

/// Lock-free request/latency/connection counters; see the module docs.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    accepted: AtomicUsize,
    active: AtomicUsize,
    by_endpoint: [AtomicUsize; Endpoint::ALL.len()],
    /// Per-endpoint handling latency in nanoseconds (log-bucketed,
    /// quantile-queryable — the p50/p90/p99 source).
    latency_by_endpoint: [Histogram; Endpoint::ALL.len()],
    not_found: AtomicUsize,
    errors_4xx: AtomicUsize,
    errors_5xx: AtomicUsize,
    buckets: [AtomicUsize; LATENCY_BOUNDS_MS.len() + 1],
    latency_count: AtomicUsize,
    latency_total_ns: AtomicU64,
    latency_max_ns: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Zeroed counters, uptime starting now.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            accepted: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            by_endpoint: Default::default(),
            latency_by_endpoint: [const { Histogram::new() }; Endpoint::ALL.len()],
            not_found: AtomicUsize::new(0),
            errors_4xx: AtomicUsize::new(0),
            errors_5xx: AtomicUsize::new(0),
            buckets: Default::default(),
            latency_count: AtomicUsize::new(0),
            latency_total_ns: AtomicU64::new(0),
            latency_max_ns: AtomicU64::new(0),
        }
    }

    /// Record an accepted connection.
    pub fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a connection as being handled; the returned guard decrements
    /// the active gauge when dropped.
    pub fn connection_active(&self) -> ActiveConnection<'_> {
        self.active.fetch_add(1, Ordering::Relaxed);
        ActiveConnection { metrics: self }
    }

    /// Record one routed (or unrouted) request and its handling latency.
    /// Client errors (4xx) and server errors (5xx) count separately.
    pub fn record(&self, endpoint: Option<Endpoint>, status: u16, elapsed: Duration) {
        match endpoint {
            Some(e) => {
                self.by_endpoint[e.index()].fetch_add(1, Ordering::Relaxed);
                self.latency_by_endpoint[e.index()].record_duration(elapsed);
            }
            None => {
                self.not_found.fetch_add(1, Ordering::Relaxed);
            }
        }
        if (400..500).contains(&status) {
            self.errors_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.errors_5xx.fetch_add(1, Ordering::Relaxed);
        }
        let ms = elapsed.as_secs_f64() * 1e3;
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|bound| ms <= *bound)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.latency_total_ns.fetch_add(ns, Ordering::Relaxed);
        self.latency_max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total requests recorded (routed plus unrouted).
    pub fn requests_total(&self) -> usize {
        self.latency_count.load(Ordering::Relaxed)
    }

    /// Milliseconds since the metrics (≈ the server) started.
    pub fn uptime_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// The per-endpoint latency quantile blocks:
    /// `name → {count, p50_ms, p90_ms, p99_ms, max_ms}` in reporting
    /// order.
    pub fn endpoints_json(&self) -> Vec<(String, Value)> {
        Endpoint::ALL
            .iter()
            .map(|endpoint| {
                let hist = &self.latency_by_endpoint[endpoint.index()];
                let mut fields: Vec<(String, Value)> =
                    vec![("count".into(), Value::Int(hist.count() as i64))];
                for (key, q) in ENDPOINT_QUANTILES {
                    fields.push((key.into(), Value::Float(round_ms(hist.quantile(q)))));
                }
                fields.push(("max_ms".into(), Value::Float(round_ms(hist.max()))));
                (endpoint.name().to_string(), Value::Obj(fields))
            })
            .collect()
    }

    /// The `connections`/`requests`/`endpoints`/`latency_ms` blocks of
    /// the metrics payload (the cache blocks are appended by the API
    /// layer, which owns the `Session`). Key order is fixed — two
    /// serializations of the same counters are byte-identical.
    pub fn to_json(&self) -> Vec<(String, Value)> {
        let mut requests: Vec<(String, Value)> =
            vec![("total".into(), Value::Int(self.requests_total() as i64))];
        for (endpoint, count) in Endpoint::ALL.iter().zip(&self.by_endpoint) {
            requests
                .push((endpoint.name().into(), Value::Int(count.load(Ordering::Relaxed) as i64)));
        }
        let errors_4xx = self.errors_4xx.load(Ordering::Relaxed);
        let errors_5xx = self.errors_5xx.load(Ordering::Relaxed);
        requests
            .push(("not_found".into(), Value::Int(self.not_found.load(Ordering::Relaxed) as i64)));
        // `errors` (the historical total) stays for dashboard
        // compatibility; the split counters are what new tooling reads.
        requests.push(("errors".into(), Value::Int((errors_4xx + errors_5xx) as i64)));
        requests.push(("errors_4xx".into(), Value::Int(errors_4xx as i64)));
        requests.push(("errors_5xx".into(), Value::Int(errors_5xx as i64)));

        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, count) in self.buckets.iter().enumerate() {
            buckets.push(Value::Obj(vec![
                (
                    "le".into(),
                    // The overflow bucket has no upper bound.
                    LATENCY_BOUNDS_MS.get(i).map_or(Value::Null, |b| Value::Float(*b)),
                ),
                ("count".into(), Value::Int(count.load(Ordering::Relaxed) as i64)),
            ]));
        }
        let total_ns = self.latency_total_ns.load(Ordering::Relaxed);
        let max_ns = self.latency_max_ns.load(Ordering::Relaxed);
        let latency = Value::Obj(vec![
            ("count".into(), Value::Int(self.latency_count.load(Ordering::Relaxed) as i64)),
            ("total".into(), Value::Float(round_ms(total_ns))),
            ("max".into(), Value::Float(round_ms(max_ns))),
            ("buckets".into(), Value::Arr(buckets)),
        ]);
        vec![
            ("uptime_ms".into(), Value::Float(round3(self.uptime_ms()))),
            (
                "connections".into(),
                Value::Obj(vec![
                    ("accepted".into(), Value::Int(self.accepted.load(Ordering::Relaxed) as i64)),
                    ("active".into(), Value::Int(self.active.load(Ordering::Relaxed) as i64)),
                ]),
            ),
            ("requests".into(), Value::Obj(requests)),
            ("endpoints".into(), Value::Obj(self.endpoints_json())),
            ("latency_ms".into(), latency),
        ]
    }

    /// Render this struct's families as Prometheus text exposition: the
    /// request/connection counters and one latency summary per endpoint
    /// with p50/p90/p99 series (the API layer appends the cache gauges
    /// and the shared registry).
    pub fn render_prometheus(&self, out: &mut String) {
        prom::write_type(out, "consensus_uptime_ms", "gauge");
        prom::write_sample(out, "consensus_uptime_ms", &[], round3(self.uptime_ms()));
        prom::write_type(out, "consensus_connections_accepted_total", "counter");
        prom::write_sample(
            out,
            "consensus_connections_accepted_total",
            &[],
            self.accepted.load(Ordering::Relaxed) as f64,
        );
        prom::write_type(out, "consensus_connections_active", "gauge");
        prom::write_sample(
            out,
            "consensus_connections_active",
            &[],
            self.active.load(Ordering::Relaxed) as f64,
        );
        prom::write_type(out, "consensus_http_requests_total", "counter");
        for (endpoint, count) in Endpoint::ALL.iter().zip(&self.by_endpoint) {
            prom::write_sample(
                out,
                "consensus_http_requests_total",
                &[("endpoint", endpoint.name())],
                count.load(Ordering::Relaxed) as f64,
            );
        }
        prom::write_type(out, "consensus_http_requests_not_found_total", "counter");
        prom::write_sample(
            out,
            "consensus_http_requests_not_found_total",
            &[],
            self.not_found.load(Ordering::Relaxed) as f64,
        );
        prom::write_type(out, "consensus_http_errors_total", "counter");
        prom::write_sample(
            out,
            "consensus_http_errors_total",
            &[("class", "4xx")],
            self.errors_4xx.load(Ordering::Relaxed) as f64,
        );
        prom::write_sample(
            out,
            "consensus_http_errors_total",
            &[("class", "5xx")],
            self.errors_5xx.load(Ordering::Relaxed) as f64,
        );
        prom::write_type(out, "consensus_http_request_duration_ms", "summary");
        for endpoint in Endpoint::ALL {
            let hist = &self.latency_by_endpoint[endpoint.index()];
            for (_, q) in ENDPOINT_QUANTILES {
                prom::write_sample(
                    out,
                    "consensus_http_request_duration_ms",
                    &[("endpoint", endpoint.name()), ("quantile", quantile_label(q))],
                    round_ms(hist.quantile(q)),
                );
            }
            prom::write_sample(
                out,
                "consensus_http_request_duration_ms_max",
                &[("endpoint", endpoint.name())],
                round_ms(hist.max()),
            );
            prom::write_sample(
                out,
                "consensus_http_request_duration_ms_sum",
                &[("endpoint", endpoint.name())],
                round3(hist.sum() as f64 / 1e6),
            );
            prom::write_sample(
                out,
                "consensus_http_request_duration_ms_count",
                &[("endpoint", endpoint.name())],
                hist.count() as f64,
            );
        }
    }
}

fn quantile_label(q: f64) -> &'static str {
    if q == 0.5 {
        "0.5"
    } else if q == 0.9 {
        "0.9"
    } else {
        "0.99"
    }
}

/// Round milliseconds to 3 decimals — the one precision every emitted
/// `*_ms` field of this crate uses (metrics, healthz, stats).
pub(crate) fn round3(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

fn round_ms(ns: u64) -> f64 {
    round3(ns as f64 / 1e6)
}

/// Guard returned by [`Metrics::connection_active`].
#[derive(Debug)]
pub struct ActiveConnection<'a> {
    metrics: &'a Metrics,
}

impl Drop for ActiveConnection<'_> {
    fn drop(&mut self) {
        self.metrics.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_serialize() {
        let m = Metrics::new();
        m.connection_accepted();
        {
            let _active = m.connection_active();
            m.record(Some(Endpoint::Check), 200, Duration::from_micros(300));
            m.record(Some(Endpoint::Check), 422, Duration::from_millis(3));
            m.record(Some(Endpoint::Sweep), 500, Duration::from_millis(1));
            m.record(None, 404, Duration::from_millis(30));
        }
        assert_eq!(m.requests_total(), 4);
        let fields = Value::Obj(m.to_json());
        let requests = fields.get("requests").unwrap();
        assert_eq!(requests.get_usize("total"), Some(4));
        assert_eq!(requests.get_usize("check"), Some(2));
        assert_eq!(requests.get_usize("sweep"), Some(1));
        assert_eq!(requests.get_usize("not_found"), Some(1));
        // 4xx (422 + 404) and 5xx (500) count separately; `errors` stays
        // as their total for dashboard compatibility.
        assert_eq!(requests.get_usize("errors_4xx"), Some(2));
        assert_eq!(requests.get_usize("errors_5xx"), Some(1));
        assert_eq!(requests.get_usize("errors"), Some(3));
        let connections = fields.get("connections").unwrap();
        assert_eq!(connections.get_usize("accepted"), Some(1));
        assert_eq!(connections.get_usize("active"), Some(0), "guard must decrement");
        let latency = fields.get("latency_ms").unwrap();
        assert_eq!(latency.get_usize("count"), Some(4));
        let Some(Value::Arr(buckets)) = latency.get("buckets") else {
            panic!("buckets must be an array");
        };
        assert_eq!(buckets.len(), LATENCY_BOUNDS_MS.len() + 1);
        let counted: usize = buckets.iter().map(|b| b.get_usize("count").unwrap()).sum();
        assert_eq!(counted, 4, "every request lands in exactly one bucket");
        // 0.3 ms → the 0.5 bucket; 1 ms → 1.0; 3 ms → 5.0; 30 ms → 50.0.
        assert_eq!(buckets[1].get_usize("count"), Some(1));
        assert_eq!(buckets[2].get_usize("count"), Some(1));
        assert_eq!(buckets[4].get_usize("count"), Some(1));
        assert_eq!(buckets[7].get_usize("count"), Some(1));
    }

    #[test]
    fn per_endpoint_quantiles_track_latency() {
        let m = Metrics::new();
        for us in [100u64, 200, 400, 800, 10_000] {
            m.record(Some(Endpoint::Check), 200, Duration::from_micros(us));
        }
        let endpoints = Value::Obj(m.endpoints_json());
        let check = endpoints.get("check").unwrap();
        assert_eq!(check.get_usize("count"), Some(5));
        let p50 = check.get("p50_ms").and_then(Value::as_f64).unwrap();
        let p99 = check.get("p99_ms").and_then(Value::as_f64).unwrap();
        let max = check.get("max_ms").and_then(Value::as_f64).unwrap();
        assert!((0.4..1.0).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 10.0, "p99 = {p99}");
        assert_eq!(max, 10.0, "max is exact");
        assert!(p50 <= p99);
        // Untouched endpoints report zeroed blocks, in reporting order.
        let sweep = endpoints.get("sweep").unwrap();
        assert_eq!(sweep.get_usize("count"), Some(0));
    }

    #[test]
    fn to_json_key_order_is_deterministic() {
        let m = Metrics::new();
        m.record(Some(Endpoint::Catalog), 200, Duration::from_micros(50));
        m.record(None, 404, Duration::from_micros(10));
        let keys = |fields: &[(String, Value)]| -> Vec<String> {
            fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
        };
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(keys(&a), keys(&b));
        // The serialized bodies agree byte-for-byte except uptime.
        let strip = |fields: Vec<(String, Value)>| {
            Value::Obj(fields).without_keys(&["uptime_ms"]).to_string()
        };
        assert_eq!(strip(a), strip(b));
    }

    #[test]
    fn prometheus_text_carries_per_endpoint_quantiles() {
        let m = Metrics::new();
        m.record(Some(Endpoint::Check), 200, Duration::from_micros(500));
        m.record(Some(Endpoint::Check), 503, Duration::from_micros(100));
        let mut out = String::new();
        m.render_prometheus(&mut out);
        assert!(out.contains("# TYPE consensus_http_request_duration_ms summary\n"));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                out.contains(&format!(
                    "consensus_http_request_duration_ms{{endpoint=\"check\",quantile=\"{q}\"}}"
                )),
                "missing quantile {q} in:\n{out}"
            );
        }
        assert!(out.contains("consensus_http_errors_total{class=\"5xx\"} 1\n"));
        assert!(out.contains("consensus_http_errors_total{class=\"4xx\"} 0\n"));
        assert!(out.contains("consensus_http_request_duration_ms_count{endpoint=\"check\"} 2\n"));
        // Exactly one TYPE header per family.
        let headers = out.matches("# TYPE consensus_http_request_duration_ms ").count();
        assert_eq!(headers, 1);
    }
}
