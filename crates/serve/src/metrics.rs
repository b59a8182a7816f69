//! Per-process service telemetry: the [`App`](crate::api::App)'s own
//! [`consensus_obs`] [`Registry`], recorded once per request, and the one
//! JSON encoding of a [`RegistrySnapshot`] that `/metrics`, `/v1/stats`
//! and the cluster's fleet fold all read.
//!
//! The registry holds one latency histogram per endpoint
//! (`http.request.<endpoint>`) plus `http.request.unrouted` for requests
//! no route matched, so the histograms' counts are the request counts
//! ([`requests_total`]); counters `http.errors_4xx`, `http.errors_5xx`,
//! `http.connections.accepted`, `sweep.shard_requests` and
//! `journal.segments_served`; and the gauge `http.connections.active`.
//! Every handle is looked up once, when the [`Metrics`] is built, so the
//! hot path records a request with a few relaxed atomic operations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use consensus_obs::metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot,
};
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

    /// The stable name: the suffix of its `http.request.<name>` histogram
    /// and the `endpoint` attribute of its request span.
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
}

/// The name prefix of the request histograms; see the module docs.
const REQUEST_HISTOGRAM_PREFIX: &str = "http.request.";

/// The service's registry and its pre-looked-up handles; see the module
/// docs.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    started: Instant,
    /// Handling latency in nanoseconds, per [`Endpoint::ALL`] entry.
    latency: [Arc<Histogram>; Endpoint::ALL.len()],
    unrouted: Arc<Histogram>,
    errors_4xx: Arc<Counter>,
    errors_5xx: Arc<Counter>,
    accepted: Arc<Counter>,
    active: Arc<Gauge>,
    shard_requests: Arc<Counter>,
    segments_served: Arc<Counter>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry with every metric at zero, uptime starting now.
    pub fn new() -> Self {
        let registry = Registry::new();
        let histogram =
            |name: &str| registry.histogram(&format!("{REQUEST_HISTOGRAM_PREFIX}{name}"));
        Metrics {
            started: Instant::now(),
            latency: Endpoint::ALL.map(|endpoint| histogram(endpoint.name())),
            unrouted: histogram("unrouted"),
            errors_4xx: registry.counter("http.errors_4xx"),
            errors_5xx: registry.counter("http.errors_5xx"),
            accepted: registry.counter("http.connections.accepted"),
            active: registry.gauge("http.connections.active"),
            shard_requests: registry.counter("sweep.shard_requests"),
            segments_served: registry.counter("journal.segments_served"),
            registry,
        }
    }

    /// Record an accepted connection.
    pub fn connection_accepted(&self) {
        self.accepted.inc();
    }

    /// Mark a connection as being handled; the returned guard decrements
    /// the active gauge when dropped.
    pub fn connection_active(&self) -> ActiveConnection<'_> {
        self.active.inc();
        ActiveConnection { metrics: self }
    }

    /// Record one routed (or unrouted) request and its handling latency.
    /// Client errors (4xx) and server errors (5xx) count separately.
    pub fn record(&self, endpoint: Option<Endpoint>, status: u16, elapsed: Duration) {
        let latency = match endpoint {
            Some(endpoint) => &self.latency[endpoint as usize],
            None => &self.unrouted,
        };
        latency.record_duration(elapsed);
        if (400..500).contains(&status) {
            self.errors_4xx.inc();
        } else if status >= 500 {
            self.errors_5xx.inc();
        }
    }

    /// Count one `/v1/sweep` request that carried a `shard`.
    pub(crate) fn shard_request(&self) {
        self.shard_requests.inc();
    }

    /// Count one `/v1/journal/segment` answer.
    pub(crate) fn segment_served(&self) {
        self.segments_served.inc();
    }

    /// Milliseconds since the metrics (≈ the server) started.
    pub fn uptime_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// The snapshot every metrics page renders: the process-global
    /// registry merged with this service's own.
    pub fn snapshot(&self) -> RegistrySnapshot {
        registry().snapshot().merge(&self.registry.snapshot())
    }
}

/// Requests recorded in `snap`: the summed counts of its request
/// histograms, unrouted requests included. The one request total of the
/// metrics pages and the fleet snapshot.
pub fn requests_total(snap: &RegistrySnapshot) -> u64 {
    snap.histograms
        .iter()
        .filter(|(name, _)| name.starts_with(REQUEST_HISTOGRAM_PREFIX))
        .map(|(_, hist)| hist.count)
        .sum()
}

/// The JSON form of a snapshot:
/// `{"counters":{name:n},"gauges":{name:n},"histograms_ns":{name:{count,
/// sum,max,p50,p90,p99,buckets}}}`, names in snapshot order. `buckets`
/// lists the raw `[upper bound, count]` pairs so a reader merges
/// histograms exactly instead of averaging quantiles. Values above
/// `i64::MAX` are written as their two's-complement `i64`, which
/// [`snapshot_from_json`] reads back, so every snapshot round-trips.
pub fn snapshot_to_json(snap: &RegistrySnapshot) -> Value {
    let int = |n: u64| Value::Int(n as i64);
    let scalars = |entries: &[(String, u64)]| {
        Value::Obj(entries.iter().map(|(name, n)| (name.clone(), int(*n))).collect())
    };
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(bound, n)| Value::Arr(vec![int(bound), int(n)]))
                .collect();
            let block = vec![
                ("count".into(), int(h.count)),
                ("sum".into(), int(h.sum)),
                ("max".into(), int(h.max)),
                ("p50".into(), int(h.quantile(0.5))),
                ("p90".into(), int(h.quantile(0.9))),
                ("p99".into(), int(h.quantile(0.99))),
                ("buckets".into(), Value::Arr(buckets)),
            ];
            (name.clone(), Value::Obj(block))
        })
        .collect();
    Value::Obj(vec![
        ("counters".into(), scalars(&snap.counters)),
        ("gauges".into(), scalars(&snap.gauges)),
        ("histograms_ns".into(), Value::Obj(histograms)),
    ])
}

/// The inverse of [`snapshot_to_json`]; `None` when `value` is not of
/// that shape. The quantile fields are derived, so only `count`, `sum`,
/// `max` and `buckets` are read.
pub fn snapshot_from_json(value: &Value) -> Option<RegistrySnapshot> {
    fn int(value: &Value) -> Option<u64> {
        value.as_i64().map(|n| n as u64)
    }
    fn entries(value: Option<&Value>) -> Option<&[(String, Value)]> {
        match value? {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
    let scalars = |key: &str| -> Option<Vec<(String, u64)>> {
        entries(value.get(key))?
            .iter()
            .map(|(name, n)| Some((name.clone(), int(n)?)))
            .collect()
    };
    let histogram = |h: &Value| -> Option<HistogramSnapshot> {
        let Some(Value::Arr(pairs)) = h.get("buckets") else {
            return None;
        };
        let buckets = pairs
            .iter()
            .map(|pair| match pair {
                Value::Arr(pair) if pair.len() == 2 => Some((int(&pair[0])?, int(&pair[1])?)),
                _ => None,
            })
            .collect::<Option<_>>()?;
        Some(HistogramSnapshot {
            count: int(h.get("count")?)?,
            sum: int(h.get("sum")?)?,
            max: int(h.get("max")?)?,
            buckets,
        })
    };
    Some(RegistrySnapshot {
        counters: scalars("counters")?,
        gauges: scalars("gauges")?,
        histograms: entries(value.get("histograms_ns"))?
            .iter()
            .map(|(name, h)| Some((name.clone(), histogram(h)?)))
            .collect::<Option<_>>()?,
    })
}

/// Round milliseconds to 3 decimals — the one precision every emitted
/// `*_ms` field of this crate uses (metrics, healthz, stats).
pub(crate) fn round3(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

/// Guard returned by [`Metrics::connection_active`].
#[derive(Debug)]
pub struct ActiveConnection<'a> {
    metrics: &'a Metrics,
}

impl Drop for ActiveConnection<'_> {
    fn drop(&mut self) {
        self.metrics.active.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn own(m: &Metrics) -> RegistrySnapshot {
        m.registry.snapshot()
    }

    fn count(snap: &RegistrySnapshot, name: &str) -> u64 {
        let hist = snap.histograms.iter().find(|(n, _)| n == name);
        hist.map(|(_, h)| h.count).unwrap_or_else(|| panic!("no histogram {name}"))
    }

    fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
        let entry = snap.counters.iter().chain(&snap.gauges).find(|(n, _)| n == name);
        entry.map(|(_, v)| *v).unwrap_or_else(|| panic!("no counter or gauge {name}"))
    }

    #[test]
    fn counters_accumulate_and_serialize() {
        let m = Metrics::new();
        m.connection_accepted();
        {
            let _active = m.connection_active();
            assert_eq!(counter(&own(&m), "http.connections.active"), 1);
            m.record(Some(Endpoint::Check), 200, Duration::from_micros(300));
            m.record(Some(Endpoint::Check), 422, Duration::from_millis(3));
            m.record(Some(Endpoint::Sweep), 500, Duration::from_millis(1));
            m.record(None, 404, Duration::from_millis(30));
        }
        let snap = own(&m);
        assert_eq!(requests_total(&snap), 4);
        assert_eq!(count(&snap, "http.request.check"), 2);
        assert_eq!(count(&snap, "http.request.sweep"), 1);
        assert_eq!(count(&snap, "http.request.unrouted"), 1);
        // 4xx (422 + 404) and 5xx (500) count separately.
        assert_eq!(counter(&snap, "http.errors_4xx"), 2);
        assert_eq!(counter(&snap, "http.errors_5xx"), 1);
        assert_eq!(counter(&snap, "http.connections.accepted"), 1);
        assert_eq!(counter(&snap, "http.connections.active"), 0, "guard must decrement");
        // The process registry's histograms are not request histograms.
        assert_eq!(requests_total(&m.snapshot()), 4);
        // The JSON form carries the same counts.
        let page = snapshot_to_json(&snap);
        let histograms = page.get("histograms_ns").unwrap();
        assert_eq!(histograms.get("http.request.check").unwrap().get_usize("count"), Some(2));
        assert_eq!(histograms.get("http.request.unrouted").unwrap().get_usize("count"), Some(1));
        assert_eq!(page.get("counters").unwrap().get_usize("http.errors_4xx"), Some(2));
        assert_eq!(page.get("gauges").unwrap().get_usize("http.connections.active"), Some(0));
    }

    #[test]
    fn per_endpoint_quantiles_track_latency() {
        let m = Metrics::new();
        for us in [100u64, 200, 400, 800, 10_000] {
            m.record(Some(Endpoint::Check), 200, Duration::from_micros(us));
        }
        let snap = own(&m);
        let check = &snap.histograms.iter().find(|(n, _)| n == "http.request.check").unwrap().1;
        assert_eq!(check.count, 5);
        let (p50, p99) = (check.quantile(0.5), check.quantile(0.99));
        assert!((400_000..1_000_000).contains(&p50), "p50 = {p50} ns");
        assert!(p99 >= 10_000_000, "p99 = {p99} ns");
        assert_eq!(check.max, 10_000_000, "max is exact");
        // Untouched endpoints are listed with zero counts.
        assert_eq!(count(&snap, "http.request.sweep"), 0);
        assert_eq!(snap.histograms.len(), Endpoint::ALL.len() + 1);
        // `record` indexes the histograms by discriminant.
        for (i, endpoint) in Endpoint::ALL.into_iter().enumerate() {
            assert_eq!(endpoint as usize, i);
        }
    }

    #[test]
    fn to_json_key_order_is_deterministic() {
        let m = Metrics::new();
        m.record(Some(Endpoint::Catalog), 200, Duration::from_micros(50));
        m.record(None, 404, Duration::from_micros(10));
        m.shard_request();
        let text = snapshot_to_json(&own(&m)).to_string();
        assert_eq!(snapshot_to_json(&own(&m)).to_string(), text, "byte-identical");
        // Names are sorted within each block.
        let page = json::parse(&text).unwrap();
        let Some(Value::Obj(counters)) = page.get("counters") else {
            panic!("counters must be an object: {text}");
        };
        let names: Vec<&str> = counters.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "http.connections.accepted",
                "http.errors_4xx",
                "http.errors_5xx",
                "journal.segments_served",
                "sweep.shard_requests"
            ]
        );
    }

    #[test]
    fn prometheus_text_carries_per_endpoint_quantiles() {
        let m = Metrics::new();
        m.record(Some(Endpoint::Check), 200, Duration::from_micros(500));
        m.record(Some(Endpoint::Check), 503, Duration::from_micros(100));
        let mut out = String::new();
        consensus_obs::prom::write_snapshot(&mut out, &own(&m));
        assert!(out.contains("# TYPE consensus_http_request_check_ns summary\n"));
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                out.contains(&format!("consensus_http_request_check_ns{{quantile=\"{q}\"}}")),
                "missing quantile {q} in:\n{out}"
            );
        }
        assert!(out.contains("consensus_http_errors_5xx_total 1\n"));
        assert!(out.contains("consensus_http_errors_4xx_total 0\n"));
        assert!(out.contains("consensus_http_request_check_ns_count 2\n"));
        assert!(out.contains("consensus_http_request_check_ns_max 500000\n"));
        // Exactly one TYPE header per family.
        let headers = out.matches("# TYPE consensus_http_request_check_ns ").count();
        assert_eq!(headers, 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = Metrics::new();
        m.connection_accepted();
        m.record(Some(Endpoint::Catalog), 200, Duration::from_micros(50));
        m.record(None, 404, Duration::from_micros(10));
        // A sample past i64::MAX lands in the last bucket, whose bound is
        // u64::MAX: the encoding must carry it too.
        m.latency[Endpoint::Trace as usize].record(u64::MAX);
        let snap = m.snapshot();
        let text = snapshot_to_json(&snap).to_string();
        let decoded = snapshot_from_json(&json::parse(&text).unwrap()).expect("decodes");
        assert_eq!(decoded, snap);
        assert_eq!(snapshot_to_json(&decoded).to_string(), text, "encoding is deterministic");
        let catalog = json::parse(&text).unwrap();
        let catalog = catalog.get("histograms_ns").unwrap().get("http.request.catalog").unwrap();
        for key in ["count", "sum", "max", "p50", "p90", "p99", "buckets"] {
            assert!(catalog.get(key).is_some(), "missing {key}");
        }
        // Not a snapshot: no answer rather than a partial one.
        assert_eq!(snapshot_from_json(&json::parse(r#"{"counters":{}}"#).unwrap()), None);
        let bad_bucket = r#"{"counters":{},"gauges":{},"histograms_ns":{"h":
            {"count":1,"sum":1,"max":1,"buckets":[[1]]}}}"#;
        assert_eq!(snapshot_from_json(&json::parse(bad_bucket).unwrap()), None);
    }
}
