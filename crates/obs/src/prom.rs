//! Prometheus text-exposition rendering (version 0.0.4): small
//! push-style helpers a server composes into one page. Callers emit one
//! [`write_type`] header per metric family, then any number of
//! [`write_sample`] lines — which keeps multi-series families to a single
//! `# TYPE` line, as the format requires. [`write_snapshot`] renders a
//! whole [`RegistrySnapshot`] that way.

use crate::metrics::RegistrySnapshot;

/// The `Content-Type` for Prometheus text exposition.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Map a dotted metric name to the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character becomes `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Append a `# TYPE` header. `kind` is `counter`, `gauge`, `summary`, or
/// `histogram`.
pub fn write_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Append one sample line: `name{labels} value`. Labels are rendered in
/// the order given; an empty slice omits the braces. Non-finite values
/// render as `NaN` per the exposition format.
pub fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(key);
            out.push_str("=\"");
            for c in val.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    if value.is_finite() {
        // Integral values print without a fraction — Prometheus accepts
        // both, and this keeps counters byte-stable.
        if value.fract() == 0.0 && value.abs() < 1e15 {
            out.push_str(&format!("{}", value as i64));
        } else {
            out.push_str(&format!("{value}"));
        }
    } else {
        out.push_str("NaN");
    }
    out.push('\n');
}

/// Append every metric of `snap`, in its name order, each as its own
/// family named `consensus_<name>` (through [`metric_name`]): a counter
/// as `consensus_<name>_total`, a gauge as `consensus_<name>`, and a
/// histogram as the summary `consensus_<name>_ns` with its p50/p90/p99
/// quantile series plus `_max`, `_sum` and `_count` samples.
pub fn write_snapshot(out: &mut String, snap: &RegistrySnapshot) {
    for (name, value) in &snap.counters {
        let name = format!("consensus_{}_total", metric_name(name));
        write_type(out, &name, "counter");
        write_sample(out, &name, &[], *value as f64);
    }
    for (name, value) in &snap.gauges {
        let name = format!("consensus_{}", metric_name(name));
        write_type(out, &name, "gauge");
        write_sample(out, &name, &[], *value as f64);
    }
    for (name, hist) in &snap.histograms {
        let name = format!("consensus_{}_ns", metric_name(name));
        write_type(out, &name, "summary");
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            write_sample(out, &name, &[("quantile", label)], hist.quantile(q) as f64);
        }
        write_sample(out, &format!("{name}_max"), &[], hist.max as f64);
        write_sample(out, &format!("{name}_sum"), &[], hist.sum as f64);
        write_sample(out, &format!("{name}_count"), &[], hist.count as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("cache.hits"), "cache_hits");
        assert_eq!(metric_name("stage.expand-ns"), "stage_expand_ns");
        assert_eq!(metric_name("9lives"), "_lives");
        assert_eq!(metric_name("ok_name:sub9"), "ok_name:sub9");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn samples_render_labels_and_values() {
        let mut out = String::new();
        write_type(&mut out, "http_requests_total", "counter");
        write_sample(&mut out, "http_requests_total", &[], 42.0);
        write_sample(
            &mut out,
            "http_request_duration_ms",
            &[("endpoint", "check"), ("quantile", "0.5")],
            1.25,
        );
        write_sample(&mut out, "weird", &[("v", "a\"b\\c\nd")], f64::NAN);
        assert_eq!(
            out,
            "# TYPE http_requests_total counter\n\
             http_requests_total 42\n\
             http_request_duration_ms{endpoint=\"check\",quantile=\"0.5\"} 1.25\n\
             weird{v=\"a\\\"b\\\\c\\nd\"} NaN\n"
        );
    }

    #[test]
    fn snapshots_render_one_family_per_metric() {
        let registry = crate::metrics::Registry::new();
        registry.counter("http.errors_4xx").add(2);
        registry.gauge("http.connections.active").set(1);
        let check = registry.histogram("http.request.check");
        check.record(1024);
        check.record(1536);
        let mut out = String::new();
        write_snapshot(&mut out, &registry.snapshot());
        assert_eq!(
            out,
            "# TYPE consensus_http_errors_4xx_total counter\n\
             consensus_http_errors_4xx_total 2\n\
             # TYPE consensus_http_connections_active gauge\n\
             consensus_http_connections_active 1\n\
             # TYPE consensus_http_request_check_ns summary\n\
             consensus_http_request_check_ns{quantile=\"0.5\"} 1024\n\
             consensus_http_request_check_ns{quantile=\"0.9\"} 1536\n\
             consensus_http_request_check_ns{quantile=\"0.99\"} 1536\n\
             consensus_http_request_check_ns_max 1536\n\
             consensus_http_request_check_ns_sum 2560\n\
             consensus_http_request_check_ns_count 2\n"
        );
    }
}
