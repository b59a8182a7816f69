//! The benchmark regression gate (`consensus-lab bench-gate`).
//!
//! The baseline and the fresh datum are each the result line of one
//! traced benchmark run (`perfbench/run.py --trace 1`):
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{NAME:{"value":…,"unit":…},…}}`.
//! The committed baselines are `BENCH_<workload>.json` at the repository
//! root.
//!
//! A fresh line whose answers were not all correct is refused before any
//! metric is read: a fast wrong answer is not a measurement. The unit
//! says how a metric is judged. Every baseline metric whose unit is `count`
//! must match to the digit, because the seeded workload fixes runs,
//! views, cache builds and requests: a drifted count is a determinism
//! bug, not noise. The timing metrics named by `--keys` may regress up
//! to a tolerance.

use std::fmt;

use crate::json::Value;

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Timing: fresh may exceed baseline by at most the tolerance.
    Timing,
    /// A `count` metric: fresh must equal baseline exactly.
    Exact,
}

/// The judgement of one compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLine {
    /// The metric name.
    pub key: String,
    /// The metric's unit, as the baseline states it.
    pub unit: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Judgement rule applied.
    pub kind: GateKind,
    /// Whether the metric passed.
    pub ok: bool,
}

impl fmt::Display for GateLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.ok { "ok" } else { "FAIL" };
        let (key, unit) = (&self.key, &self.unit);
        match self.kind {
            GateKind::Timing => {
                let ratio = if self.baseline > 0.0 {
                    format!("{:.2}×", self.fresh / self.baseline)
                } else {
                    "n/a".to_string()
                };
                write!(
                    f,
                    "{verdict:<4} {key:<28} {base:>12.3} → {fresh:>12.3} {unit:<5} ({ratio})",
                    base = self.baseline,
                    fresh = self.fresh,
                )
            }
            GateKind::Exact => write!(
                f,
                "{verdict:<4} {key:<28} {base:>12} → {fresh:>12} {unit:<5} (exact)",
                base = self.baseline,
                fresh = self.fresh,
            ),
        }
    }
}

/// The full gate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Per-metric judgements: the `--keys` timings in the order given,
    /// then the baseline's `count` metrics in baseline order.
    pub lines: Vec<GateLine>,
    /// The tolerance applied to timing metrics, in percent.
    pub tolerance_pct: f64,
}

impl GateReport {
    /// Metrics that failed.
    pub fn failures(&self) -> Vec<&GateLine> {
        self.lines.iter().filter(|l| !l.ok).collect()
    }

    /// Whether every metric passed.
    pub fn passed(&self) -> bool {
        self.lines.iter().all(|l| l.ok)
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        let timings = self.lines.iter().filter(|l| l.kind == GateKind::Timing).count();
        let counts = self.lines.len() - timings;
        let failures = self.failures().len();
        if failures == 0 {
            write!(
                f,
                "bench gate passed: {timings} timing metric(s) within {:.0}% of baseline, \
                 {counts} count(s) exact",
                self.tolerance_pct
            )
        } else {
            write!(
                f,
                "bench gate FAILED: {failures} of {} metric(s) regressed beyond {:.0}% or drifted",
                self.lines.len(),
                self.tolerance_pct
            )
        }
    }
}

/// The `(value, unit)` of metric `name` in a result line.
fn metric<'a>(line: &'a Value, name: &str) -> Option<(f64, &'a str)> {
    let entry = line.get("metrics")?.get(name)?;
    Some((entry.get("value")?.as_f64()?, entry.get("unit")?.as_str()?))
}

/// Compare the `fresh` result line against the `baseline` one.
///
/// `keys` names the timing metrics; every baseline metric in unit
/// `count` is compared for equality. A timing metric whose baseline is
/// zero or below is too small to measure and never fails.
///
/// # Errors
/// Returns a message when the fresh line is not `"correct": true` with
/// `"failed": 0`, when a gated metric is missing or malformed in either
/// line, or when there is nothing to gate.
pub fn compare(
    baseline: &Value,
    fresh: &Value,
    tolerance_pct: f64,
    keys: &[String],
) -> Result<GateReport, String> {
    let correct = fresh.get("correct").and_then(Value::as_bool);
    let failed = fresh.get("failed").and_then(Value::as_i64);
    if correct != Some(true) || failed != Some(0) {
        let shown = |key| fresh.get(key).map_or("missing".to_string(), Value::to_string);
        return Err(format!(
            "refusing the fresh line: \"correct\": {}, \"failed\": {} (the gate needs true and 0)",
            shown("correct"),
            shown("failed")
        ));
    }
    let Some(Value::Obj(metrics)) = baseline.get("metrics") else {
        return Err("baseline has no \"metrics\" object".into());
    };
    let counts = metrics
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(Value::as_str) == Some("count"))
        .map(|(name, _)| name);
    let mut lines = Vec::new();
    for (kind, key) in keys
        .iter()
        .map(|k| (GateKind::Timing, k))
        .chain(counts.map(|k| (GateKind::Exact, k)))
    {
        let (base, unit) = metric(baseline, key)
            .ok_or_else(|| format!("baseline metric {key:?} is missing or malformed"))?;
        let (now, _) = metric(fresh, key)
            .ok_or_else(|| format!("fresh metric {key:?} is missing or malformed"))?;
        let ok = match kind {
            // A zero baseline means "too small to measure" — any fresh
            // value is equally unmeasurable noise, never a regression.
            GateKind::Timing => base <= 0.0 || now <= base * (1.0 + tolerance_pct / 100.0),
            GateKind::Exact => now == base,
        };
        lines.push(GateLine {
            key: key.clone(),
            unit: unit.to_string(),
            baseline: base,
            fresh: now,
            kind,
            ok,
        });
    }
    if lines.is_empty() {
        return Err("nothing to gate: the baseline has no count metrics and no --keys".into());
    }
    Ok(GateReport { lines, tolerance_pct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A result line: `correct`/`failed` as given, one metric per
    /// `(name, value, unit)`.
    fn line(correct: bool, failed: u32, metrics: &[(&str, f64, &str)]) -> Value {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
            .collect();
        parse(&format!(
            r#"{{"correct":{correct},"attempted":10,"failed":{failed},"metrics":{{{}}}}}"#,
            metrics.join(",")
        ))
        .unwrap()
    }

    fn ok_line(metrics: &[(&str, f64, &str)]) -> Value {
        line(true, 0, metrics)
    }

    fn keys(names: &[&str]) -> Vec<String> {
        names.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn within_tolerance_passes() {
        let base = ok_line(&[("expand.ms", 100.0, "ms"), ("spec.us", 10.0, "us")]);
        let fresh = ok_line(&[("expand.ms", 120.0, "ms"), ("spec.us", 9.0, "us")]);
        let report = compare(&base, &fresh, 25.0, &keys(&["expand.ms", "spec.us"])).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.lines.len(), 2);
        // Each metric prints in its own unit.
        let text = report.to_string();
        assert!(text.contains(" ms ") && text.contains(" us "), "{text}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = ok_line(&[("expand.ms", 100.0, "ms")]);
        let fresh = ok_line(&[("expand.ms", 126.0, "ms")]);
        let report = compare(&base, &fresh, 25.0, &keys(&["expand.ms"])).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 1);
        assert!(report.to_string().contains("FAILED"));
    }

    #[test]
    fn improvements_always_pass() {
        let base = ok_line(&[("expand.ms", 100.0, "ms")]);
        let fresh = ok_line(&[("expand.ms", 1.0, "ms")]);
        assert!(compare(&base, &fresh, 25.0, &keys(&["expand.ms"])).unwrap().passed());
    }

    #[test]
    fn zero_baseline_never_fails_the_timing_gate() {
        // A 0.0 baseline means "too small to measure" — any fresh value is
        // noise at the same scale, and the report must not print NaN.
        let base = ok_line(&[("cluster.merge.ms", 0.0, "ms")]);
        let fresh = ok_line(&[("cluster.merge.ms", 0.4, "ms")]);
        let report = compare(&base, &fresh, 25.0, &keys(&["cluster.merge.ms"])).unwrap();
        assert!(report.passed(), "{report}");
        assert!(report.to_string().contains("n/a"));
    }

    #[test]
    fn exact_keys_must_match_to_the_digit() {
        // Every `count` metric is gated exactly without any flag; timing
        // metrics not named by `keys` are not gated at all.
        let base = ok_line(&[
            ("expand.ms", 100.0, "ms"),
            ("expand.runs", 240.0, "count"),
            ("cache.builds", 7.0, "count"),
        ]);
        let same = ok_line(&[
            ("expand.ms", 999.0, "ms"),
            ("expand.runs", 240.0, "count"),
            ("cache.builds", 7.0, "count"),
        ]);
        let report = compare(&base, &same, 25.0, &[]).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.lines.len(), 2);
        assert!(report.lines.iter().all(|l| l.kind == GateKind::Exact));

        let drifted = ok_line(&[
            ("expand.ms", 100.0, "ms"),
            ("expand.runs", 241.0, "count"),
            ("cache.builds", 7.0, "count"),
        ]);
        let report = compare(&base, &drifted, 25.0, &keys(&["expand.ms"])).unwrap();
        assert!(!report.passed());
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].key, "expand.runs");
        assert_eq!(failures[0].kind, GateKind::Exact);
    }

    #[test]
    fn explicit_keys_restrict_the_timing_set() {
        let base = ok_line(&[("expand.ms", 100.0, "ms"), ("cache.ms", 1.0, "ms")]);
        let fresh = ok_line(&[("expand.ms", 100.0, "ms"), ("cache.ms", 99.0, "ms")]);
        // cache.ms regressed, but only expand.ms is gated.
        let report = compare(&base, &fresh, 25.0, &keys(&["expand.ms"])).unwrap();
        assert!(report.passed());
        assert_eq!(report.lines.len(), 1);
    }

    #[test]
    fn missing_fresh_key_is_an_error() {
        let base = ok_line(&[("expand.ms", 100.0, "ms")]);
        let fresh = ok_line(&[("sim_check.ms", 1.0, "ms")]);
        let err = compare(&base, &fresh, 25.0, &keys(&["expand.ms"])).unwrap_err();
        assert!(err.contains("expand.ms"), "{err}");
        // So is a count the fresh line lost.
        let base = ok_line(&[("expand.runs", 240.0, "count")]);
        let err = compare(&base, &fresh, 25.0, &[]).unwrap_err();
        assert!(err.contains("expand.runs"), "{err}");
    }

    #[test]
    fn incorrect_or_failed_fresh_line_is_refused() {
        let base = ok_line(&[("expand.runs", 240.0, "count")]);
        for fresh in [
            line(false, 0, &[("expand.runs", 240.0, "count")]),
            line(true, 1, &[("expand.runs", 240.0, "count")]),
        ] {
            let err = compare(&base, &fresh, 25.0, &[]).unwrap_err();
            assert!(err.contains("refusing"), "{err}");
        }
    }

    #[test]
    fn empty_gate_is_an_error() {
        let base = ok_line(&[("expand.ms", 100.0, "ms")]);
        let err = compare(&base, &base, 25.0, &[]).unwrap_err();
        assert!(err.contains("nothing to gate"));
    }
}
