//! Trace-file tooling: parse, validate, and render the JSONL span files
//! written by `--trace-out`.
//!
//! A trace file holds one [`consensus_obs::trace::SpanRecord`] per line
//! (see its `to_jsonl`). This module is the *consumer* side: the
//! `consensus-lab trace-check` CI step validates every line against the
//! span schema and asserts the parent/child nesting is well-formed, and
//! `consensus-lab report --timings` renders the per-stage time-tree that
//! makes cold-sweep hotspots visible.

use std::collections::HashMap;

use crate::json::{self, Value};

/// The span names the workspace emits; `trace-check` rejects anything
/// else so a schema drift fails CI instead of silently polluting traces.
pub const KNOWN_SPANS: &[&str] = &[
    "sweep",
    "analysis.solvability",
    "analysis.bivalence",
    "analysis.broadcastability",
    "analysis.component-stats",
    "analysis.sim-check",
    "cache.lookup",
    "cert.extract",
    "cert.verify",
    "journal.load",
    "record.encode",
    "expand",
    "absorb",
    "components",
    "http.request",
    "cluster.sweep",
    "cluster.shard",
    "cluster.spotcheck",
];

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// The span name.
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// The parent span's id, if any.
    pub parent: Option<u64>,
    /// Microseconds from the trace epoch to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// The attribute object, kept as parsed JSON.
    pub attrs: Value,
}

impl TraceSpan {
    /// Parse one JSONL line against the span schema. Errors name the
    /// missing or mistyped field.
    ///
    /// # Errors
    /// Returns a message describing the first schema violation.
    pub fn parse(line: &str) -> Result<TraceSpan, String> {
        let v = json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        let Value::Obj(ref fields) = v else {
            return Err("line is not a JSON object".into());
        };
        let allowed = ["span", "id", "parent", "start_us", "dur_us", "attrs"];
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown field {key:?}"));
            }
        }
        let name = v
            .get("span")
            .and_then(Value::as_str)
            .ok_or("missing or non-string \"span\"")?
            .to_string();
        let id = v.get("id").and_then(as_u64).ok_or("missing or non-integer \"id\"")?;
        if id == 0 {
            return Err("span id must be positive".into());
        }
        let parent = match v.get("parent") {
            None => return Err("missing \"parent\" (use null for roots)".into()),
            Some(Value::Null) => None,
            Some(p) => Some(as_u64(p).ok_or("non-integer \"parent\"")?),
        };
        let start_us = v
            .get("start_us")
            .and_then(as_u64)
            .ok_or("missing or non-integer \"start_us\"")?;
        let dur_us = v.get("dur_us").and_then(as_u64).ok_or("missing or non-integer \"dur_us\"")?;
        let attrs = v.get("attrs").cloned().ok_or("missing \"attrs\"")?;
        if !matches!(attrs, Value::Obj(_)) {
            return Err("\"attrs\" is not an object".into());
        }
        Ok(TraceSpan { name, id, parent, start_us, dur_us, attrs })
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    v.as_i64().and_then(|n| u64::try_from(n).ok())
}

/// What [`validate`] certifies about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Spans in the file.
    pub spans: usize,
    /// Spans with no parent.
    pub roots: usize,
}

/// Parse and validate a whole trace file: every line must satisfy the
/// span schema with a [known](KNOWN_SPANS) span name and a unique id;
/// every parent reference must resolve to a span in the file; and every
/// child's `[start, start+dur]` interval must lie within its parent's —
/// the well-formed-nesting guarantee the guard discipline provides.
///
/// # Errors
/// Returns `Err` naming the first offending line (1-based) and why.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let span = TraceSpan::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if !KNOWN_SPANS.contains(&span.name.as_str()) {
            return Err(format!("line {}: unknown span name {:?}", lineno + 1, span.name));
        }
        spans.push((lineno + 1, span));
    }
    let mut by_id: HashMap<u64, &TraceSpan> = HashMap::with_capacity(spans.len());
    for (lineno, span) in &spans {
        if by_id.insert(span.id, span).is_some() {
            return Err(format!("line {lineno}: duplicate span id {}", span.id));
        }
    }
    let mut roots = 0;
    for (lineno, span) in &spans {
        match span.parent {
            None => roots += 1,
            Some(pid) => {
                let parent = by_id
                    .get(&pid)
                    .ok_or_else(|| format!("line {lineno}: parent {pid} not in trace"))?;
                if pid == span.id {
                    return Err(format!("line {lineno}: span {} is its own parent", span.id));
                }
                // Containment only holds within one process: `start_us`
                // counts from each process's own trace epoch, so a
                // stitched cross-node edge (the child and parent carry
                // different `node` labels, or only one side carries one)
                // compares incommensurable clocks and is exempt.
                let child_node = span.attrs.get("node").and_then(Value::as_str);
                let parent_node = parent.attrs.get("node").and_then(Value::as_str);
                if child_node == parent_node {
                    let child_end = span.start_us + span.dur_us;
                    let parent_end = parent.start_us + parent.dur_us;
                    if span.start_us < parent.start_us || child_end > parent_end {
                        return Err(format!(
                            "line {lineno}: span {} [{}, {child_end}]us escapes parent {} \
                             [{}, {parent_end}]us",
                            span.id, span.start_us, pid, parent.start_us,
                        ));
                    }
                }
            }
        }
    }
    // Parent links must be acyclic. Non-root spans point at file-resident
    // parents; follow each chain with a step bound so a (schema-valid but
    // pathological) parent cycle is reported, not looped on.
    for (lineno, span) in &spans {
        let mut cursor = span.parent;
        let mut steps = 0;
        while let Some(pid) = cursor {
            steps += 1;
            if steps > spans.len() {
                return Err(format!("line {lineno}: parent chain of span {} cycles", span.id));
            }
            cursor = by_id[&pid].parent;
        }
    }
    Ok(TraceSummary { spans: spans.len(), roots })
}

/// One row of the aggregated time-tree: a stage (span name) at one
/// nesting path, with call count and total duration.
#[derive(Debug, Clone, PartialEq)]
struct TreeRow {
    path: Vec<String>,
    count: usize,
    total_us: u64,
}

/// Render the per-stage time-tree of a validated trace: spans aggregated
/// by their *name path* (root stage → … → this stage), indented, with
/// call counts, total wall time, and the percentage of the traced root
/// total — `consensus-lab report --timings`.
pub fn render_timings(spans: &[TraceSpan]) -> String {
    let by_id: HashMap<u64, &TraceSpan> = spans.iter().map(|s| (s.id, s)).collect();
    let path_of = |span: &TraceSpan| -> Vec<String> {
        let mut path = vec![span.name.clone()];
        let mut cursor = span.parent;
        let mut steps = 0;
        while let Some(pid) = cursor {
            steps += 1;
            if steps > spans.len() {
                break; // cyclic parents: truncate rather than hang
            }
            let Some(parent) = by_id.get(&pid) else { break };
            path.push(parent.name.clone());
            cursor = parent.parent;
        }
        path.reverse();
        path
    };
    let mut rows: Vec<TreeRow> = Vec::new();
    for span in spans {
        let path = path_of(span);
        match rows.iter_mut().find(|r| r.path == path) {
            Some(row) => {
                row.count += 1;
                row.total_us += span.dur_us;
            }
            None => rows.push(TreeRow { path, count: 1, total_us: span.dur_us }),
        }
    }
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    let root_total: u64 = rows
        .iter()
        .filter(|r| r.path.len() == 1)
        .map(|r| r.total_us)
        .sum::<u64>()
        .max(1);
    let name_width = rows
        .iter()
        .map(|r| 2 * (r.path.len() - 1) + r.path.last().map_or(0, String::len))
        .max()
        .unwrap_or(0)
        .max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_width$}  {:>7}  {:>12}  {:>6}\n",
        "stage", "calls", "total_ms", "share"
    ));
    for row in &rows {
        let indent = "  ".repeat(row.path.len() - 1);
        let name = row.path.last().expect("paths are nonempty");
        let label = format!("{indent}{name}");
        out.push_str(&format!(
            "{label:<name_width$}  {:>7}  {:>12.3}  {:>5.1}%\n",
            row.count,
            row.total_us as f64 / 1e3,
            100.0 * row.total_us as f64 / root_total as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_obs::trace::tracer;

    fn line(name: &str, id: u64, parent: Option<u64>, start: u64, dur: u64) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"span\":\"{name}\",\"id\":{id},\"parent\":{parent},\
             \"start_us\":{start},\"dur_us\":{dur},\"attrs\":{{}}}}"
        )
    }

    #[test]
    fn valid_nested_trace_passes() {
        let text = [
            line("expand", 2, Some(1), 5, 10),
            line("components", 3, Some(2), 6, 4),
            line("cache.lookup", 1, None, 0, 100),
        ]
        .join("\n");
        let summary = validate(&text).unwrap();
        assert_eq!(summary, TraceSummary { spans: 3, roots: 1 });
        assert_eq!(validate("").unwrap(), TraceSummary { spans: 0, roots: 0 });
    }

    #[test]
    fn schema_violations_are_named() {
        assert!(validate("not json").unwrap_err().contains("line 1"));
        assert!(validate("{\"span\":\"expand\"}").unwrap_err().contains("\"id\""));
        let unknown = line("mystery", 1, None, 0, 1);
        assert!(validate(&unknown).unwrap_err().contains("unknown span name"));
        let missing_parent = line("expand", 2, Some(9), 0, 1);
        assert!(validate(&missing_parent).unwrap_err().contains("parent 9 not in trace"));
        let dup = [line("expand", 1, None, 0, 1), line("expand", 1, None, 0, 1)].join("\n");
        assert!(validate(&dup).unwrap_err().contains("duplicate"));
        let extra = "{\"span\":\"expand\",\"id\":1,\"parent\":null,\"start_us\":0,\
                     \"dur_us\":1,\"attrs\":{},\"bonus\":1}";
        assert!(validate(extra).unwrap_err().contains("unknown field"));
    }

    #[test]
    fn containment_violations_fail() {
        let escapes =
            [line("expand", 1, None, 10, 5), line("components", 2, Some(1), 8, 3)].join("\n");
        assert!(validate(&escapes).unwrap_err().contains("escapes parent"));
        let self_parent = line("expand", 1, Some(1), 0, 1);
        assert!(validate(&self_parent).unwrap_err().contains("its own parent"));
    }

    #[test]
    fn cross_node_edges_are_exempt_from_containment() {
        // A stitched worker span's clock counts from its own process
        // epoch, so in raw micros it may "escape" its coordinator-side
        // parent; the differing `node` labelling exempts the edge.
        let parent = line("cluster.shard", 1, None, 1000, 50);
        let child = "{\"span\":\"http.request\",\"id\":4294967297,\"parent\":1,\
                     \"start_us\":5,\"dur_us\":3,\"attrs\":{\"node\":\"127.0.0.1:9\"}}";
        let summary = validate(&format!("{parent}\n{child}")).unwrap();
        assert_eq!(summary, TraceSummary { spans: 2, roots: 1 });
        // Two spans on the *same* node share a clock: still enforced.
        let a = "{\"span\":\"http.request\",\"id\":10,\"parent\":null,\
                 \"start_us\":10,\"dur_us\":5,\"attrs\":{\"node\":\"w\"}}";
        let b = "{\"span\":\"expand\",\"id\":11,\"parent\":10,\
                 \"start_us\":2,\"dur_us\":3,\"attrs\":{\"node\":\"w\"}}";
        assert!(validate(&format!("{a}\n{b}")).unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn real_tracer_output_validates() {
        // End-to-end: what the tracer writes, this module certifies. The
        // tracer is process-global and other tests in this binary open
        // spans on their own threads while it is on, so only the subtree
        // of this test's root span is checked.
        tracer().disable();
        let _ = tracer().drain();
        tracer().enable();
        let root_id = {
            let root = tracer().span("cache.lookup");
            let _inner = tracer().span("expand");
            root.id().expect("tracing is enabled")
        };
        tracer().disable();
        // Spans record as they close, children first; newest first, every
        // parent precedes its children.
        let mut ours = vec![root_id];
        let mut text = String::new();
        for r in tracer().drain().iter().rev() {
            if r.id == root_id || r.parent.is_some_and(|p| ours.contains(&p)) {
                ours.push(r.id);
                text += &(r.to_jsonl() + "\n");
            }
        }
        let summary = validate(&text).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.roots, 1);
    }

    #[test]
    fn timings_tree_aggregates_by_path() {
        let spans: Vec<TraceSpan> = [
            line("sweep", 1, None, 0, 1000),
            line("analysis.solvability", 2, Some(1), 0, 400),
            line("analysis.solvability", 3, Some(1), 400, 400),
            line("cache.lookup", 4, Some(2), 0, 300),
            line("cache.lookup", 5, Some(3), 400, 100),
            line("expand", 6, Some(4), 0, 200),
        ]
        .iter()
        .map(|l| TraceSpan::parse(l).unwrap())
        .collect();
        let tree = render_timings(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("stage"));
        assert!(lines[1].starts_with("sweep"));
        assert!(lines[2].starts_with("  analysis.solvability"));
        assert!(lines[2].contains('2'), "two analysis spans aggregate: {}", lines[2]);
        assert!(lines[3].starts_with("    cache.lookup"));
        assert!(lines[4].starts_with("      expand"));
        // The two cache.lookup spans sum to 0.4 ms of the 1 ms root.
        assert!(lines[3].contains("0.400"), "{}", lines[3]);
        assert!(lines[3].contains("40.0%"), "{}", lines[3]);
    }
}
