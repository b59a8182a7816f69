//! The serializable result store: scenario records, JSONL and CSV emission.
//!
//! Records carry three layers: identity (scenario index, adversary label,
//! fingerprint, depth, analysis), outcome (verdict plus analysis-specific
//! detail fields), and telemetry (state-space sizes, cache hit flag,
//! wall-clock time). Two telemetry fields are scheduling-dependent — the
//! wall clock, and which concurrent requester won a cache-build race —
//! and [`TIMING_FIELDS`] names them so tests and downstream tooling can
//! compare result files modulo that nondeterminism.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use consensus_core::space::SpaceStats;
use consensus_obs::trace::tracer;

use crate::json::{self, Value};
use crate::scenario::AnalysisKind;

/// JSONL fields whose values may vary between identical runs: wall-clock
/// time, and the cache-hit flag (a race between workers decides which
/// request builds a shared space).
pub const TIMING_FIELDS: &[&str] = &["wall_ms", "cached_space"];

/// The outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The verdict tag: `solvable`, `unsolvable`, `undecided`, `separated`,
    /// `mixed`, `broadcastable`, `obstructed`, `passed`, `failed`,
    /// `budget-exceeded`, or `error`.
    pub verdict: String,
    /// Analysis-specific detail fields, deterministic and order-stable
    /// (owned keys so outcomes can be reconstituted from stored JSONL —
    /// the resume/merge/disk-cache paths).
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// An outcome with no details.
    pub fn tag(verdict: &str) -> Self {
        Outcome { verdict: verdict.to_string(), details: Vec::new() }
    }

    /// Append a detail field.
    pub fn with(mut self, key: impl Into<String>, value: Value) -> Self {
        self.details.push((key.into(), value));
        self
    }
}

/// One executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Position in the scenario grid (result order is grid order).
    pub index: usize,
    /// The spec label (catalog name or pool description).
    pub adversary: String,
    /// The adversary's self-description.
    pub describe: String,
    /// Structural fingerprint (the cache key component).
    pub fingerprint: u64,
    /// Number of processes.
    pub n: usize,
    /// Whether the adversary is compact.
    pub compact: bool,
    /// The scenario depth.
    pub depth: usize,
    /// The analysis that ran.
    pub analysis: AnalysisKind,
    /// Verdict and details.
    pub outcome: Outcome,
    /// Catalog ground truth (`None` = not a catalog entry / not pinned).
    pub expected: Option<Option<bool>>,
    /// Whether the solvability verdict matched `expected` (solvability
    /// scenarios on catalog entries only).
    pub matches_expected: Option<bool>,
    /// The checkable certificate (the `consensus-cert/v1` JSON object of
    /// [`consensus_core::certificate`]), attached when the scenario opted
    /// in and the verdict is definitive. Shared: the records and journal
    /// entries of one spec's verdict hold one copy.
    pub certificate: Option<Arc<Value>>,
    /// State-space telemetry of the deepest space this scenario touched.
    pub space: Option<SpaceStats>,
    /// Whether that space came out of the shared cache.
    pub cached_space: Option<bool>,
    /// Whether a step budget cut the analysis short.
    pub budget_hit: bool,
    /// Wall-clock milliseconds (timing; excluded from determinism).
    pub wall_ms: f64,
}

/// One field value of a record, borrowed from it.
#[derive(Clone, Copy)]
enum Field<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
    /// A fingerprint: 16 lowercase hex digits, as a string.
    Hex(u64),
    /// The space counters, as a `runs`/`views`/`components` object.
    Space(SpaceStats),
    Json(&'a Value),
}

impl Field<'_> {
    fn to_value(self) -> Value {
        match self {
            Field::Null => Value::Null,
            Field::Bool(b) => Value::Bool(b),
            Field::Int(i) => Value::Int(i),
            Field::Float(x) => Value::Float(x),
            Field::Str(s) => Value::Str(s.to_string()),
            Field::Hex(x) => Value::Str(format!("{x:016x}")),
            Field::Space(stats) => object_value(&space_fields(stats)),
            Field::Json(v) => v.clone(),
        }
    }

    /// Append the field's JSON text, byte for byte what
    /// [`Value::write_to`] writes for [`to_value`](Self::to_value).
    fn write_to(self, out: &mut String) {
        match self {
            // A scalar `Value` owns no allocation.
            Field::Null | Field::Bool(_) | Field::Int(_) | Field::Float(_) => {
                self.to_value().write_to(out);
            }
            Field::Str(s) => json::write_str(out, s),
            Field::Hex(x) => {
                use std::fmt::Write;
                write!(out, "\"{x:016x}\"").expect("writing to a String cannot fail");
            }
            Field::Space(stats) => write_object(out, &space_fields(stats)),
            Field::Json(v) => v.write_to(out),
        }
    }
}

fn space_fields(stats: SpaceStats) -> [(&'static str, Field<'static>); 3] {
    [
        ("runs", Field::Int(stats.runs as i64)),
        ("views", Field::Int(stats.views as i64)),
        ("components", Field::Int(stats.components as i64)),
    ]
}

fn object_value(fields: &[(&str, Field<'_>)]) -> Value {
    Value::Obj(fields.iter().map(|&(k, v)| (k.to_string(), v.to_value())).collect())
}

fn write_object(out: &mut String, fields: &[(&str, Field<'_>)]) {
    out.push('{');
    for (i, &(k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        v.write_to(out);
    }
    out.push('}');
}

impl ScenarioRecord {
    /// The record's fields in output order, borrowed from it: the one
    /// place that order lives.
    fn fields(&self) -> Vec<(&str, Field<'_>)> {
        let mut fields = Vec::with_capacity(15 + self.outcome.details.len());
        fields.extend([
            ("index", Field::Int(self.index as i64)),
            ("adversary", Field::Str(&self.adversary)),
            ("describe", Field::Str(&self.describe)),
            ("fingerprint", Field::Hex(self.fingerprint)),
            ("n", Field::Int(self.n as i64)),
            ("compact", Field::Bool(self.compact)),
            ("depth", Field::Int(self.depth as i64)),
            ("analysis", Field::Str(self.analysis.name())),
            ("verdict", Field::Str(&self.outcome.verdict)),
        ]);
        fields.extend(self.outcome.details.iter().map(|(k, v)| (k.as_str(), Field::Json(v))));
        fields.push((
            "expected",
            match self.expected {
                None => Field::Null,
                Some(None) => Field::Str("mixed"),
                Some(Some(true)) => Field::Str("solvable"),
                Some(Some(false)) => Field::Str("unsolvable"),
            },
        ));
        if let Some(m) = self.matches_expected {
            fields.push(("matches_expected", Field::Bool(m)));
        }
        // After `expected`, the positional-details anchor: everything
        // between `verdict` and `expected` is outcome detail, so the
        // certificate object must land strictly after.
        if let Some(cert) = &self.certificate {
            fields.push(("certificate", Field::Json(cert)));
        }
        if let Some(stats) = self.space {
            fields.push(("space", Field::Space(stats)));
        }
        if let Some(cached) = self.cached_space {
            fields.push(("cached_space", Field::Bool(cached)));
        }
        fields.push(("budget_hit", Field::Bool(self.budget_hit)));
        fields.push(("wall_ms", Field::Float(self.wall_ms)));
        fields
    }

    /// The record as an order-stable JSON object.
    pub fn to_json(&self) -> Value {
        object_value(&self.fields())
    }

    /// Append the record's JSON text to `out`: byte for byte
    /// `to_json().to_string()`, without building the tree or copying the
    /// certificate.
    pub fn write_to(&self, out: &mut String) {
        write_object(out, &self.fields());
    }

    /// Reconstitute a record from its [`to_json`](Self::to_json) form —
    /// the inverse used by `--resume`, `merge`, and the disk cache. Detail
    /// fields are recovered positionally: everything between `verdict` and
    /// `expected` belongs to the outcome (those two anchors are emitted
    /// unconditionally).
    ///
    /// # Errors
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(v: &Value) -> Result<ScenarioRecord, String> {
        let Value::Obj(fields) = v else {
            return Err("record is not a JSON object".to_string());
        };
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let int_field = |key: &str| -> Result<usize, String> {
            v.get_usize(key).ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let bool_field = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("missing boolean field {key:?}"))
        };

        let fingerprint_hex = str_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16)
            .map_err(|_| format!("bad fingerprint {fingerprint_hex:?}"))?;
        let analysis_name = str_field("analysis")?;
        let analysis = AnalysisKind::parse(&analysis_name).map_err(|e| e.to_string())?;
        let depth = int_field("depth")?;

        let verdict_at = fields
            .iter()
            .position(|(k, _)| k == "verdict")
            .ok_or_else(|| "missing field \"verdict\"".to_string())?;
        let expected_at = fields
            .iter()
            .position(|(k, _)| k == "expected")
            .ok_or_else(|| "missing field \"expected\"".to_string())?;
        if expected_at < verdict_at {
            return Err("field order corrupted: \"expected\" precedes \"verdict\"".to_string());
        }
        let details: Vec<(String, Value)> = fields[verdict_at + 1..expected_at].to_vec();
        let expected = match &fields[expected_at].1 {
            Value::Null => None,
            Value::Str(s) if s == "mixed" => Some(None),
            Value::Str(s) if s == "solvable" => Some(Some(true)),
            Value::Str(s) if s == "unsolvable" => Some(Some(false)),
            other => return Err(format!("bad expected value {other}")),
        };
        let space = match v.get("space") {
            None => None,
            Some(obj) => {
                let field = |key: &str| -> Result<usize, String> {
                    obj.get_usize(key).ok_or_else(|| format!("missing space field {key:?}"))
                };
                // Space analyses always record the space at the scenario
                // depth (solvability records carry no space object).
                Some(SpaceStats {
                    depth,
                    runs: field("runs")?,
                    views: field("views")?,
                    components: field("components")?,
                })
            }
        };
        Ok(ScenarioRecord {
            index: int_field("index")?,
            adversary: str_field("adversary")?,
            describe: str_field("describe")?,
            fingerprint,
            n: int_field("n")?,
            compact: bool_field("compact")?,
            depth,
            analysis,
            outcome: Outcome { verdict: str_field("verdict")?, details },
            expected,
            matches_expected: v.get("matches_expected").and_then(Value::as_bool),
            certificate: v.get("certificate").cloned().map(Arc::new),
            space,
            cached_space: v.get("cached_space").and_then(Value::as_bool),
            budget_hit: bool_field("budget_hit")?,
            wall_ms: match v.get("wall_ms") {
                Some(Value::Float(x)) => *x,
                Some(Value::Int(i)) => *i as f64,
                // The encoder writes a non-finite float as `null`.
                Some(Value::Null) => f64::NAN,
                _ => return Err("missing numeric field \"wall_ms\"".to_string()),
            },
        })
    }

    /// The scenario-identity key `(adversary label, depth, analysis)` —
    /// what `--resume` and shard merging match records on.
    pub fn identity(&self) -> (String, usize, AnalysisKind) {
        (self.adversary.clone(), self.depth, self.analysis)
    }

    /// The CSV summary row (see [`csv_header`]).
    pub fn to_csv_row(&self) -> String {
        let space = self.space.unwrap_or(SpaceStats {
            depth: self.depth,
            runs: 0,
            views: 0,
            components: 0,
        });
        [
            self.index.to_string(),
            csv_quote(&self.adversary),
            self.depth.to_string(),
            self.analysis.name().to_string(),
            csv_quote(&self.outcome.verdict),
            match self.expected {
                None => String::new(),
                Some(None) => "mixed".into(),
                Some(Some(true)) => "solvable".into(),
                Some(Some(false)) => "unsolvable".into(),
            },
            self.matches_expected.map(|m| m.to_string()).unwrap_or_default(),
            space.runs.to_string(),
            space.views.to_string(),
            space.components.to_string(),
            self.cached_space.map(|c| c.to_string()).unwrap_or_default(),
            self.budget_hit.to_string(),
            format!("{:.3}", self.wall_ms),
        ]
        .join(",")
    }
}

/// The CSV header matching [`ScenarioRecord::to_csv_row`].
pub fn csv_header() -> &'static str {
    "index,adversary,depth,analysis,verdict,expected,matches_expected,\
     runs,views,components,cached_space,budget_hit,wall_ms"
}

fn csv_quote(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// An ordered collection of records with JSONL/CSV emission.
#[derive(Debug, Default)]
pub struct ResultStore {
    records: Vec<ScenarioRecord>,
}

impl ResultStore {
    /// Wrap records (already in grid order).
    pub fn new(records: Vec<ScenarioRecord>) -> Self {
        ResultStore { records }
    }

    /// The records.
    pub fn records(&self) -> &[ScenarioRecord] {
        &self.records
    }

    /// Consume the store, yielding the records (the single-query path of
    /// `Session::check` pops its one record this way).
    pub fn into_records(self) -> Vec<ScenarioRecord> {
        self.records
    }

    /// One JSON object per line, in grid order, appended into one buffer
    /// under a `record.encode` span.
    pub fn to_jsonl(&self) -> String {
        let _span = tracer().span("record.encode").with_attr("records", self.records.len());
        let mut out = String::new();
        for r in &self.records {
            r.write_to(&mut out);
            out.push('\n');
        }
        out
    }

    /// The CSV summary (header + one row per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(csv_header());
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Write `results.jsonl` and `summary.csv` under `dir` (created if
    /// missing); returns the two paths.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_files(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        fs::create_dir_all(dir)?;
        let jsonl = dir.join("results.jsonl");
        let csv = dir.join("summary.csv");
        fs::write(&jsonl, self.to_jsonl())?;
        fs::write(&csv, self.to_csv())?;
        Ok((jsonl, csv))
    }
}

/// Parse a JSONL result file back into full [`ScenarioRecord`]s (the
/// resume/merge read path).
///
/// # Errors
/// Returns `(line_number, description)` for the first malformed line.
pub fn parse_records(text: &str) -> Result<Vec<ScenarioRecord>, (usize, String)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            json::parse(line)
                .map_err(|e| (i + 1, e.to_string()))
                .and_then(|v| ScenarioRecord::from_json(&v).map_err(|e| (i + 1, e)))
        })
        .collect()
}

/// Parse a JSONL result file back into JSON objects (for `report`).
///
/// # Errors
/// Returns the first malformed line as `(line_number, error)`.
pub fn parse_jsonl(text: &str) -> Result<Vec<Value>, (usize, json::ParseError)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| json::parse(line).map_err(|e| (i + 1, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ScenarioRecord {
        ScenarioRecord {
            index: 3,
            adversary: "sw-lossy-link".into(),
            describe: "oblivious(|pool|=3)".into(),
            fingerprint: 0xdead_beef,
            n: 2,
            compact: true,
            depth: 2,
            analysis: AnalysisKind::Solvability,
            outcome: Outcome::tag("undecided")
                .with("mixed_components", Value::Int(1))
                .with("chain_found", Value::Bool(true)),
            expected: Some(None),
            matches_expected: Some(true),
            certificate: None,
            space: Some(SpaceStats { depth: 2, runs: 36, views: 40, components: 3 }),
            cached_space: Some(false),
            budget_hit: false,
            wall_ms: 1.25,
        }
    }

    #[test]
    fn json_roundtrips_and_orders_keys() {
        let r = record();
        let line = r.to_json().to_string();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("adversary").unwrap().as_str(), Some("sw-lossy-link"));
        assert_eq!(v.get("mixed_components").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("space").unwrap().get("runs").unwrap().as_i64(), Some(36));
        assert!(line.starts_with(r#"{"index":3,"adversary":"#));
        assert!(line.ends_with("\"wall_ms\":1.25}"));
    }

    #[test]
    fn timing_strip_makes_records_comparable() {
        let mut a = record();
        let mut b = record();
        a.wall_ms = 1.0;
        b.wall_ms = 999.0;
        assert_ne!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(
            a.to_json().without_keys(TIMING_FIELDS),
            b.to_json().without_keys(TIMING_FIELDS)
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let store = ResultStore::new(vec![record()]);
        let csv = store.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), csv_header());
        let row = lines.next().unwrap();
        assert!(row.starts_with("3,sw-lossy-link,2,solvability,undecided,mixed,true,36,40,3,"));
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn record_roundtrips_through_json_byte_identically() {
        let r = record();
        let line = r.to_json().to_string();
        let back = ScenarioRecord::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        // Byte-stable re-emission is what makes shard merging exact.
        assert_eq!(back.to_json().to_string(), line);
        assert_eq!(back.to_csv_row(), r.to_csv_row());
        assert_eq!(back.identity(), ("sw-lossy-link".to_string(), 2, AnalysisKind::Solvability));
    }

    #[test]
    fn from_json_rejects_malformed_records() {
        for bad in [
            r#"{"index":0}"#,
            r#"[1,2]"#,
            r#"{"index":0,"adversary":"a","describe":"","fingerprint":"zz","n":2,"compact":true,"depth":1,"analysis":"solvability","verdict":"solvable","expected":null,"budget_hit":false,"wall_ms":1.0}"#,
            r#"{"index":0,"adversary":"a","describe":"","fingerprint":"ff","n":2,"compact":true,"depth":1,"analysis":"nope","verdict":"solvable","expected":null,"budget_hit":false,"wall_ms":1.0}"#,
        ] {
            let v = crate::json::parse(bad).unwrap();
            assert!(ScenarioRecord::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn jsonl_parses_back() {
        let store = ResultStore::new(vec![record(), record()]);
        let parsed = parse_jsonl(&store.to_jsonl()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].get("verdict").unwrap().as_str(), Some("undecided"));
    }
}
