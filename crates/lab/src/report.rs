//! Aggregation over stored result files (the `report` CLI subcommand),
//! plus the sweep-metadata sidecar that carries engine telemetry — cache
//! counters in particular — alongside the per-record JSONL.

use std::collections::BTreeMap;
use std::fmt;

use crate::cache::{CacheStats, ExpandTotals};
use crate::json::Value;

/// File name of the engine-telemetry sidecar a sweep writes next to
/// `results.jsonl`.
pub const SWEEP_META_FILE: &str = "sweep-meta.json";

/// Engine telemetry of one sweep (or the sum over merged shards): what the
/// records themselves cannot carry — how the cache hierarchy performed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepMeta {
    /// Scenario records in the accompanying results file (a warm or
    /// resumed run reports the full set, not just what it re-executed).
    pub scenarios: usize,
    /// Worker threads used (maximum over merged shards).
    pub threads: usize,
    /// Space/disk cache counters accumulated over the sweep.
    pub cache: CacheStats,
    /// Expansion-engine telemetry: passes and peak arena bytes.
    pub expand: ExpandTotals,
}

impl SweepMeta {
    /// The order-stable JSON form written to [`SWEEP_META_FILE`].
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("scenarios".into(), Value::Int(self.scenarios as i64)),
            ("threads".into(), Value::Int(self.threads as i64)),
            (
                "cache".into(),
                Value::Obj(vec![
                    ("builds".into(), Value::Int(self.cache.builds as i64)),
                    ("hits".into(), Value::Int(self.cache.hits as i64)),
                    ("ladder_hits".into(), Value::Int(self.cache.ladder_hits as i64)),
                    ("disk_hits".into(), Value::Int(self.cache.disk_hits as i64)),
                    ("budget_misses".into(), Value::Int(self.cache.budget_misses as i64)),
                ]),
            ),
            (
                "expand".into(),
                Value::Obj(vec![
                    ("passes".into(), Value::Int(self.expand.passes as i64)),
                    ("arena_bytes_peak".into(), Value::Int(self.expand.arena_bytes_peak as i64)),
                ]),
            ),
        ])
    }

    /// Parse the JSON form back; `None` if any field is missing/ill-typed.
    /// The `expand` block is optional (sidecars written before it existed
    /// parse to zeroed telemetry), and keys it no longer writes (`shards`,
    /// `merge_ms`, from sweeps that sharded expansion) are ignored.
    pub fn from_json(v: &Value) -> Option<SweepMeta> {
        let cache = v.get("cache")?;
        let expand = match v.get("expand") {
            Some(e) => ExpandTotals {
                passes: e.get_usize("passes")?,
                arena_bytes_peak: e.get_usize("arena_bytes_peak")?,
            },
            None => ExpandTotals::default(),
        };
        Some(SweepMeta {
            scenarios: v.get_usize("scenarios")?,
            threads: v.get_usize("threads")?,
            cache: CacheStats {
                builds: cache.get_usize("builds")?,
                hits: cache.get_usize("hits")?,
                ladder_hits: cache.get_usize("ladder_hits")?,
                disk_hits: cache.get_usize("disk_hits")?,
                budget_misses: cache.get_usize("budget_misses")?,
            },
            expand,
        })
    }

    /// Combine shard sidecars: counters sum, thread counts and arena peaks
    /// take the max.
    pub fn merged(metas: &[SweepMeta]) -> SweepMeta {
        let mut out = SweepMeta::default();
        for m in metas {
            out.scenarios += m.scenarios;
            out.threads = out.threads.max(m.threads);
            out.cache.builds += m.cache.builds;
            out.cache.hits += m.cache.hits;
            out.cache.ladder_hits += m.cache.ladder_hits;
            out.cache.disk_hits += m.cache.disk_hits;
            out.cache.budget_misses += m.cache.budget_misses;
            out.expand.passes += m.expand.passes;
            out.expand.arena_bytes_peak =
                out.expand.arena_bytes_peak.max(m.expand.arena_bytes_peak);
        }
        out
    }
}

impl fmt::Display for SweepMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine: {} scenarios on {} threads; space cache: {} builds, {} hits, \
             {} ladder extensions, {} budget misses; disk cache: {} hits",
            self.scenarios,
            self.threads,
            self.cache.builds,
            self.cache.hits,
            self.cache.ladder_hits,
            self.cache.budget_misses,
            self.cache.disk_hits,
        )?;
        if self.expand.passes > 0 {
            write!(
                f,
                "; expansion engine: {} passes, peak arena {} bytes",
                self.expand.passes, self.expand.arena_bytes_peak,
            )?;
        }
        Ok(())
    }
}

/// Aggregated view of a JSONL result file.
#[derive(Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Records counted.
    pub records: usize,
    /// `(analysis, verdict) → count`.
    pub by_analysis: BTreeMap<(String, String), usize>,
    /// Records flagged `matches_expected: false`.
    pub mismatches: Vec<String>,
    /// Total wall-clock milliseconds across records.
    pub total_wall_ms: f64,
    /// Records served from the space cache (`cached_space: true`).
    pub cached: usize,
    /// Records with a `cached_space` field at all.
    pub cacheable: usize,
    /// Records with `budget_hit: true`.
    pub budget_hits: usize,
}

impl Aggregate {
    /// Aggregate parsed JSONL records.
    pub fn from_records(records: &[Value]) -> Self {
        let mut agg = Aggregate::default();
        for r in records {
            agg.records += 1;
            let analysis = r.get("analysis").and_then(Value::as_str).unwrap_or("?").to_string();
            let verdict = r.get("verdict").and_then(Value::as_str).unwrap_or("?").to_string();
            *agg.by_analysis.entry((analysis, verdict)).or_insert(0) += 1;
            if r.get("matches_expected").and_then(Value::as_bool) == Some(false) {
                let label = format!(
                    "{}@{}",
                    r.get("adversary").and_then(Value::as_str).unwrap_or("?"),
                    r.get("depth").and_then(Value::as_i64).unwrap_or(-1),
                );
                agg.mismatches.push(label);
            }
            if let Some(Value::Float(wall)) = r.get("wall_ms") {
                agg.total_wall_ms += wall;
            } else if let Some(Value::Int(wall)) = r.get("wall_ms") {
                agg.total_wall_ms += *wall as f64;
            }
            if let Some(cached) = r.get("cached_space").and_then(Value::as_bool) {
                agg.cacheable += 1;
                if cached {
                    agg.cached += 1;
                }
            }
            if r.get("budget_hit").and_then(Value::as_bool) == Some(true) {
                agg.budget_hits += 1;
            }
        }
        agg
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} records, {:.1} ms total compute, {} budget hits, cache {}/{}",
            self.records, self.total_wall_ms, self.budget_hits, self.cached, self.cacheable
        )?;
        let mut current = "";
        for ((analysis, verdict), count) in &self.by_analysis {
            if analysis != current {
                writeln!(f, "  {analysis}:")?;
                current = analysis;
            }
            writeln!(f, "    {verdict:<18} {count}")?;
        }
        if self.mismatches.is_empty() {
            writeln!(f, "  ground truth: all solvability verdicts match the catalog")?;
        } else {
            writeln!(f, "  ground-truth MISMATCHES: {}", self.mismatches.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::parse_jsonl;

    const SAMPLE: &str = concat!(
        r#"{"adversary":"a","depth":1,"analysis":"solvability","verdict":"solvable","matches_expected":true,"budget_hit":false,"wall_ms":1.5}"#,
        "\n",
        r#"{"adversary":"b","depth":2,"analysis":"solvability","verdict":"undecided","matches_expected":false,"budget_hit":true,"wall_ms":2.0}"#,
        "\n",
        r#"{"adversary":"b","depth":2,"analysis":"bivalence","verdict":"mixed","cached_space":true,"budget_hit":false,"wall_ms":0.5}"#,
        "\n",
    );

    #[test]
    fn sweep_meta_roundtrips_and_merges() {
        let a = SweepMeta {
            scenarios: 60,
            threads: 4,
            cache: CacheStats {
                hits: 40,
                builds: 5,
                ladder_hits: 10,
                disk_hits: 3,
                budget_misses: 2,
            },
            expand: ExpandTotals { passes: 15, arena_bytes_peak: 4096 },
        };
        let back =
            SweepMeta::from_json(&crate::json::parse(&a.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, a);
        let b = SweepMeta { scenarios: 61, threads: 8, ..a };
        let merged = SweepMeta::merged(&[a, b]);
        assert_eq!(merged.scenarios, 121);
        assert_eq!(merged.threads, 8);
        assert_eq!(merged.cache.ladder_hits, 20);
        assert_eq!(merged.cache.disk_hits, 6);
        assert_eq!(merged.expand.passes, 30);
        assert_eq!(merged.expand.arena_bytes_peak, 4096, "peaks take the max, not the sum");
        let text = a.to_string();
        assert!(text.contains("10 ladder extensions"));
        assert!(text.contains("2 budget misses"));
        assert!(text.contains("disk cache: 3 hits"));
        assert!(text.contains("15 passes, peak arena 4096 bytes"));
        assert!(SweepMeta::from_json(&Value::Null).is_none());
    }

    #[test]
    fn sweep_meta_without_expand_block_parses_to_zeroes() {
        // Sidecars written before the expansion telemetry existed stay
        // readable.
        let text = r#"{"scenarios":3,"threads":2,"cache":{"builds":1,"hits":2,"ladder_hits":0,"disk_hits":0,"budget_misses":0}}"#;
        let meta = SweepMeta::from_json(&crate::json::parse(text).unwrap()).unwrap();
        assert_eq!(meta.scenarios, 3);
        assert_eq!(meta.expand, ExpandTotals::default());
        assert!(!meta.to_string().contains("expansion engine"));
    }

    #[test]
    fn sweep_meta_with_shard_telemetry_still_parses() {
        // A depth-3 catalog sweep's sidecar from when expansion could
        // shard: it carries `shards` and `merge_ms`, and `merge` and
        // `report` must keep reading such sweep directories.
        let text = r#"{"scenarios":180,"threads":2,"cache":{"builds":10,"hits":204,"ladder_hits":31,"disk_hits":0,"budget_misses":0},"expand":{"passes":41,"shards":41,"merge_ms":0.0,"arena_bytes_peak":2048}}"#;
        let meta = SweepMeta::from_json(&crate::json::parse(text).unwrap()).unwrap();
        assert_eq!((meta.scenarios, meta.threads, meta.cache.builds), (180, 2, 10));
        assert_eq!(meta.expand, ExpandTotals { passes: 41, arena_bytes_peak: 2048 });
        assert_eq!(SweepMeta::merged(&[meta, meta]).expand.passes, 82);
        assert!(meta.to_string().contains("41 passes, peak arena 2048 bytes"));
    }

    #[test]
    fn aggregates_counts_and_mismatches() {
        let records = parse_jsonl(SAMPLE).unwrap();
        let agg = Aggregate::from_records(&records);
        assert_eq!(agg.records, 3);
        assert_eq!(agg.by_analysis[&("solvability".to_string(), "solvable".to_string())], 1);
        assert_eq!(agg.mismatches, vec!["b@2".to_string()]);
        assert_eq!(agg.budget_hits, 1);
        assert_eq!((agg.cached, agg.cacheable), (1, 1));
        assert!((agg.total_wall_ms - 4.0).abs() < 1e-9);
        let text = agg.to_string();
        assert!(text.contains("MISMATCHES: b@2"));
    }
}
