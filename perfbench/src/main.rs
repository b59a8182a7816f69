//! The consensus lab's layer-attributed benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]` runs one workload (`stats-d5`, `expand-d6`) through
//! the library `Session`, checks every answer, and prints one JSON object
//! as its last line of output: the end-to-end metrics with `--trace 0`;
//! with `--trace 1`, the per-layer metrics of a separate traced run, which
//! also sends the workload's inputs through the HTTP service, the verdict
//! journal and the cluster coordinator. `perfbench/run.py` builds and runs
//! it; see `perfbench/README.md`.

mod cluster;
mod gen;
mod serve;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One run's outcome.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Diagnostics, printed to stderr.
    pub notes: Vec<String>,
}

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("sweep_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer that a
/// workload's inputs never reach reads 0 (component-stats on expand-d6).
const PER_LAYER: &[(&str, &str)] = &[
    ("spec.calls", "count"),
    ("spec.us", "us"),
    ("expand.calls", "count"),
    ("expand.ms", "ms"),
    ("expand.runs", "count"),
    ("expand.views", "count"),
    ("expand.ns_per_view", "ns"),
    ("components.ms", "ms"),
    ("cache.hits", "count"),
    ("cache.builds", "count"),
    ("cache.ladder_hits", "count"),
    ("cache.avoided_ratio", "ratio"),
    ("cache.ms", "ms"),
    ("solvability.ms", "ms"),
    ("bivalence.ms", "ms"),
    ("broadcast.ms", "ms"),
    ("component_stats.ms", "ms"),
    ("sim_check.ms", "ms"),
    ("sim_check.runs_checked", "count"),
    ("cert.extract.ms", "ms"),
    ("cert.verify.us", "us"),
    ("cert.verified", "count"),
    ("journal.open.ms", "ms"),
    ("journal.loaded", "count"),
    ("journal.lookup.us", "us"),
    ("journal.store.us", "us"),
    ("journal.stores", "count"),
    ("record.encode.us", "us"),
    ("json.parse.us", "us"),
    ("response.kb", "KB"),
    ("http.roundtrip.us", "us"),
    ("api.handle.us", "us"),
    ("http.transport.us", "us"),
    ("http.framing.us", "us"),
    ("requests.hits", "count"),
    ("requests.misses", "count"),
    ("http.non_200", "count"),
    ("client.reconnects", "count"),
    ("client.timeouts", "count"),
    ("session.overhead.ms", "ms"),
    ("cluster.shards", "count"),
    ("cluster.shard_max.ms", "ms"),
    ("cluster.worker_busy_ratio", "ratio"),
    ("cluster.merge.ms", "ms"),
    ("cluster.retries", "count"),
    ("cluster.rebalances", "count"),
    ("cluster.fault_sweep.ms", "ms"),
    ("spotcheck.audits", "count"),
    ("spotcheck.ms", "ms"),
    ("cluster.serial_ref.ms", "ms"),
    ("obs.span_off.ns", "ns"),
    ("obs.span_on.ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
];

const WORKLOADS: &[&str] = &["stats-d5", "expand-d6"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

/// Time `tracer().span()` open+close in a loop, in ns per span, with the
/// program's tracer off and then on (restored to off afterwards).
fn span_cost_ns() -> (f64, f64) {
    const N: usize = 200_000;
    let tracer = consensus_obs::trace::tracer();
    let time = || {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..N {
                    drop(std::hint::black_box(tracer.span("bench.probe")));
                }
                start.elapsed().as_nanos() as f64 / N as f64
            })
            .collect();
        stats::median(&samples)
    };
    tracer.disable();
    let off = time();
    tracer.enable();
    let on = time();
    tracer.disable();
    let _ = tracer.drain();
    (off, on)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    consensus_obs::trace::tracer().disable();
    let trace_out = args.work_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let shape = match args.workload.as_str() {
        "stats-d5" => &sweep::STATS_D5,
        "expand-d6" => &sweep::EXPAND_D6,
        _ => unreachable!("parse_args accepts only WORKLOADS"),
    };
    let mut result = if args.trace {
        sweep::run_traced(shape, args.seed, args.seconds, &args.work_dir, &trace_out)
    } else {
        sweep::run(shape, args.seed, args.seconds)
    };
    for note in &result.notes {
        eprintln!("[{}] {note}", args.workload);
    }
    let table = if args.trace {
        let (off, on) = span_cost_ns();
        result.metrics.insert("obs.span_off.ns", off);
        result.metrics.insert("obs.span_on.ns", on);
        PER_LAYER
    } else {
        result.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
        let ok = (result.attempted - result.failed.min(result.attempted)) as f64
            / result.attempted.max(1) as f64;
        result.metrics.insert("ok_frac", ok);
        END_TO_END
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    );
}
