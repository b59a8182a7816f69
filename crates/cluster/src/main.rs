//! The `consensus-lab` CLI: batch experiments over message adversaries.
//!
//! ```text
//! consensus-lab catalog
//! consensus-lab check --adversary sw-lossy-link --depth 4 [--analysis solvability]
//! consensus-lab check --pool "-> <- <->" --depth 3
//! consensus-lab check --adversary message-loss-2-2 --analysis solvability --certificate
//! consensus-lab verify-cert cert.json
//! consensus-lab sweep --catalog --max-depth 4 [--out lab-results] [--threads 8]
//!                     [--analyses solvability,bivalence] [--budget 2000000] [--repeat 2]
//! consensus-lab report --input lab-results/results.jsonl
//! consensus-lab serve --addr 127.0.0.1:7171 [--threads 8] [--cache-dir DIR]
//! consensus-lab cluster --workers 127.0.0.1:7181,127.0.0.1:7182 --max-depth 3 --out cluster-results
//! consensus-lab bench-gate --baseline BENCH_expand-d6.json --fresh fresh.json --keys expand.ms
//! ```

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use consensus_cluster::coordinator::{self, ClusterConfig};
use consensus_cluster::events::EventSink;
use consensus_lab::report::{Aggregate, SweepMeta, SWEEP_META_FILE};
use consensus_lab::runner::solvability_matches;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind, Shard};
use consensus_lab::session::{Query, Session};
use consensus_lab::store::{
    parse_jsonl, parse_records, ResultStore, ScenarioRecord, TIMING_FIELDS,
};
use consensus_lab::{AnalysisConfig, CacheConfig, Error, ExpandConfig};
use consensus_obs::trace::tracer;
use consensus_serve::api::App;
use consensus_serve::server::{ServeConfig, Server};

const USAGE: &str = "\
consensus-lab — batch experiments over message adversaries (PODC'19 Nowak–Schmid–Winkler)

USAGE:
    consensus-lab catalog
        List the built-in adversary catalog.

    consensus-lab check (--spec TERM | --adversary NAME | --pool \"-> <- <->\"
                        [--eventually G [--by R]])
                        [--depth D] [--analysis KIND] [--budget RUNS]
                        [--certificate] [--trace-out FILE]
        Run one scenario and print the record.
          --spec TERM      an adversary-combinator term of the shared spec
                           language, e.g. 'union(pool(->), pool(<-))',
                           'eventually(<->, by=2)', 'window(<- -> <->, 2)',
                           'prefix(<-> ->, catalog(sw-lossy-link))';
                           --adversary/--pool/--eventually/--by are compat
                           aliases lowering to the same terms
          --certificate    attach the checkable `consensus-cert/v1` object
                           to definitive solvability records (see
                           docs/certificates.md); re-check it offline with
                           `verify-cert`
          --trace-out FILE write the run's spans (expand, cache lookups,
                           analyses, …) to FILE as JSONL; verdicts and
                           results are byte-identical with or without it

    consensus-lab verify-cert FILE
        Re-check a certificate against the adversary it names, without
        expanding any prefix space. FILE is a bare `consensus-cert/v1`
        object, or any record/response carrying one in a \"certificate\"
        field (`check --certificate` output, a /v1/check response body);
        `-` reads stdin, so a server response pipes straight through.
        Prints {\"ok\":true,\"verdict\":...,\"verify_ms\":...}; on rejection
        prints the typed error and exits 1.

    consensus-lab sweep (--catalog | --spec TERM)
                        [--max-depth D] [--analyses K1,K2] [--budget RUNS]
                        [--threads N] [--out DIR] [--repeat N]
                        [--time-limit-ms MS] [--shard I/N] [--resume DIR]
                        [--cache-dir DIR] [--strict] [--assert-warm] [--trace-out FILE]
        Run the scenario grid over the catalog (or one --spec adversary)
        in parallel; write DIR/results.jsonl, DIR/summary.csv, and
        DIR/sweep-meta.json (default DIR: lab-results).
          --shard I/N      run only this deterministic slice of the grid
                           (records keep their global indices for `merge`)
          --resume DIR     skip scenarios already in DIR/results.jsonl and
                           write the completed set back to DIR
          --cache-dir DIR  persist verdicts across processes; a warm cache
                           answers repeat scenarios with zero expansions
          --strict         exit nonzero if any verdict contradicts the
                           catalog's pinned ground truth, or fails to
                           confirm it conclusively at the deepest depth
          --assert-warm    exit nonzero if any full prefix-space expansion
                           was needed (CI warm-cache regression check)
          --trace-out FILE write the sweep's spans to FILE as JSONL;
                           results.jsonl stays byte-identical with or
                           without tracing

    consensus-lab merge --inputs A.jsonl,B.jsonl[,...] --out DIR
        Merge shard result files (by global grid index) into
        DIR/results.jsonl + DIR/summary.csv, byte-identical to the
        unsharded sweep's files; sums sweep-meta sidecars when present.

    consensus-lab diff --a X.jsonl --b Y.jsonl
        Compare two result files modulo timing fields; exit 1 on drift.

    consensus-lab report --input FILE.jsonl
        Aggregate a stored result file (plus its sweep-meta sidecar's
        cache counters and expansion-engine telemetry, when present).

    consensus-lab report --timings --trace TRACE.jsonl
        Render a per-stage time tree (calls, total ms, share of root
        time) from a --trace-out file; combinable with --input.

    consensus-lab trace-check --input TRACE.jsonl
        Validate a --trace-out file against the span schema: known span
        names, unique ids, resolvable parents, child intervals nested
        within their parents. Prints {\"spans\":N,\"roots\":M,\"ok\":true};
        exit 1 on the first violation.

    consensus-lab bench-gate --baseline BENCH.json --fresh FRESH.json
                             [--max-regression PCT] [--keys M1,M2]
        Compare the result line of a fresh traced benchmark run
        (`perfbench/run.py --trace 1`) against a committed baseline
        (BENCH_stats-d5.json, BENCH_expand-d6.json). The fresh line must
        be \"correct\": true with \"failed\": 0. Every baseline metric in
        unit `count` must match to the digit; the timing metrics named by
        --keys may regress at most PCT percent (default 25). Exit 1 on
        any regression.

    consensus-lab serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR]
                        [--budget RUNS] [--warm-from HOST:PORT]
                        [--trace-out FILE | --trace]
        Serve the solvability query API over HTTP/1.1: POST /v1/check,
        POST /v1/sweep (optional \"shard\":\"i/n\" slice), GET /v1/catalog,
        GET /v1/journal/segment, GET /v1/stats, GET /v1/trace?since=ID
        (non-destructive span-ring cursor for fleet trace stitching),
        GET /healthz, GET /metrics (JSON; ?format=prometheus for text
        exposition). Every response echoes an x-request-id header
        (generated when the request carries none), and a request bearing
        an x-consensus-trace context parents its spans under the remote
        caller (see docs/observability.md).
        One long-lived Session (shared space cache + optional persistent
        verdict journal under --cache-dir) answers every request, so the
        server warms up once and stays warm. Every request logs one
        structured completion line (request id, endpoint, status, µs) on
        stderr. Default address 127.0.0.1:7171; --threads 0 (default) =
        all available cores. --trace-out appends completed spans
        (http.request and the session spans under it) to FILE as JSONL,
        flushed every 500 ms. --trace instead enables the tracer with
        *no* local flusher — fleet-worker mode, where the span ring is
        left intact for a cluster coordinator to harvest via
        GET /v1/trace (the two flags are mutually exclusive: a local
        drain would swallow spans the harvester has not read yet).
          --warm-from HOST:PORT
                           before serving, pull a live peer's verdict
                           journal (GET /v1/journal/segment) and absorb
                           it into this worker's --cache-dir journal
                           (required), through the same salt check that
                           guards a local journal

    consensus-lab cluster --workers HOST:PORT[,HOST:PORT...]
                          [--spec TERM] [--max-depth D] [--analyses K1,K2]
                          [--out DIR] [--shards-per-worker N] [--spot-check PCT]
                          [--retries N] [--backoff-ms MS] [--deadline-ms MS]
                          [--trace-out FILE] [--events-out FILE]
        Coordinate a distributed sweep over a fleet of `serve` workers:
        split the catalog grid (or one --spec adversary's grid) into
        workers × --shards-per-worker (default 2) deterministic shards,
        dispatch them as sharded POST /v1/sweep requests under a
        per-request deadline with bounded retry (+ linear backoff), and
        rebalance a dead worker's unfinished shards onto the survivors.
        Writes DIR/results.jsonl + DIR/summary.csv (default DIR:
        cluster-results), byte-identical to the single-node sweep modulo
        timing fields. --spot-check PCT (default 10) audits that
        fraction of definitive solvability verdicts by requesting
        certificates from the fleet and replaying the verification
        locally; any rejected audit fails the run.
          --trace-out FILE stamp every dispatch with an x-consensus-trace
                           context, drain each worker's span ring
                           (GET /v1/trace) after every round, and write
                           one stitched cross-node trace: worker spans
                           carry a \"node\" label and parent under the
                           cluster.shard span that dispatched them
          --events-out FILE
                           append live shard-lifecycle events as JSONL
                           (cluster.dispatched / completed / retried /
                           rebalanced / audited; see
                           docs/observability.md)
        Also writes DIR/cluster-stats.json: the fleet /v1/stats fold —
        per-worker request totals plus the workers' metrics snapshots
        merged (counters summed, histograms merged bucket-wise).

ANALYSES: solvability, bivalence, broadcastability, component-stats, sim-check
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("verify-cert") => cmd_verify_cert(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("trace-check") => cmd_trace_check(&args[1..]),
        Some("bench-gate") => cmd_bench_gate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus bare `--switch`es.
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
            match value {
                Some(v) => {
                    pairs.push((key.to_string(), Some(v.clone())));
                    i += 2;
                }
                None => {
                    pairs.push((key.to_string(), None));
                    i += 1;
                }
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, None)) => Err(format!("--{key} expects a number")),
            Some((_, Some(v))) => {
                v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}"))
            }
        }
    }

    /// Reject flags outside the subcommand's vocabulary — a mistyped
    /// experiment parameter must fail loudly, not run with a default.
    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.pairs {
            if !allowed.contains(&key.as_str()) {
                return Err(if allowed.is_empty() {
                    format!("unknown flag --{key} (this subcommand takes no flags)")
                } else {
                    format!(
                        "unknown flag --{key} (expected one of: {})",
                        allowed.iter().map(|k| format!("--{k}")).collect::<Vec<_>>().join(", ")
                    )
                });
            }
        }
        Ok(())
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// Resolve `--trace-out` and, when present, switch the process-global
/// tracer on (the disabled path must stay free for untraced runs).
fn trace_out(flags: &Flags) -> Result<Option<PathBuf>, String> {
    match flags.get("trace-out") {
        None if flags.has("trace-out") => Err("--trace-out expects a file path".into()),
        None => Ok(None),
        Some(path) => {
            tracer().enable();
            Ok(Some(PathBuf::from(path)))
        }
    }
}

/// Drain the tracer's completed spans and append them to `path` as JSONL.
/// Returns how many spans were written.
fn append_trace(path: &Path) -> Result<usize, String> {
    use std::io::Write;
    let spans = tracer().drain();
    if spans.is_empty() {
        return Ok(0);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    for span in &spans {
        writeln!(file, "{}", span.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(spans.len())
}

/// Finish a `--trace-out` run: truncate `path` (one file per run), drain
/// everything recorded, and report the tally on stderr.
fn finish_trace(path: &Path) -> Result<(), String> {
    std::fs::write(path, "").map_err(|e| format!("creating {}: {e}", path.display()))?;
    let written = append_trace(path)?;
    let dropped = tracer().dropped();
    if dropped > 0 {
        eprintln!("[trace] ring overflow: {dropped} span(s) overwritten before the drain");
    }
    eprintln!("[trace] {written} span(s) → {}", path.display());
    Ok(())
}

/// `println!` that tolerates a closed stdout (`consensus-lab ... | head`):
/// Rust's default SIGPIPE handling turns EPIPE into a panic inside
/// `println!`, so line output goes through this instead.
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = writeln!(std::io::stdout(), "{line}");
}

fn cmd_catalog(args: &[String]) -> ExitCode {
    match Flags::parse(args).and_then(|flags| flags.reject_unknown(&[])) {
        Ok(()) => {}
        Err(e) => return fail(&e),
    }
    emit(format_args!("{:<30} {:>2} {:>8} {:<12} summary", "name", "n", "compact", "expected"));
    for entry in adversary::catalog::entries() {
        let ma = entry.build();
        let expected = match entry.expected {
            Some(true) => "solvable",
            Some(false) => "unsolvable",
            None => "mixed",
        };
        emit(format_args!(
            "{:<30} {:>2} {:>8} {:<12} {}",
            entry.name,
            ma.n(),
            ma.is_compact(),
            expected,
            entry.summary
        ));
    }
    ExitCode::SUCCESS
}

fn parse_spec(flags: &Flags) -> Result<AdversarySpec, String> {
    if flags.has("spec") {
        if flags.has("adversary") || flags.has("pool") || flags.has("eventually") || flags.has("by")
        {
            return Err(
                "--spec and the --adversary/--pool compat flags are mutually exclusive".into()
            );
        }
        let Some(spec) = flags.get("spec") else {
            return Err("--spec expects a spec string (e.g. \"union(pool(->), pool(<-))\")".into());
        };
        return AdversarySpec::parse(spec).map_err(|e| e.to_string());
    }
    match (flags.get("adversary"), flags.get("pool")) {
        (Some(name), None) => {
            if flags.has("eventually") || flags.has("by") {
                return Err("--eventually/--by only apply to --pool adversaries".into());
            }
            Ok(AdversarySpec::catalog(name))
        }
        (None, Some(word)) => {
            let eventually = match flags.get("eventually") {
                None => None,
                Some(target) => {
                    // A malformed deadline must not silently fall back to
                    // "no deadline" — that is a different (non-compact)
                    // adversary.
                    let deadline = match flags.get("by") {
                        None if flags.has("by") => return Err("--by expects a round number".into()),
                        None => None,
                        Some(r) => Some(
                            r.parse()
                                .map_err(|_| format!("--by expects a round number, got {r:?}"))?,
                        ),
                    };
                    Some((target, deadline))
                }
            };
            AdversarySpec::pool(word, eventually).map_err(|e| e.to_string())
        }
        (Some(_), Some(_)) => Err("--adversary and --pool are mutually exclusive".into()),
        (None, None) => Err("check needs --spec, --adversary NAME, or --pool \"...\"".into()),
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&[
        "spec",
        "adversary",
        "pool",
        "eventually",
        "by",
        "depth",
        "analysis",
        "budget",
        "certificate",
        "trace-out",
    ]) {
        return fail(&e);
    }
    let trace_path = match trace_out(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let spec = match parse_spec(&flags) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let depth = match flags.get_usize("depth", 4) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let budget = match flags.get_usize("budget", 2_000_000) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    if flags.has("analysis") && flags.get("analysis").is_none() {
        return fail("--analysis expects an analysis kind (e.g. solvability)");
    }
    let analyses: Vec<AnalysisKind> = match flags.get("analysis") {
        None => AnalysisKind::ALL.to_vec(),
        Some(name) => match AnalysisKind::parse(name) {
            Ok(kind) => vec![kind],
            Err(e) => return fail(&e.to_string()),
        },
    };
    let session = match Session::with_configs(
        ExpandConfig::with_budget(budget),
        AnalysisConfig::default(),
        CacheConfig::default(),
    ) {
        Ok(session) => session,
        Err(e) => return fail(&e.to_string()),
    };
    let mut errored = false;
    for analysis in analyses {
        // One single-query batch per analysis: records stream as each
        // analysis completes, each with index 0 (the `check` contract).
        let mut query = Query::new(spec.clone(), depth, analysis);
        if flags.has("certificate") {
            query = query.with_certificate();
        }
        for record in session.check_many(std::slice::from_ref(&query)).store.records() {
            errored |= record.outcome.verdict == "error";
            let mut line = String::new();
            record.write_to(&mut line);
            emit(format_args!("{line}"));
        }
    }
    let stats = session.space_cache().stats();
    eprintln!(
        "[cache] constructions: {}, hits: {}, ladder extensions: {}, budget misses: {}",
        stats.builds, stats.hits, stats.ladder_hits, stats.budget_misses
    );
    if let Some(path) = &trace_path {
        if let Err(e) = finish_trace(path) {
            return fail(&e);
        }
    }
    if errored {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_verify_cert(args: &[String]) -> ExitCode {
    // `verify-cert FILE` (one positional) or `verify-cert --input FILE`;
    // `-` reads stdin so a /v1/check response pipes straight in.
    let (positional, rest): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| !a.starts_with("--"));
    let rest: Vec<String> = rest.into_iter().cloned().collect();
    let flags = match Flags::parse(&rest) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["input"]) {
        return fail(&e);
    }
    let input = match (positional.as_slice(), flags.get("input")) {
        ([file], None) => file.as_str(),
        ([], Some(file)) => file,
        ([], None) => return fail("verify-cert needs FILE (or --input FILE; - reads stdin)"),
        _ => return fail("verify-cert takes exactly one certificate file"),
    };
    let text = if input == "-" {
        use std::io::Read;
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => return fail(&format!("reading stdin: {e}")),
        }
    } else {
        match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {input}: {e}")),
        }
    };
    let value = match consensus_lab::json::parse(&text) {
        Ok(v) => v,
        Err(e) => return fail(&format!("{input}: {e}")),
    };
    // Accept a bare certificate object (its "certificate" field is the
    // version *string*) or any record/response wrapping one (its
    // "certificate" field is the certificate *object*).
    let cert_value = match value.get("certificate") {
        Some(consensus_lab::json::Value::Str(_)) => &value,
        Some(obj @ consensus_lab::json::Value::Obj(_)) => obj,
        Some(_) => {
            return fail(&format!(
                "{input}: \"certificate\" is neither a version string nor a certificate object"
            ))
        }
        None => {
            return fail(&format!(
                "{input}: no certificate found (run `check --certificate` or POST /v1/check \
                 with \"certificate\": true to obtain one)"
            ))
        }
    };
    let cert = match consensus_core::Certificate::from_json(cert_value) {
        Ok(cert) => cert,
        Err(e) => return fail(&format!("{input}: malformed certificate [{}]: {e}", e.kind())),
    };
    let ma = match consensus_lab::session::certificate_adversary(cert.adversary()) {
        Ok(ma) => ma,
        Err(e) => return fail(&format!("{input}: [{}] {e}", e.kind())),
    };
    let start = std::time::Instant::now();
    let result = consensus_core::certificate::verify(&cert, ma.as_ref());
    let verify_ms = (start.elapsed().as_secs_f64() * 1e9).round() / 1e6;
    match result {
        Ok(()) => {
            emit(format_args!(
                "{}",
                consensus_lab::json::Value::Obj(vec![
                    ("ok".into(), consensus_lab::json::Value::Bool(true)),
                    ("verdict".into(), consensus_lab::json::Value::Str(cert.verdict().into())),
                    ("adversary".into(), consensus_lab::json::Value::Str(cert.adversary().into())),
                    ("verify_ms".into(), consensus_lab::json::Value::Float(verify_ms)),
                ])
            ));
            ExitCode::SUCCESS
        }
        Err(e) => {
            emit(format_args!(
                "{}",
                consensus_lab::json::Value::Obj(vec![
                    ("ok".into(), consensus_lab::json::Value::Bool(false)),
                    ("kind".into(), consensus_lab::json::Value::Str(e.kind().into())),
                    ("error".into(), consensus_lab::json::Value::Str(e.to_string())),
                ])
            ));
            ExitCode::FAILURE
        }
    }
}

fn cmd_sweep(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&[
        "catalog",
        "spec",
        "max-depth",
        "analyses",
        "budget",
        "threads",
        "out",
        "repeat",
        "time-limit-ms",
        "shard",
        "resume",
        "cache-dir",
        "strict",
        "assert-warm",
        "trace-out",
    ]) {
        return fail(&e);
    }
    let trace_path = match trace_out(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    if flags.has("catalog") && flags.has("spec") {
        return fail("--catalog and --spec are mutually exclusive");
    }
    if !flags.has("catalog") && !flags.has("spec") {
        return fail(
            "sweep requires --catalog (the built-in adversary registry) or --spec \"...\" \
             (one spec-language adversary)",
        );
    }
    let spec_grid = match flags.get("spec") {
        None if flags.has("spec") => return fail("--spec expects a spec string"),
        None => None,
        Some(spec) => match AdversarySpec::parse(spec) {
            Ok(spec) => Some(spec),
            Err(e) => return fail(&e.to_string()),
        },
    };
    let max_depth = match flags.get_usize("max-depth", 4) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let budget = match flags.get_usize("budget", 2_000_000) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let threads = match flags.get_usize("threads", 0) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let repeat = match flags.get_usize("repeat", 1) {
        Ok(r) => r.max(1),
        Err(e) => return fail(&e),
    };
    let shard = match flags.get("shard") {
        None if flags.has("shard") => return fail("--shard expects I/N (e.g. --shard 0/2)"),
        None => None,
        Some(spec) => match Shard::parse(spec) {
            Ok(s) => Some(s),
            Err(e) => return fail(&e.to_string()),
        },
    };
    let resume = match flags.get("resume") {
        None if flags.has("resume") => return fail("--resume expects a directory"),
        other => other.map(PathBuf::from),
    };
    if resume.is_some() && flags.has("out") {
        return fail(
            "--resume and --out are mutually exclusive (--resume writes back into its directory)",
        );
    }
    if flags.has("out") && flags.get("out").is_none() {
        return fail("--out expects a directory");
    }
    let out = resume
        .clone()
        .unwrap_or_else(|| PathBuf::from(flags.get("out").unwrap_or("lab-results")));
    let cache_dir = match flags.get("cache-dir") {
        None if flags.has("cache-dir") => return fail("--cache-dir expects a directory"),
        other => other.map(PathBuf::from),
    };
    let kinds = match parse_analyses(&flags) {
        Ok(kinds) => kinds,
        Err(e) => return fail(&e),
    };
    let grid = match spec_grid {
        Some(spec) => Query::grid(std::slice::from_ref(&spec), max_depth, &kinds),
        None => Query::catalog_grid(max_depth, &kinds),
    };
    let indexed: Vec<(usize, Query)> = grid.into_iter().enumerate().collect();
    let selected = match shard {
        Some(shard) => {
            let slice = shard.select(&indexed);
            emit(format_args!("[shard {shard}] {} of {} scenarios", slice.len(), indexed.len()));
            slice
        }
        None => indexed.clone(),
    };

    let scenario_identity =
        |q: &Query| -> (String, usize, AnalysisKind) { (q.spec.label(), q.depth, q.analysis) };
    let grid_by_identity: HashMap<(String, usize, AnalysisKind), usize> =
        indexed.iter().map(|(i, s)| (scenario_identity(s), *i)).collect();

    // Resume: scenarios already completed in the output file are not
    // re-executed; their stored records are revalidated and spliced back
    // into the final grid order. A stored record counts as *done* only if
    // it is budget/limit-independent (mirroring what the disk cache will
    // journal) AND its fingerprint still matches the adversary the current
    // binary builds for that cell — `expected`/`matches_expected` are then
    // re-derived against the current catalog, so a stale results file can
    // never mask ground-truth drift under `--resume --strict`. Records
    // failing those tests land in `leftover`: re-executed when selected,
    // but preserved verbatim when this run's shard does not cover them, so
    // shard-wise resumes accumulate without losing grid cells.
    let mut done: HashMap<(String, usize, AnalysisKind), ScenarioRecord> = HashMap::new();
    let mut leftover: HashMap<(String, usize, AnalysisKind), ScenarioRecord> = HashMap::new();
    if resume.is_some() {
        let path = out.join("results.jsonl");
        match std::fs::read_to_string(&path) {
            Ok(text) => match parse_records(&text) {
                Ok(records) => {
                    let mut unknown = 0usize;
                    let total = records.len();
                    for mut r in records {
                        let identity = r.identity();
                        let Some(&index) = grid_by_identity.get(&identity) else {
                            unknown += 1;
                            continue;
                        };
                        let query = &indexed[index].1;
                        if !consensus_lab::persist::persistable(&r) {
                            leftover.insert(identity, r);
                            continue;
                        }
                        match query.spec.build() {
                            Ok(ma) if ma.fingerprint() == r.fingerprint => {
                                r.expected = query.spec.expected();
                                r.matches_expected = None;
                                if query.analysis == AnalysisKind::Solvability {
                                    if let Some(expected) = r.expected {
                                        r.matches_expected =
                                            solvability_matches(expected, &r.outcome, r.budget_hit);
                                    }
                                }
                                done.insert(identity, r);
                            }
                            // Stale structure (or no longer buildable):
                            // recompute when selected.
                            _ => {
                                leftover.insert(identity, r);
                            }
                        }
                    }
                    if unknown > 0 {
                        // Rewriting would destroy completed work the
                        // current grid cannot re-create (e.g. depth-4
                        // records under a --max-depth 3 resume). Refuse
                        // rather than lose data.
                        let conflict = Error::CacheConflict {
                            reason: format!(
                                "{} of {total} record(s) in {} fall outside the current grid \
                                 (different --max-depth or --analyses than the original run?); \
                                 refusing to rewrite and lose them — rerun with matching grid \
                                 flags or a fresh --out",
                                unknown,
                                path.display()
                            ),
                        };
                        return fail(&conflict.to_string());
                    }
                    emit(format_args!(
                        "[resume] {} scenario(s) done in {}, {} to re-execute when selected \
                         (contingent or stale)",
                        done.len(),
                        path.display(),
                        leftover.len()
                    ));
                }
                Err((line, e)) => return fail(&format!("{}:{line}: {e}", path.display())),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                emit(format_args!("[resume] no prior results at {}", path.display()));
            }
            Err(e) => return fail(&format!("reading {}: {e}", path.display())),
        }
    }
    let pending: Vec<(usize, Query)> = selected
        .iter()
        .filter(|(_, q)| !done.contains_key(&scenario_identity(q)))
        .cloned()
        .collect();

    // One session across repeats: its space cache persists, so pass 2+
    // runs warm and demonstrates constructions ≪ scenarios.
    let mut cache_cfg = CacheConfig::default();
    if let Some(dir) = cache_dir {
        cache_cfg = cache_cfg.disk_dir(dir);
    }
    let mut session = match Session::with_configs(
        ExpandConfig::with_budget(budget),
        AnalysisConfig::default(),
        cache_cfg,
    ) {
        Ok(session) => session,
        Err(e) => return fail(&e.to_string()),
    };
    if threads > 0 {
        session = session.workers(threads);
    }
    if flags.has("time-limit-ms") {
        match flags.get("time-limit-ms").map(str::parse::<u64>) {
            Some(Ok(ms)) => session = session.time_limit(Duration::from_millis(ms)),
            Some(Err(_)) | None => return fail("--time-limit-ms expects a number"),
        }
    }
    let mut last = None;
    for pass in 1..=repeat {
        let report = session.check_many_indexed(&pending);
        emit(format_args!("[pass {pass}/{repeat}] {}", report.summary()));
        last = Some(report);
    }
    let report = last.expect("repeat >= 1");

    // Final record set: resumed records (re-anchored to current grid
    // indices) plus this run's, in global grid order. Resumed records are
    // spliced against the *whole* grid, not just the current selection, so
    // successive `--resume --shard i/n` runs into one directory accumulate
    // rather than overwrite each other's completed shards. Splice priority
    // per cell: freshly executed > done > leftover (a leftover in a
    // selected cell was just re-executed and is overridden below).
    let mut by_index: BTreeMap<usize, ScenarioRecord> = BTreeMap::new();
    // Cells carried over from `leftover` were neither executed nor
    // revalidated this run: their stored flags are preserved verbatim in
    // the rewrite but must not decide this run's --strict gates.
    let mut unvalidated: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for (index, scenario) in &indexed {
        let identity = scenario_identity(scenario);
        if let Some(mut record) = done.remove(&identity) {
            record.index = *index;
            by_index.insert(*index, record);
        } else if let Some(mut record) = leftover.remove(&identity) {
            record.index = *index;
            unvalidated.insert(*index);
            by_index.insert(*index, record);
        }
    }
    for record in report.store.records() {
        unvalidated.remove(&record.index);
        by_index.insert(record.index, record.clone());
    }
    let records: Vec<ScenarioRecord> = by_index.into_values().collect();
    let mismatched: Vec<String> = records
        .iter()
        .filter(|r| !unvalidated.contains(&r.index) && r.matches_expected == Some(false))
        .map(|r| format!("{}@{} → {}", r.adversary, r.depth, r.outcome.verdict))
        .collect();
    // The gate's second jaw: at the sweep's deepest resolution every
    // pinned catalog entry must *confirm* its ground truth, not merely
    // avoid contradicting it — a regression degrading a decided verdict to
    // `undecided` (or a budget-starved run) is drift too.
    let inconclusive: Vec<String> = records
        .iter()
        .filter(|r| {
            !unvalidated.contains(&r.index)
                && r.analysis == AnalysisKind::Solvability
                && r.depth == max_depth
                && r.expected.is_some()
                && r.matches_expected.is_none()
        })
        .map(|r| format!("{}@{} → {}", r.adversary, r.depth, r.outcome.verdict))
        .collect();
    // The sidecar describes the result set being written (so a warm or
    // resumed run still reports the full record count) plus this run's
    // cache counters.
    let scenario_count = records.len();
    let store = ResultStore::new(records);
    let meta = SweepMeta {
        scenarios: scenario_count,
        threads: report.threads,
        cache: report.cache,
        expand: report.expand,
    };

    let written = store.write_files(&out);
    // Flushed after the write, so the trace holds its `record.encode` span.
    if let Some(path) = &trace_path {
        if let Err(e) = finish_trace(path) {
            return fail(&e);
        }
    }
    match written {
        Ok((jsonl, csv)) => {
            let meta_path = out.join(SWEEP_META_FILE);
            if let Err(e) = std::fs::write(&meta_path, format!("{}\n", meta.to_json())) {
                return fail(&format!("writing {}: {e}", meta_path.display()));
            }
            emit(format_args!(
                "wrote {}, {}, and {}",
                jsonl.display(),
                csv.display(),
                meta_path.display()
            ));
            for mismatch in &mismatched {
                eprintln!("ground-truth mismatch: {mismatch}");
            }
            if flags.has("strict") && !mismatched.is_empty() {
                return fail(&format!(
                    "--strict: {} verdict(s) drifted from the catalog's pinned ground truth",
                    mismatched.len()
                ));
            }
            if flags.has("strict") && !inconclusive.is_empty() {
                for entry in &inconclusive {
                    eprintln!("inconclusive at max depth: {entry}");
                }
                return fail(&format!(
                    "--strict: {} pinned catalog verdict(s) failed to resolve conclusively \
                     at depth {max_depth}",
                    inconclusive.len()
                ));
            }
            if flags.has("assert-warm") && report.cache.builds > 0 {
                return fail(&format!(
                    "--assert-warm: {} full prefix-space expansion(s) on a supposedly warm cache",
                    report.cache.builds
                ));
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("writing results to {}: {e}", out.display())),
    }
}

fn cmd_merge(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["inputs", "out"]) {
        return fail(&e);
    }
    let Some(inputs) = flags.get("inputs") else {
        return fail("merge needs --inputs A.jsonl,B.jsonl[,...]");
    };
    let Some(out) = flags.get("out") else {
        return fail("merge needs --out DIR");
    };
    let out = PathBuf::from(out);
    let mut records: Vec<ScenarioRecord> = Vec::new();
    let mut metas: Vec<SweepMeta> = Vec::new();
    let mut metas_complete = true;
    for input in inputs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let text = match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {input}: {e}")),
        };
        match parse_records(&text) {
            Ok(mut shard) => records.append(&mut shard),
            Err((line, e)) => return fail(&format!("{input}:{line}: {e}")),
        }
        match read_sweep_meta(Path::new(input)) {
            Some(meta) => metas.push(meta),
            None => metas_complete = false,
        }
    }
    records.sort_by_key(|r| r.index);
    for (position, record) in records.iter().enumerate() {
        if record.index != position {
            return fail(&format!(
                "shard union is not the whole grid: {} at sorted position {position} \
                 (duplicate or missing shard?)",
                record.index
            ));
        }
    }
    let count = records.len();
    match ResultStore::new(records).write_files(&out) {
        Ok((jsonl, csv)) => {
            emit(format_args!(
                "merged {count} records into {} and {}",
                jsonl.display(),
                csv.display()
            ));
            if metas_complete && !metas.is_empty() {
                let meta = SweepMeta::merged(&metas);
                let meta_path = out.join(SWEEP_META_FILE);
                if let Err(e) = std::fs::write(&meta_path, format!("{}\n", meta.to_json())) {
                    return fail(&format!("writing {}: {e}", meta_path.display()));
                }
                emit(format_args!(
                    "summed {} sweep-meta sidecars into {}",
                    metas.len(),
                    meta_path.display()
                ));
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("writing merged results to {}: {e}", out.display())),
    }
}

/// The sweep-meta sidecar next to a results file, if present and parseable.
fn read_sweep_meta(results: &Path) -> Option<SweepMeta> {
    let path = results.parent()?.join(SWEEP_META_FILE);
    let text = std::fs::read_to_string(path).ok()?;
    SweepMeta::from_json(&consensus_lab::json::parse(&text).ok()?)
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["a", "b"]) {
        return fail(&e);
    }
    let (Some(path_a), Some(path_b)) = (flags.get("a"), flags.get("b")) else {
        return fail("diff needs --a X.jsonl --b Y.jsonl");
    };
    let load = |path: &str| -> Result<Vec<String>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        parse_jsonl(&text)
            .map_err(|(line, e)| format!("{path}:{line}: {e}"))
            .map(|values| {
                values.iter().map(|v| v.without_keys(TIMING_FIELDS).to_string()).collect()
            })
    };
    let a = match load(path_a) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let b = match load(path_b) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if a.len() != b.len() {
        return fail(&format!(
            "record counts differ: {} has {}, {} has {}",
            path_a,
            a.len(),
            path_b,
            b.len()
        ));
    }
    for (i, (la, lb)) in a.iter().zip(&b).enumerate() {
        if la != lb {
            eprintln!("record {i} differs (modulo timing fields):");
            eprintln!("  a: {la}");
            eprintln!("  b: {lb}");
            return fail(&format!("{path_a} and {path_b} disagree at record {i}"));
        }
    }
    emit(format_args!("identical modulo timing fields ({} records)", a.len()));
    ExitCode::SUCCESS
}

fn cmd_bench_gate(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["baseline", "fresh", "max-regression", "keys"]) {
        return fail(&e);
    }
    let (Some(baseline_path), Some(fresh_path)) = (flags.get("baseline"), flags.get("fresh"))
    else {
        return fail("bench-gate needs --baseline BENCH.json --fresh FRESH.json");
    };
    if flags.has("keys") && flags.get("keys").is_none() {
        return fail("--keys expects a comma-separated metric list");
    }
    let tolerance = match flags.get_usize("max-regression", 25) {
        Ok(pct) => pct as f64,
        Err(e) => return fail(&e),
    };
    let keys: Vec<String> = flags
        .get("keys")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty())
        .map(String::from)
        .collect();
    let load = |path: &str| -> Result<consensus_lab::json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        consensus_lab::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let fresh = match load(fresh_path) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    match consensus_lab::gate::compare(&baseline, &fresh, tolerance, &keys) {
        Ok(report) => {
            emit(format_args!("{report}"));
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(&e),
    }
}

fn parse_analyses(flags: &Flags) -> Result<Vec<AnalysisKind>, String> {
    if flags.has("analyses") && flags.get("analyses").is_none() {
        return Err("--analyses expects a comma-separated list (e.g. solvability,bivalence)".into());
    }
    match flags.get("analyses") {
        None => Ok(AnalysisKind::ALL.to_vec()),
        Some(list) => list
            .split(',')
            .map(|name| AnalysisKind::parse(name.trim()).map_err(|e| e.to_string()))
            .collect(),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&[
        "addr",
        "threads",
        "cache-dir",
        "budget",
        "warm-from",
        "trace-out",
        "trace",
    ]) {
        return fail(&e);
    }
    let trace_path = match trace_out(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    // Fleet-worker mode: `--trace` switches the tracer on *without* a
    // local flusher, keeping finished spans in the ring for a
    // coordinator to harvest via `GET /v1/trace` (a local `--trace-out`
    // drain would race the harvest and swallow spans).
    if flags.has("trace") {
        if trace_path.is_some() {
            return fail(
                "--trace and --trace-out are mutually exclusive (the --trace-out \
                         flusher drains the span ring a /v1/trace harvester reads)",
            );
        }
        tracer().enable();
    }
    if flags.has("addr") && flags.get("addr").is_none() {
        return fail("--addr expects HOST:PORT");
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7171").to_string();
    let threads = match flags.get_usize("threads", 0) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let budget = match flags.get_usize("budget", 2_000_000) {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    let mut cache_cfg = CacheConfig::default();
    if flags.has("cache-dir") {
        match flags.get("cache-dir") {
            Some(dir) => cache_cfg = cache_cfg.disk_dir(PathBuf::from(dir)),
            None => return fail("--cache-dir expects a directory"),
        }
    }
    let journal = cache_cfg.disk_dir.clone();
    let session = match Session::with_configs(
        ExpandConfig::with_budget(budget),
        AnalysisConfig::default(),
        cache_cfg,
    ) {
        Ok(session) => session,
        Err(e) => return fail(&e.to_string()),
    };
    if flags.has("warm-from") {
        let Some(peer) = flags.get("warm-from") else {
            return fail("--warm-from expects HOST:PORT (a live peer worker)");
        };
        if journal.is_none() {
            return fail(
                "--warm-from requires --cache-dir (the absorbed peer segment persists into \
                 the local journal)",
            );
        }
        match consensus_cluster::warm::warm_from(&session, peer, Duration::from_secs(30)) {
            Ok(absorbed) => {
                emit(format_args!("[warm-from] absorbed {absorbed} journal entries from {peer}"));
            }
            Err(e) => return fail(&e),
        }
    }
    let cfg = ServeConfig { addr, threads, ..ServeConfig::default() };
    let server = match Server::bind(Arc::new(App::new(session).log_requests(true)), &cfg) {
        Ok(server) => server,
        Err(e) => return fail(&e.to_string()),
    };
    emit(format_args!(
        "serving on http://{} ({} worker threads); endpoints: POST /v1/check, \
         POST /v1/sweep, GET /v1/journal/segment, GET /v1/catalog, GET /v1/stats, \
         GET /v1/trace, GET /healthz, GET /metrics[?format=prometheus]",
        server.local_addr(),
        cfg.effective_threads(),
    ));
    match journal {
        Some(dir) => emit(format_args!("verdict journal: {}", dir.display())),
        None => emit(format_args!("verdict journal: disabled (memory-only session)")),
    }
    if flags.has("trace") {
        emit(format_args!("tracing to the span ring (harvest with GET /v1/trace?since=ID)"));
    }
    if let Some(path) = trace_path {
        // A detached flusher: the server runs until the process dies, so
        // spans stream to disk instead of waiting for an exit that never
        // comes. One file per server run.
        if let Err(e) = std::fs::write(&path, "") {
            return fail(&format!("creating {}: {e}", path.display()));
        }
        emit(format_args!("tracing spans to {} (flushed every 500 ms)", path.display()));
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(500));
            if let Err(e) = append_trace(&path) {
                eprintln!("[trace] {e}");
                return;
            }
        });
    }
    server.wait();
    ExitCode::SUCCESS
}

fn cmd_report(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["input", "timings", "trace"]) {
        return fail(&e);
    }
    if flags.has("trace") && !flags.has("timings") {
        return fail("--trace only applies with --timings");
    }
    if flags.has("input") {
        let Some(input) = flags.get("input") else {
            return fail("--input expects a result file");
        };
        let text = match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {input}: {e}")),
        };
        match parse_jsonl(&text) {
            Ok(records) => {
                emit(format_args!("{}", Aggregate::from_records(&records)));
                // Engine telemetry rides in the sweep-meta sidecar: surface
                // the cache counters (ladder/disk hits, budget misses) that
                // the per-record JSONL cannot carry.
                if let Some(meta) = read_sweep_meta(Path::new(input)) {
                    emit(format_args!("{meta}"));
                }
            }
            Err((line, e)) => return fail(&format!("{input}:{line}: {e}")),
        }
    }
    if flags.has("timings") {
        let Some(trace) = flags.get("trace") else {
            return fail("--timings needs --trace TRACE.jsonl (a --trace-out file)");
        };
        let text = match std::fs::read_to_string(trace) {
            Ok(t) => t,
            Err(e) => return fail(&format!("reading {trace}: {e}")),
        };
        // Validate before rendering: a malformed trace fails loudly
        // instead of producing a quietly wrong tree.
        if let Err(e) = consensus_lab::trace::validate(&text) {
            return fail(&format!("{trace}: {e}"));
        }
        let spans: Vec<consensus_lab::trace::TraceSpan> = match text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(consensus_lab::trace::TraceSpan::parse)
            .collect()
        {
            Ok(spans) => spans,
            Err(e) => return fail(&format!("{trace}: {e}")),
        };
        // A stitched cluster trace marks spans whose worker-side parent
        // was overwritten by ring pressure before the coordinator could
        // drain it. The tree still renders (orphans hang off the sweep
        // root), but it is not the whole story — say so loudly.
        let orphaned = spans
            .iter()
            .filter(|s| {
                s.attrs.get("orphaned").and_then(consensus_lab::json::Value::as_bool) == Some(true)
            })
            .count();
        if orphaned > 0 {
            eprintln!(
                "WARNING: {trace} is an INCOMPLETE stitched trace: {orphaned} span(s) lost \
                 their parent to worker-side ring overwrite (re-parented under the sweep \
                 root); raise the drain cadence or lower the sweep size for a full trace"
            );
        }
        emit(format_args!("{}", consensus_lab::trace::render_timings(&spans)));
    } else if !flags.has("input") {
        return fail("report needs --input FILE.jsonl and/or --timings --trace TRACE.jsonl");
    }
    ExitCode::SUCCESS
}

fn cmd_cluster(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&[
        "workers",
        "spec",
        "max-depth",
        "analyses",
        "out",
        "shards-per-worker",
        "spot-check",
        "retries",
        "backoff-ms",
        "deadline-ms",
        "trace-out",
        "events-out",
    ]) {
        return fail(&e);
    }
    let trace_path = match trace_out(&flags) {
        Ok(p) => p,
        Err(e) => return fail(&e),
    };
    let events = match flags.get("events-out") {
        None if flags.has("events-out") => return fail("--events-out expects a file path"),
        None => None,
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(EventSink::new(Box::new(file))),
            Err(e) => return fail(&format!("creating {path}: {e}")),
        },
    };
    let Some(workers) = flags.get("workers") else {
        return fail("cluster needs --workers HOST:PORT[,HOST:PORT...]");
    };
    let workers: Vec<String> = workers
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect();
    if workers.is_empty() {
        return fail("--workers lists no addresses");
    }
    for needs_value in ["spec", "out"] {
        if flags.has(needs_value) && flags.get(needs_value).is_none() {
            return fail(&format!("--{needs_value} expects a value"));
        }
    }
    let mut cfg = ClusterConfig {
        workers,
        spec: flags.get("spec").map(String::from),
        ..ClusterConfig::default()
    };
    for (flag, slot) in [
        ("max-depth", &mut cfg.max_depth as &mut usize),
        ("shards-per-worker", &mut cfg.shards_per_worker),
        ("spot-check", &mut cfg.spot_check_pct),
        ("retries", &mut cfg.retries),
    ] {
        match flags.get_usize(flag, *slot) {
            Ok(value) => *slot = value,
            Err(e) => return fail(&e),
        }
    }
    match flags.get_usize("backoff-ms", cfg.backoff.as_millis() as usize) {
        Ok(ms) => cfg.backoff = Duration::from_millis(ms as u64),
        Err(e) => return fail(&e),
    }
    match flags.get_usize("deadline-ms", cfg.deadline.as_millis() as usize) {
        Ok(ms) => cfg.deadline = Duration::from_millis(ms.max(1) as u64),
        Err(e) => return fail(&e),
    }
    match parse_analyses(&flags) {
        Ok(kinds) => cfg.analyses = kinds,
        Err(e) => return fail(&e),
    }
    let out = PathBuf::from(flags.get("out").unwrap_or("cluster-results"));
    let outcome = match coordinator::run_with(&cfg, events.as_ref()) {
        Ok(outcome) => outcome,
        Err(e) => return fail(&e),
    };
    let stats = &outcome.stats;
    emit(format_args!(
        "[cluster] {} scenarios over {} worker(s) × {} shard(s): {} dispatch(es), \
         {} retr(ies), {} rebalance(s), {} worker(s) died, {} spot-check(s), \
         {} event(s) emitted",
        stats.scenarios,
        stats.workers,
        stats.shards,
        stats.dispatches,
        stats.retries,
        stats.rebalances,
        stats.workers_dead,
        stats.spot_checks,
        stats.events_emitted,
    ));
    if let Some(path) = &trace_path {
        // Local spans first (drained by finish_trace), then the stitched
        // worker fragments: one file, one cross-node trace.
        if let Err(e) = finish_trace(path) {
            return fail(&e);
        }
        if !outcome.stitched_spans.is_empty() {
            use std::io::Write;
            let appended = std::fs::OpenOptions::new().append(true).open(path).and_then(|mut f| {
                for line in &outcome.stitched_spans {
                    writeln!(f, "{line}")?;
                }
                Ok(())
            });
            if let Err(e) = appended {
                return fail(&format!("appending stitched spans to {}: {e}", path.display()));
            }
            eprintln!(
                "[trace] stitched {} worker span(s) into {}",
                outcome.stitched_spans.len(),
                path.display()
            );
        }
    }
    let meta = outcome.meta;
    match ResultStore::new(outcome.records).write_files(&out) {
        Ok((jsonl, csv)) => {
            emit(format_args!("wrote {} and {}", jsonl.display(), csv.display()));
            if let Some(meta) = meta {
                let meta_path = out.join(SWEEP_META_FILE);
                if let Err(e) = std::fs::write(&meta_path, format!("{}\n", meta.to_json())) {
                    return fail(&format!("writing {}: {e}", meta_path.display()));
                }
                emit(format_args!("wrote {}", meta_path.display()));
            }
            if let Some(fleet) = &outcome.fleet {
                let stats_path = out.join("cluster-stats.json");
                if let Err(e) = std::fs::write(&stats_path, format!("{fleet}\n")) {
                    return fail(&format!("writing {}: {e}", stats_path.display()));
                }
                emit(format_args!("wrote {}", stats_path.display()));
            }
        }
        Err(e) => return fail(&format!("writing results to {}: {e}", out.display())),
    }
    if !outcome.spot_check_failures.is_empty() {
        for failure in &outcome.spot_check_failures {
            eprintln!("spot-check rejected: {failure}");
        }
        return fail(&format!(
            "{} of {} spot-checked verdict(s) failed certificate replay — do not trust \
             this result set",
            outcome.spot_check_failures.len(),
            stats.spot_checks
        ));
    }
    ExitCode::SUCCESS
}

fn cmd_trace_check(args: &[String]) -> ExitCode {
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    if let Err(e) = flags.reject_unknown(&["input"]) {
        return fail(&e);
    }
    let Some(input) = flags.get("input") else {
        return fail("trace-check needs --input TRACE.jsonl");
    };
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => return fail(&format!("reading {input}: {e}")),
    };
    match consensus_lab::trace::validate(&text) {
        Ok(summary) => {
            emit(format_args!(
                "{{\"spans\":{},\"roots\":{},\"ok\":true}}",
                summary.spans, summary.roots
            ));
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{input}: {e}")),
    }
}
