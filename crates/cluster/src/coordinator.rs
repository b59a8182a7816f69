//! Shard planning, dispatch, rebalancing, and merge.
//!
//! The coordinator plans `workers × shards_per_worker` deterministic
//! slices of the scenario grid (the CLI `--shard i/n` grammar), then
//! drives rounds: every pending shard is assigned round-robin over the
//! live workers, one dispatch thread per worker POSTs its shards to
//! `/v1/sweep` under a per-request deadline with bounded retry and
//! backoff, and a worker that exhausts its retries is marked dead — its
//! unfinished shards requeue onto the survivors in the next round
//! (*rebalancing*). Records carry their global grid indices across the
//! wire, so the merge is a by-index splice validated for grid
//! completeness, and the merged output is byte-identical (modulo timing
//! fields) to a single-node sweep.
//!
//! Finishing a run does not mean trusting it: [`run`] ends by auditing
//! a configurable fraction of merged verdicts through
//! [`crate::spotcheck`].
//!
//! The coordinator is also the fleet's observability seam. When tracing
//! is enabled it stamps every dispatch with an `x-consensus-trace`
//! context (so worker-side `http.request` spans know which
//! `cluster.shard` they served), drains each worker's span ring via
//! `GET /v1/trace` after every round, and stitches the foreign
//! fragments — ids remapped collision-free, spans tagged with a `node`
//! label, worker roots re-parented under the coordinator's spans —
//! into one cross-node trace. Independently of tracing it can poll
//! `/v1/stats` and merge the workers' registry snapshots (counters
//! summed, log-bucketed histograms merged exactly, bucket-wise) into a
//! fleet snapshot, and emit live shard-lifecycle events through
//! [`crate::events`].

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::time::Duration;

use consensus_lab::json::Value;
use consensus_lab::report::SweepMeta;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind, Shard};
use consensus_lab::session::Query;
use consensus_lab::store::ScenarioRecord;
use consensus_obs::metrics::{registry, RegistrySnapshot};
use consensus_obs::trace::{trace_id, tracer, TraceContext, TRACE_HEADER};
use consensus_serve::client::Client;
use consensus_serve::metrics::{requests_total, snapshot_from_json, snapshot_to_json};

use crate::events::EventSink;
use crate::spotcheck::{self, SpotCheckSummary};

/// One cluster sweep's knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), each a running `consensus-lab
    /// serve` node.
    pub workers: Vec<String>,
    /// Shards planned per worker. More than one gives the rebalancer
    /// useful granularity: a dead worker's loss redistributes in
    /// shard-sized pieces instead of halving the fleet's progress.
    pub shards_per_worker: usize,
    /// Sweep the built-in catalog up to this depth…
    pub max_depth: usize,
    /// …across these analyses.
    pub analyses: Vec<AnalysisKind>,
    /// Sweep one spec-language adversary instead of the catalog.
    pub spec: Option<String>,
    /// Percentage of definitive solvability verdicts to audit via
    /// certificate replay (0 disables the audit).
    pub spot_check_pct: usize,
    /// Retries per shard request before a worker is declared dead.
    pub retries: usize,
    /// Backoff between retries (linear: `attempt × backoff`).
    pub backoff: Duration,
    /// Per-request deadline (dial + write + read of one exchange).
    pub deadline: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: Vec::new(),
            shards_per_worker: 2,
            max_depth: 3,
            analyses: AnalysisKind::ALL.to_vec(),
            spec: None,
            spot_check_pct: 10,
            retries: 2,
            backoff: Duration::from_millis(50),
            deadline: Duration::from_secs(30),
        }
    }
}

/// Robustness and audit counters for one cluster run (mirrored into the
/// process-global obs registry under `cluster.*`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Fleet size at launch.
    pub workers: usize,
    /// Workers declared dead during the run.
    pub workers_dead: usize,
    /// Shards the grid was split into.
    pub shards: usize,
    /// Scenarios in the merged result set.
    pub scenarios: usize,
    /// Shard requests dispatched (first attempts; retries counted apart).
    pub dispatches: usize,
    /// Shard request retries after a timeout or transport failure.
    pub retries: usize,
    /// Shards requeued onto surviving workers after a death.
    pub rebalances: usize,
    /// Verdicts audited by certificate replay.
    pub spot_checks: usize,
    /// Audited verdicts that failed the replay.
    pub spot_check_failures: usize,
    /// Worker-side spans stitched into the coordinator's trace (zero
    /// when tracing is off, or when the fleet shares this process's
    /// tracer — in-process test fleets need no stitching).
    pub spans_stitched: usize,
    /// Lifecycle events emitted through the run's [`EventSink`].
    pub events_emitted: usize,
}

/// One completed cluster sweep.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The merged records, in global grid order — byte-identical
    /// (modulo timing fields) to a single-node sweep of the same grid.
    pub records: Vec<ScenarioRecord>,
    /// Summed sweep-meta counters, when every shard response carried one.
    pub meta: Option<SweepMeta>,
    /// Robustness and audit counters.
    pub stats: ClusterStats,
    /// Spot-check rejections, one message per failed audit. A caller
    /// that trusts the output must check this is empty (the CLI exits
    /// nonzero on any entry).
    pub spot_check_failures: Vec<String>,
    /// The stitched worker-side span fragments, one trace-schema JSONL
    /// line each, ready to append to the coordinator's own `--trace-out`
    /// drain. Empty when tracing is off or every worker shares this
    /// process's tracer.
    pub stitched_spans: Vec<String>,
    /// The fleet metrics snapshot (`cluster-stats.json`): per-worker
    /// request totals plus the workers' registry snapshots merged into
    /// one — counters summed, histograms merged bucket-wise. `None` when
    /// no worker could be polled.
    pub fleet: Option<Value>,
}

/// Why a shard dispatch gave up.
enum ShardFailure {
    /// The worker is unreachable, stalled past the deadline, or
    /// answering 5xx — mark it dead and rebalance its shards.
    Worker(String),
    /// The worker *rejected* the request (4xx) or answered garbage — a
    /// coordinator-side protocol bug; abort the whole run loudly
    /// instead of burning the fleet on retries.
    Fatal(String),
}

/// One worker's dispatch-round outcome.
struct WorkerRun {
    worker: usize,
    completed: Vec<(usize, Vec<ScenarioRecord>, Option<SweepMeta>)>,
    retries: usize,
    /// `Some((unfinished shards, error))` when the worker died mid-round.
    died: Option<(Vec<usize>, String)>,
    fatal: Option<String>,
}

/// Run one cluster sweep: plan shards, dispatch with retry and
/// rebalancing, merge by global index, validate grid completeness, and
/// spot-check the merged verdicts.
///
/// # Errors
/// A message when the grid is empty, every worker is dead with shards
/// still pending, a worker rejects the protocol, the merged set is not
/// the whole grid, or no live worker is left to audit against.
pub fn run(cfg: &ClusterConfig) -> Result<ClusterOutcome, String> {
    run_with(cfg, None)
}

/// [`run`], with an optional live event sink: shard-lifecycle events
/// (`dispatched` / `completed` / `retried` / `rebalanced` / `audited`)
/// are written as they happen — the `--events-out` path.
///
/// # Errors
/// As [`run`].
pub fn run_with(cfg: &ClusterConfig, events: Option<&EventSink>) -> Result<ClusterOutcome, String> {
    if cfg.workers.is_empty() {
        return Err("cluster needs at least one worker address".into());
    }
    let grid = match &cfg.spec {
        None => Query::catalog_grid(cfg.max_depth, &cfg.analyses),
        Some(spec) => {
            let spec = AdversarySpec::parse(spec).map_err(|e| e.to_string())?;
            Query::grid(std::slice::from_ref(&spec), cfg.max_depth, &cfg.analyses)
        }
    };
    if grid.is_empty() {
        return Err("cluster grid is empty".into());
    }
    let shard_count = (cfg.workers.len() * cfg.shards_per_worker.max(1)).clamp(1, grid.len());
    let bodies: Vec<String> = (0..shard_count)
        .map(|index| shard_body(cfg, &grid, index, shard_count))
        .collect();

    let mut span = tracer()
        .span("cluster.sweep")
        .with_attr("workers", cfg.workers.len())
        .with_attr("shards", shard_count)
        .with_attr("scenarios", grid.len());
    // The sweep root's id anchors the whole cross-node tree: dispatch
    // threads parent their `cluster.shard` spans under it, and stitched
    // worker fragments fall back to it when their own parent is gone.
    let root = span.id();
    let mut harvest = TraceHarvest::new(cfg.workers.len());

    let mut stats = ClusterStats {
        workers: cfg.workers.len(),
        shards: shard_count,
        scenarios: grid.len(),
        ..ClusterStats::default()
    };
    let mut alive: Vec<bool> = vec![true; cfg.workers.len()];
    let mut pending: VecDeque<usize> = (0..shard_count).collect();
    let mut merged: BTreeMap<usize, ScenarioRecord> = BTreeMap::new();
    let mut metas: Vec<SweepMeta> = Vec::new();
    let mut metas_complete = true;
    let mut round = 0usize;

    while !pending.is_empty() {
        let live: Vec<usize> = (0..alive.len()).filter(|&w| alive[w]).collect();
        if live.is_empty() {
            return Err(format!(
                "all {} worker(s) are dead with {} shard(s) unfinished",
                cfg.workers.len(),
                pending.len()
            ));
        }
        // Assign every pending shard round-robin over the live workers.
        let mut assignments: Vec<(usize, Vec<usize>)> =
            live.iter().map(|&w| (w, Vec::new())).collect();
        let lanes = assignments.len();
        for (at, shard) in pending.drain(..).enumerate() {
            assignments[at % lanes].1.push(shard);
        }
        assignments.retain(|(_, shards)| !shards.is_empty());
        let dispatched: usize = assignments.iter().map(|(_, s)| s.len()).sum();
        stats.dispatches += dispatched;
        registry().counter("cluster.dispatches").add(dispatched as u64);
        if let Some(sink) = events {
            for (worker, shards) in &assignments {
                for &shard in shards {
                    sink.emit(
                        "dispatched",
                        vec![
                            ("shard".into(), Value::Int(shard as i64)),
                            ("worker".into(), Value::Str(cfg.workers[*worker].clone())),
                            ("round".into(), Value::Int(round as i64)),
                        ],
                    );
                }
            }
        }

        let runs: Vec<WorkerRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .map(|(worker, shards)| {
                    let addr = cfg.workers[*worker].as_str();
                    let bodies = &bodies;
                    scope
                        .spawn(move || run_worker(*worker, addr, shards, bodies, cfg, root, events))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("dispatch thread panicked"))
                .collect()
        });
        let round_workers: Vec<usize> = assignments.iter().map(|(worker, _)| *worker).collect();

        for run in runs {
            stats.retries += run.retries;
            if let Some(fatal) = run.fatal {
                return Err(fatal);
            }
            for (_, records, meta) in run.completed {
                match meta {
                    Some(meta) => metas.push(meta),
                    None => metas_complete = false,
                }
                for record in records {
                    merged.insert(record.index, record);
                }
            }
            if let Some((unfinished, error)) = run.died {
                alive[run.worker] = false;
                stats.workers_dead += 1;
                stats.rebalances += unfinished.len();
                registry().counter("cluster.workers_dead").inc();
                registry().counter("cluster.rebalances").add(unfinished.len() as u64);
                eprintln!(
                    "[cluster] worker {} is dead ({error}); rebalancing {} shard(s)",
                    cfg.workers[run.worker],
                    unfinished.len()
                );
                if let Some(sink) = events {
                    for &shard in &unfinished {
                        sink.emit(
                            "rebalanced",
                            vec![
                                ("shard".into(), Value::Int(shard as i64)),
                                ("worker".into(), Value::Str(cfg.workers[run.worker].clone())),
                                ("error".into(), Value::Str(error.clone())),
                            ],
                        );
                    }
                }
                pending.extend(unfinished);
            }
        }
        // Drain this round's worker span rings while the spans are fresh
        // (the ring overwrites its oldest entries under pressure).
        harvest.poll(cfg, &round_workers, &alive);
        round += 1;
    }
    registry().counter("cluster.retries").add(stats.retries as u64);

    // The merge must be the whole grid: a by-index splice tolerates any
    // dispatch order, but a duplicate or missing cell is a bug, exactly
    // as `consensus-lab merge` refuses a partial shard union.
    let records: Vec<ScenarioRecord> = merged.into_values().collect();
    for (position, record) in records.iter().enumerate() {
        if record.index != position {
            return Err(format!(
                "merged shard union is not the whole grid: index {} at sorted position \
                 {position} (worker returned a wrong slice?)",
                record.index
            ));
        }
    }
    if records.len() != grid.len() {
        return Err(format!(
            "merged shard union has {} record(s), grid has {}",
            records.len(),
            grid.len()
        ));
    }

    let live: Vec<String> =
        (0..alive.len()).filter(|&w| alive[w]).map(|w| cfg.workers[w].clone()).collect();
    let audit: SpotCheckSummary =
        spotcheck::spot_check_with(&records, &live, cfg.spot_check_pct, cfg.deadline, events)?;
    stats.spot_checks = audit.checked;
    stats.spot_check_failures = audit.failures.len();

    // One last ring drain catches the spans the audit requests opened,
    // then the foreign fragments stitch into the local trace.
    let live_indices: Vec<usize> = (0..alive.len()).filter(|&w| alive[w]).collect();
    harvest.poll(cfg, &live_indices, &alive);
    let stitched_spans = harvest.stitch(cfg, root);
    stats.spans_stitched = stitched_spans.len();
    if tracer().is_enabled() && harvest.incomplete() {
        eprintln!(
            "[cluster] stitched trace is incomplete: {} worker-side span(s) lost to ring \
             overwrite, {} trace poll(s) failed",
            harvest.dropped_total(),
            harvest.failed_polls
        );
    }
    stats.events_emitted = events.map_or(0, EventSink::emitted);

    span.set_attr("rebalances", stats.rebalances);
    span.set_attr("spot_checks", stats.spot_checks);
    span.set_attr("spans_stitched", stats.spans_stitched);
    let fleet = fleet_snapshot(cfg, &alive, &stats);
    let meta = (metas_complete && !metas.is_empty()).then(|| SweepMeta::merged(&metas));
    Ok(ClusterOutcome {
        records,
        meta,
        stats,
        spot_check_failures: audit.failures,
        stitched_spans,
        fleet,
    })
}

/// Per-worker `/v1/trace` harvest state: a drain cursor and the foreign
/// span fragments collected so far, plus the completeness signals
/// (worker-side ring drops, failed polls) that make an incomplete
/// stitch loud instead of silent.
struct TraceHarvest {
    cursors: Vec<u64>,
    foreign: Vec<Vec<Value>>,
    dropped: Vec<u64>,
    failed_polls: usize,
}

impl TraceHarvest {
    fn new(workers: usize) -> TraceHarvest {
        TraceHarvest {
            cursors: vec![0; workers],
            foreign: vec![Vec::new(); workers],
            dropped: vec![0; workers],
            failed_polls: 0,
        }
    }

    /// Drain each listed worker's span ring past this harvest's cursor.
    /// Workers reporting this process's own trace id are skipped: an
    /// in-process fleet (tests, the benchmark) shares the local ring,
    /// so its spans are already home and need no stitching.
    fn poll(&mut self, cfg: &ClusterConfig, workers: &[usize], alive: &[bool]) {
        if !tracer().is_enabled() {
            return;
        }
        let local = format!("{:032x}", trace_id());
        for &worker in workers {
            if !alive[worker] {
                self.failed_polls += 1;
                continue;
            }
            let addr = &cfg.workers[worker];
            let path = format!("/v1/trace?since={}", self.cursors[worker]);
            let answer = Client::connect_with_deadline(addr, cfg.deadline)
                .and_then(|mut client| client.get(&path));
            let value = match answer {
                Ok(answer) if answer.status == 200 => consensus_lab::json::parse(&answer.body).ok(),
                _ => None,
            };
            let Some(value) = value else {
                self.failed_polls += 1;
                continue;
            };
            if value.get("trace_id").and_then(Value::as_str) == Some(local.as_str()) {
                continue;
            }
            if let Some(dropped) = value.get("dropped").and_then(Value::as_i64) {
                self.dropped[worker] = dropped.max(0) as u64;
            }
            if let Some(cursor) = value.get("cursor").and_then(Value::as_i64) {
                self.cursors[worker] = cursor.max(0) as u64;
            }
            if let Some(Value::Arr(spans)) = value.get("spans") {
                self.foreign[worker].extend(spans.iter().cloned());
            }
        }
    }

    fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    fn incomplete(&self) -> bool {
        self.failed_polls > 0 || self.dropped_total() > 0
    }

    /// Stitch the foreign fragments into the local trace: remap each
    /// worker's span ids into a per-worker block far above any local id
    /// (collision-free), tag every span with a `node` label, re-parent
    /// worker roots under the `cluster.shard` span named by their
    /// propagated trace context (falling back to the sweep root when
    /// the context is absent or the in-ring parent was overwritten),
    /// and render each span back to a trace-schema JSONL line.
    fn stitch(&self, cfg: &ClusterConfig, root: Option<u64>) -> Vec<String> {
        /// Id block size per worker; worker `w`'s spans remap into
        /// `[(w+1) << 32, …)`, far above any realistic local span count.
        const STITCH_BASE: u64 = 1 << 32;
        let local = format!("{:032x}", trace_id());
        let mut out = Vec::new();
        for (worker, spans) in self.foreign.iter().enumerate() {
            if spans.is_empty() {
                continue;
            }
            let base = STITCH_BASE * (worker as u64 + 1);
            let ids: HashSet<u64> = spans.iter().filter_map(|s| field_u64(s, "id")).collect();
            for span in spans {
                let Some(id) = field_u64(span, "id") else {
                    continue;
                };
                let name = span.get("span").and_then(Value::as_str).unwrap_or_default();
                let attrs = span.get("attrs");
                let mut orphaned = false;
                let parent = match field_u64(span, "parent") {
                    Some(parent) if ids.contains(&parent) => Some(base + parent),
                    // Parent overwritten in the worker's ring before the
                    // drain reached it: hang the orphan off the sweep
                    // root, marked so `report --trace` can warn loudly.
                    Some(_) => {
                        orphaned = true;
                        root
                    }
                    None => {
                        let remote_trace =
                            attrs.and_then(|a| a.get("remote_trace")).and_then(Value::as_str);
                        let remote_parent = attrs
                            .and_then(|a| a.get("remote_parent"))
                            .and_then(Value::as_i64)
                            .and_then(|p| u64::try_from(p).ok());
                        match (remote_trace, remote_parent) {
                            (Some(trace), Some(parent)) if trace == local => Some(parent),
                            _ => root,
                        }
                    }
                };
                let mut attrs: Vec<(String, Value)> = match attrs {
                    Some(Value::Obj(fields)) => fields.clone(),
                    _ => Vec::new(),
                };
                attrs.push(("node".into(), Value::Str(cfg.workers[worker].clone())));
                if orphaned {
                    attrs.push(("orphaned".into(), Value::Bool(true)));
                }
                let rebuilt = Value::Obj(vec![
                    ("span".into(), Value::Str(name.to_string())),
                    ("id".into(), Value::Int((base + id) as i64)),
                    ("parent".into(), parent.map_or(Value::Null, |p| Value::Int(p as i64))),
                    (
                        "start_us".into(),
                        Value::Int(field_u64(span, "start_us").unwrap_or(0) as i64),
                    ),
                    ("dur_us".into(), Value::Int(field_u64(span, "dur_us").unwrap_or(0) as i64)),
                    ("attrs".into(), Value::Obj(attrs)),
                ]);
                out.push(rebuilt.to_string());
            }
        }
        out
    }
}

fn field_u64(value: &Value, key: &str) -> Option<u64> {
    value.get(key).and_then(Value::as_i64).and_then(|n| u64::try_from(n).ok())
}

/// Poll `/v1/stats` on every live worker and fold the answers into one
/// fleet snapshot: each worker's entry ([`worker_entry`]) kept apart, and
/// their registry snapshots merged by [`RegistrySnapshot::merge`] —
/// counters summed, histograms merged bucket-wise, so the fleet quantiles
/// are recomputed from the merged buckets rather than averaged — then
/// encoded as `/v1/stats` encodes one worker's.
fn fleet_snapshot(cfg: &ClusterConfig, alive: &[bool], stats: &ClusterStats) -> Option<Value> {
    let mut per_worker: Vec<(String, Value)> = Vec::new();
    let mut merged: Option<RegistrySnapshot> = None;
    for (worker, addr) in cfg.workers.iter().enumerate() {
        let answer = alive[worker]
            .then(|| {
                Client::connect_with_deadline(addr, cfg.deadline)
                    .and_then(|mut client| client.get("/v1/stats"))
            })
            .and_then(Result::ok)
            .filter(|answer| answer.status == 200)
            .and_then(|answer| worker_entry(&answer.body));
        let Some((entry, snap)) = answer else {
            per_worker
                .push((addr.clone(), Value::Obj(vec![("reachable".into(), Value::Bool(false))])));
            continue;
        };
        per_worker.push((addr.clone(), entry));
        merged = Some(match merged {
            None => snap,
            Some(fold) => fold.merge(&snap),
        });
    }
    let merged = merged?;
    let mut merged_block =
        vec![("requests_total".into(), Value::Int(requests_total(&merged) as i64))];
    if let Value::Obj(fields) = snapshot_to_json(&merged) {
        merged_block.extend(fields);
    }
    Some(Value::Obj(vec![
        (
            "workers".into(),
            Value::Arr(cfg.workers.iter().map(|addr| Value::Str(addr.clone())).collect()),
        ),
        ("workers_dead".into(), Value::Int(stats.workers_dead as i64)),
        ("merged".into(), Value::Obj(merged_block)),
        ("per_worker".into(), Value::Obj(per_worker)),
    ]))
}

/// One worker's `/v1/stats` body as its fleet-snapshot entry
/// (`reachable`, `requests_total`, `trace`) and its decoded registry
/// snapshot; `None` when the body is not a stats page.
fn worker_entry(body: &str) -> Option<(Value, RegistrySnapshot)> {
    let page = consensus_lab::json::parse(body).ok()?;
    let snap = snapshot_from_json(page.get("registry")?)?;
    let entry = Value::Obj(vec![
        ("reachable".into(), Value::Bool(true)),
        ("requests_total".into(), Value::Int(requests_total(&snap) as i64)),
        ("trace".into(), page.get("trace").cloned().unwrap_or(Value::Null)),
    ]);
    Some((entry, snap))
}

/// The `/v1/sweep` body for one shard: the catalog grid (or the
/// explicit query list for a `--spec` sweep, preserving the serial
/// sweep's grid order) plus the `"shard": "i/n"` slice. Workers keep
/// global indices, so responses merge without re-indexing.
fn shard_body(cfg: &ClusterConfig, grid: &[Query], index: usize, count: usize) -> String {
    let shard = Value::Str(format!("{}", Shard { index, count }));
    let body = match &cfg.spec {
        None => Value::Obj(vec![
            ("catalog".into(), Value::Bool(true)),
            ("max_depth".into(), Value::Int(cfg.max_depth as i64)),
            (
                "analyses".into(),
                Value::Arr(cfg.analyses.iter().map(|k| Value::Str(k.name().to_string())).collect()),
            ),
            ("shard".into(), shard),
        ]),
        Some(spec) => Value::Obj(vec![
            (
                "queries".into(),
                Value::Arr(
                    grid.iter()
                        .map(|q| {
                            Value::Obj(vec![
                                ("spec".into(), Value::Str(spec.clone())),
                                ("depth".into(), Value::Int(q.depth as i64)),
                                ("analysis".into(), Value::Str(q.analysis.name().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("shard".into(), shard),
        ]),
    };
    body.to_string()
}

/// Dispatch one worker's shard list sequentially over one keep-alive
/// connection, stopping at the first shard the worker cannot complete.
fn run_worker(
    worker: usize,
    addr: &str,
    shards: &[usize],
    bodies: &[String],
    cfg: &ClusterConfig,
    root: Option<u64>,
    events: Option<&EventSink>,
) -> WorkerRun {
    let mut run = WorkerRun { worker, completed: Vec::new(), retries: 0, died: None, fatal: None };
    let mut client: Option<Client> = None;
    for (at, &shard) in shards.iter().enumerate() {
        let mut span = tracer()
            .span_under("cluster.shard", root)
            .with_attr("shard", shard)
            .with_attr("worker", addr.to_string());
        // Stamp the dispatch with this shard span's context, so the
        // worker's `http.request` span knows its cross-process parent.
        let trace = span.id().map(|id| TraceContext::local(id).to_header());
        match dispatch_shard(
            &mut client,
            addr,
            &bodies[shard],
            trace.as_deref(),
            cfg,
            shard,
            &mut run.retries,
            events,
        ) {
            Ok((records, meta, request_id)) => {
                span.set_attr("records", records.len());
                if let Some(sink) = events {
                    let mut fields = vec![
                        ("shard".into(), Value::Int(shard as i64)),
                        ("worker".into(), Value::Str(addr.to_string())),
                        ("records".into(), Value::Int(records.len() as i64)),
                    ];
                    if let Some(request_id) = request_id {
                        fields.push(("request_id".into(), Value::Str(request_id)));
                    }
                    sink.emit("completed", fields);
                }
                run.completed.push((shard, records, meta));
            }
            Err(ShardFailure::Fatal(error)) => {
                run.fatal = Some(error);
                return run;
            }
            Err(ShardFailure::Worker(error)) => {
                run.died = Some((shards[at..].to_vec(), error));
                return run;
            }
        }
    }
    run
}

/// One successful shard dispatch: the records, the optional sweep
/// meta, and the worker's `x-request-id` echo for event correlation.
type ShardAnswer = (Vec<ScenarioRecord>, Option<SweepMeta>, Option<String>);

/// POST one shard body to one worker under the configured deadline,
/// with bounded linear-backoff retry on transport failures and 5xx.
#[allow(clippy::too_many_arguments)]
fn dispatch_shard(
    client: &mut Option<Client>,
    addr: &str,
    body: &str,
    trace: Option<&str>,
    cfg: &ClusterConfig,
    shard: usize,
    retries: &mut usize,
    events: Option<&EventSink>,
) -> Result<ShardAnswer, ShardFailure> {
    let headers: Vec<(&str, &str)> = trace.map(|value| (TRACE_HEADER, value)).into_iter().collect();
    let mut last_error = String::new();
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            *retries += 1;
            if let Some(sink) = events {
                sink.emit(
                    "retried",
                    vec![
                        ("shard".into(), Value::Int(shard as i64)),
                        ("worker".into(), Value::Str(addr.to_string())),
                        ("attempt".into(), Value::Int(attempt as i64)),
                        ("error".into(), Value::Str(last_error.clone())),
                    ],
                );
            }
            std::thread::sleep(cfg.backoff * attempt as u32);
        }
        if client.is_none() {
            match Client::connect_with_deadline(addr, cfg.deadline) {
                Ok(connected) => *client = Some(connected),
                Err(e) => {
                    last_error = format!("connecting to {addr}: {e}");
                    continue;
                }
            }
        }
        let connected = client.as_mut().expect("connected above");
        match connected.post_json_with("/v1/sweep", body, &headers) {
            Err(e) => {
                // Timeout, refused, or torn mid-response: the connection
                // state is unknown, so the retry re-dials.
                *client = None;
                last_error = format!("{addr}: {e}");
            }
            Ok(answer) if answer.status == 200 => {
                let request_id = answer.request_id.clone();
                return parse_shard_response(&answer.body)
                    .map(|(records, meta)| (records, meta, request_id))
                    .map_err(|e| ShardFailure::Fatal(format!("{addr}: {e}")));
            }
            Ok(answer) if (500..600).contains(&answer.status) => {
                // Overload shed (503) or a server-side failure: worth a
                // bounded retry, then the worker counts as dead.
                *client = None;
                last_error = format!("{addr}: HTTP {}: {}", answer.status, answer.body);
            }
            Ok(answer) => {
                return Err(ShardFailure::Fatal(format!(
                    "{addr} rejected the shard request (HTTP {}): {}",
                    answer.status, answer.body
                )));
            }
        }
    }
    Err(ShardFailure::Worker(last_error))
}

fn parse_shard_response(body: &str) -> Result<(Vec<ScenarioRecord>, Option<SweepMeta>), String> {
    let value =
        consensus_lab::json::parse(body).map_err(|e| format!("unparseable sweep response: {e}"))?;
    let Some(Value::Arr(items)) = value.get("records") else {
        return Err("sweep response has no records array".into());
    };
    let mut records = Vec::with_capacity(items.len());
    for item in items {
        records.push(
            ScenarioRecord::from_json(item)
                .map_err(|e| format!("malformed record in sweep response: {e}"))?,
        );
    }
    let meta = value.get("meta").and_then(SweepMeta::from_json);
    Ok((records, meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        consensus_lab::json::parse(text).expect("test JSON parses")
    }

    fn attr<'a>(span: &'a Value, key: &str) -> Option<&'a Value> {
        span.get("attrs").and_then(|attrs| attrs.get(key))
    }

    /// The stitcher's three parent cases in one harvested fragment: a
    /// context-carrying worker root re-parents under the local
    /// `cluster.shard` span it names, in-fragment nesting survives the
    /// id remap, and a span whose in-ring parent was overwritten falls
    /// back to the sweep root with the `orphaned` marker.
    #[test]
    fn stitch_remaps_reparents_and_marks_orphans() {
        let cfg = ClusterConfig {
            workers: vec!["10.0.0.1:7".into(), "10.0.0.2:7".into()],
            ..ClusterConfig::default()
        };
        let local = format!("{:032x}", trace_id());
        let mut harvest = TraceHarvest::new(2);
        harvest.foreign[0] = vec![
            parse(&format!(
                "{{\"span\":\"http.request\",\"id\":3,\"parent\":null,\"start_us\":1,\
                 \"dur_us\":5,\"attrs\":{{\"remote_trace\":\"{local}\",\"remote_parent\":42}}}}"
            )),
            parse(
                "{\"span\":\"expand\",\"id\":4,\"parent\":3,\"start_us\":2,\"dur_us\":1,\
                 \"attrs\":{}}",
            ),
            parse(
                "{\"span\":\"components\",\"id\":10,\"parent\":9,\"start_us\":3,\"dur_us\":1,\
                 \"attrs\":{}}",
            ),
        ];
        let lines = harvest.stitch(&cfg, Some(7));
        assert_eq!(lines.len(), 3);
        let spans: Vec<Value> = lines.iter().map(|line| parse(line)).collect();

        const BASE: u64 = 1 << 32;
        assert_eq!(field_u64(&spans[0], "id"), Some(BASE + 3));
        assert_eq!(
            field_u64(&spans[0], "parent"),
            Some(42),
            "propagated context re-parents the worker root under the local shard span"
        );
        assert_eq!(
            field_u64(&spans[1], "parent"),
            Some(BASE + 3),
            "in-fragment nesting survives the id remap"
        );
        assert_eq!(
            field_u64(&spans[2], "parent"),
            Some(7),
            "overwritten parent falls back to the sweep root"
        );
        for span in &spans {
            assert_eq!(attr(span, "node").and_then(Value::as_str), Some("10.0.0.1:7"));
        }
        assert_eq!(attr(&spans[2], "orphaned").and_then(Value::as_bool), Some(true));
        assert!(attr(&spans[0], "orphaned").is_none());
        assert!(attr(&spans[1], "orphaned").is_none());
    }

    /// A fragment whose context names someone else's trace (a worker
    /// serving two coordinators at once) must NOT be grafted onto this
    /// process's shard spans — it hangs off the sweep root instead.
    #[test]
    fn stitch_ignores_foreign_trace_contexts() {
        let cfg = ClusterConfig { workers: vec!["10.0.0.1:7".into()], ..ClusterConfig::default() };
        let mut harvest = TraceHarvest::new(1);
        harvest.foreign[0] = vec![parse(
            "{\"span\":\"http.request\",\"id\":1,\"parent\":null,\"start_us\":0,\"dur_us\":1,\
             \"attrs\":{\"remote_trace\":\"deadbeefdeadbeefdeadbeefdeadbeef\",\
             \"remote_parent\":42}}",
        )];
        let spans: Vec<Value> =
            harvest.stitch(&cfg, Some(7)).iter().map(|line| parse(line)).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(field_u64(&spans[0], "parent"), Some(7));
    }

    /// A worker's entry counts every request its request histograms
    /// recorded, unrouted ones included, and keeps its registry for the
    /// merge.
    #[test]
    fn worker_entry_counts_unrouted_requests() {
        use consensus_serve::http::Request;
        let app = consensus_serve::App::new(consensus_lab::session::Session::new());
        let get = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        };
        assert_eq!(app.handle(&get("/healthz")).status, 200);
        assert_eq!(app.handle(&get("/nope")).status, 404);
        let stats = app.handle(&get("/v1/stats"));
        let (entry, snap) = worker_entry(&stats.body).expect("a stats page");
        assert_eq!(entry.get("reachable").and_then(Value::as_bool), Some(true));
        assert_eq!(entry.get("requests_total").and_then(Value::as_i64), Some(2));
        assert!(entry.get("trace").and_then(|t| t.get("spans_started")).is_some());
        assert_eq!(requests_total(&snap), 2);
        assert_eq!(worker_entry("{\"status\":\"ok\"}"), None, "not a stats page");
    }
}
