//! The cluster door, measured on a sweep workload's catalog grid in its
//! traced run.
//!
//! `coordinator::run_with` sweeps the grid over two fresh in-process
//! journaled workers (1 server thread and one scenario worker each), with
//! 2 shards per worker and 10% spot-check, so worker caches start cold.
//! A second, diagnostic pass stops one worker right after its first
//! `completed` event.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use consensus_cluster::coordinator::{self, ClusterConfig};
use consensus_cluster::EventSink;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use consensus_lab::store::ScenarioRecord;
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig};
use consensus_serve::api::App;
use consensus_serve::server::{ServeConfig, Server};
use json::Value;

use crate::stats::us;
use crate::sweep::stripped;
use crate::{Metrics, RunResult};

/// A catalog grid the coordinator can sweep.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    pub max_depth: usize,
    pub analyses: &'static [AnalysisKind],
}

const WORKERS: usize = 2;
const SHARDS_PER_WORKER: usize = 2;
const SPOT_CHECK_PCT: usize = 10;
/// Idle keep-alive timeout of the fault-pass fleet: stopping a worker
/// waits for its idle connection to time out.
const FAULT_READ_TIMEOUT: Duration = Duration::from_millis(200);

fn session(dir: Option<&Path>) -> Session {
    let cache = match dir {
        Some(dir) => CacheConfig::default().disk_dir(dir),
        None => CacheConfig::default(),
    };
    Session::with_configs(ExpandConfig::default(), AnalysisConfig::default(), cache)
        .expect("the worker journal opens")
        .workers(1)
}

/// A running fleet of in-process workers.
struct Fleet {
    servers: Vec<Option<Server>>,
    addrs: Vec<String>,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    fn boot(root: &Path, tag: &str, read_timeout: Duration) -> Fleet {
        let mut fleet = Fleet { servers: Vec::new(), addrs: Vec::new(), dirs: Vec::new() };
        for w in 0..WORKERS {
            let dir = root.join(format!("cluster-{}-{tag}-w{w}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = ServeConfig { threads: 1, read_timeout, ..ServeConfig::default() };
            let server = Server::bind(Arc::new(App::new(session(Some(&dir)))), &config)
                .expect("bind an ephemeral port");
            fleet.addrs.push(server.local_addr().to_string());
            fleet.servers.push(Some(server));
            fleet.dirs.push(dir);
        }
        fleet
    }

    fn stop(mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.stop();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn config(grid: Grid, addrs: &[String]) -> ClusterConfig {
    ClusterConfig {
        workers: addrs.to_vec(),
        shards_per_worker: SHARDS_PER_WORKER,
        max_depth: grid.max_depth,
        analyses: grid.analyses.to_vec(),
        spot_check_pct: SPOT_CHECK_PCT,
        ..ClusterConfig::default()
    }
}

/// The serial reference: the same grid in one session, one worker.
fn serial_reference(grid: Grid) -> (Vec<ScenarioRecord>, f64) {
    let start = Instant::now();
    let report = session(None).check_many(&Query::catalog_grid(grid.max_depth, grid.analyses));
    let ms = us(start.elapsed()) / 1e3;
    (report.store.into_records(), ms)
}

/// Count merged records that differ from the serial reference.
fn differing(records: &[ScenarioRecord], reference: &[String]) -> usize {
    if records.len() != reference.len() {
        return reference.len().max(records.len());
    }
    records.iter().zip(reference).filter(|(r, s)| stripped(r) != **s).count()
}

/// An event writer that timestamps every line.
struct Stamped {
    t0: Instant,
    lines: Arc<Mutex<Vec<(f64, Value)>>>,
    pending: Vec<u8>,
}

impl Write for Stamped {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let at = self.t0.elapsed().as_secs_f64() * 1e3;
            if let Ok(value) = json::parse(String::from_utf8_lossy(&line).trim()) {
                self.lines.lock().expect("event log lock").push((at, value));
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An event writer that stops one worker right after its first
/// `completed` event (the fault pass).
struct Killer {
    victim: String,
    server: Arc<Mutex<Option<Server>>>,
    pending: Vec<u8>,
}

impl Write for Killer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let Ok(event) = json::parse(String::from_utf8_lossy(&line).trim()) else {
                continue;
            };
            let completed = event.get("event").and_then(Value::as_str) == Some("cluster.completed");
            let by_victim =
                event.get("worker").and_then(Value::as_str) == Some(self.victim.as_str());
            if completed && by_victim {
                if let Some(server) = self.server.lock().expect("victim lock").take() {
                    server.stop();
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One cluster pass on a fresh fleet, with every event timestamped.
struct Pass {
    wall_ms: f64,
    outcome: consensus_cluster::ClusterOutcome,
    events: Vec<(f64, Value)>,
}

fn pass(grid: Grid, root: &Path) -> Result<Pass, String> {
    let fleet = Fleet::boot(root, "stamped", ServeConfig::default().read_timeout);
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = EventSink::new(Box::new(Stamped {
        t0: Instant::now(),
        lines: Arc::clone(&lines),
        pending: Vec::new(),
    }));
    let start = Instant::now();
    let outcome = coordinator::run_with(&config(grid, &fleet.addrs), Some(&sink));
    let wall_ms = us(start.elapsed()) / 1e3;
    fleet.stop();
    drop(sink);
    let events = std::mem::take(&mut *lines.lock().expect("event log lock"));
    Ok(Pass { wall_ms, outcome: outcome?, events })
}

/// The fault pass: worker 0 stops right after its first completed shard.
/// Returns (wall ms, merged records, spot-check failures, retries,
/// rebalances).
#[allow(clippy::type_complexity)]
fn fault_pass(
    grid: Grid,
    root: &Path,
) -> Result<(f64, Vec<ScenarioRecord>, Vec<String>, usize, usize), String> {
    let mut fleet = Fleet::boot(root, "fault", FAULT_READ_TIMEOUT);
    let victim = Arc::new(Mutex::new(fleet.servers[0].take()));
    let sink = EventSink::new(Box::new(Killer {
        victim: fleet.addrs[0].clone(),
        server: Arc::clone(&victim),
        pending: Vec::new(),
    }));
    let start = Instant::now();
    let outcome = coordinator::run_with(&config(grid, &fleet.addrs), Some(&sink));
    let wall_ms = us(start.elapsed()) / 1e3;
    if let Some(server) = victim.lock().expect("victim lock").take() {
        server.stop();
    }
    fleet.stop();
    let outcome = outcome?;
    Ok((
        wall_ms,
        outcome.records,
        outcome.spot_check_failures,
        outcome.stats.retries,
        outcome.stats.rebalances,
    ))
}

/// Dispatch-phase figures from one pass's timestamped events:
/// (shard max ms, busy ratio, dispatch ms, audit ms).
fn phases(events: &[(f64, Value)]) -> (f64, f64, f64, f64) {
    let kind = |v: &Value| v.get("event").and_then(Value::as_str).unwrap_or("").to_string();
    let first_dispatch = events
        .iter()
        .filter(|(_, v)| kind(v) == "cluster.dispatched")
        .map(|(t, _)| *t)
        .fold(f64::INFINITY, f64::min);
    let mut per_worker: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (t, v) in events.iter().filter(|(_, v)| kind(v) == "cluster.completed") {
        let worker = v.get("worker").and_then(Value::as_str).unwrap_or("").to_string();
        per_worker.entry(worker).or_default().push(*t);
    }
    let (mut shard_max, mut busy, mut last) = (0.0f64, 0.0, first_dispatch);
    for times in per_worker.values() {
        let mut prev = first_dispatch;
        for &t in times {
            shard_max = shard_max.max(t - prev);
            prev = t;
        }
        busy += prev - first_dispatch;
        last = last.max(prev);
    }
    let dispatch = last - first_dispatch;
    let audit_end = events
        .iter()
        .filter(|(_, v)| kind(v) == "cluster.audited")
        .map(|(t, _)| *t)
        .fold(last, f64::max);
    let ratio = busy / (per_worker.len().max(1) as f64 * dispatch.max(f64::MIN_POSITIVE));
    (shard_max, ratio, dispatch, audit_end - last)
}

/// The cluster door's layers on a catalog grid: one cold pass with
/// timestamped events and the fault pass, each checked against the
/// serial reference.
pub fn layers(grid: Grid, root: &Path) -> RunResult {
    let (reference_records, serial_ms) = serial_reference(grid);
    let reference: Vec<String> = reference_records.iter().map(stripped).collect();
    let mut notes = Vec::new();
    let mut correct = true;
    let mut m = Metrics::new();
    m.insert("cluster.serial_ref.ms", serial_ms);
    match pass(grid, root) {
        Ok(p) => {
            let (stats, failures) = (&p.outcome.stats, &p.outcome.spot_check_failures);
            let bad = differing(&p.outcome.records, &reference);
            if bad > 0 || !failures.is_empty() || stats.retries > 0 || stats.rebalances > 0 {
                correct = false;
                notes.push(format!(
                    "{bad} record(s) differ from serial, {} spot-check failure(s), {} retries, \
                     {} rebalances",
                    failures.len(),
                    stats.retries,
                    stats.rebalances
                ));
            }
            let (shard_max, busy_ratio, dispatch_ms, audit_ms) = phases(&p.events);
            m.insert("cluster.shards", stats.shards as f64);
            m.insert("cluster.shard_max.ms", shard_max);
            m.insert("cluster.worker_busy_ratio", busy_ratio);
            m.insert("cluster.merge.ms", p.wall_ms - dispatch_ms - audit_ms);
            m.insert("spotcheck.audits", stats.spot_checks as f64);
            m.insert("spotcheck.ms", audit_ms);
        }
        Err(e) => {
            correct = false;
            notes.push(format!("cluster pass failed: {e}"));
        }
    }
    match fault_pass(grid, root) {
        Ok((ms, records, failures, retries, rebalances)) => {
            m.insert("cluster.fault_sweep.ms", ms);
            m.insert("cluster.retries", retries as f64);
            m.insert("cluster.rebalances", rebalances as f64);
            if differing(&records, &reference) > 0 || !failures.is_empty() || rebalances == 0 {
                correct = false;
                notes.push("fault pass records differ from serial, or it did not rebalance".into());
            }
        }
        Err(e) => {
            correct = false;
            notes.push(format!("fault pass failed: {e}"));
        }
    }
    RunResult {
        correct,
        attempted: reference.len() as u64,
        failed: u64::from(!correct),
        metrics: m,
        notes,
    }
}
