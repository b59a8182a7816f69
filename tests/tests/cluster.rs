//! End-to-end tests of the distributed sweep cluster: a coordinator
//! driving real `TcpListener`-backed worker servers through the real
//! HTTP client, covering the three cluster acceptance criteria:
//!
//! * a 2-worker cluster sweep merges to records **byte-identical**
//!   (modulo the scheduling-dependent [`TIMING_FIELDS`]) to a serial
//!   `Session` sweep of the same grid,
//! * killing a worker still completes the sweep with the identical
//!   merged output — its shards rebalance onto the survivors,
//! * a tampered worker verdict is caught by the certificate spot-check,
//! * the observability seam tells the truth: lifecycle events match the
//!   run's counters one-for-one and the fleet snapshot folds every
//!   worker's `/v1/stats`,
//! * a cold journaled session warm-starts from a live worker's journal
//!   segment and then answers that worker's grid without expanding.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use consensus_cluster::coordinator::{self, ClusterConfig};
use consensus_cluster::{spotcheck, warm, EventSink};
use consensus_lab::json::Value;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use consensus_lab::store::{ScenarioRecord, TIMING_FIELDS};
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig};
use consensus_serve::api::App;
use consensus_serve::client::Client;
use consensus_serve::server::{ServeConfig, Server};

fn start_worker() -> Server {
    let cfg = ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    Server::bind(Arc::new(App::new(Session::new())), &cfg).expect("bind ephemeral worker")
}

fn cluster_config(workers: Vec<String>) -> ClusterConfig {
    ClusterConfig {
        workers,
        max_depth: 2,
        analyses: vec![AnalysisKind::Solvability, AnalysisKind::ComponentStats],
        // Fail fast in tests: a dead worker should cost milliseconds.
        retries: 1,
        backoff: Duration::from_millis(5),
        deadline: Duration::from_secs(10),
        ..ClusterConfig::default()
    }
}

/// The serial reference for the same grid a config sweeps.
fn serial_records(cfg: &ClusterConfig) -> Vec<ScenarioRecord> {
    let grid = Query::catalog_grid(cfg.max_depth, &cfg.analyses);
    Session::new().check_many(&grid).store.records().to_vec()
}

fn assert_identical(merged: &[ScenarioRecord], serial: &[ScenarioRecord]) {
    assert_eq!(merged.len(), serial.len(), "merged grid must be complete");
    for (cluster, serial) in merged.iter().zip(serial) {
        assert_eq!(
            cluster.to_json().without_keys(TIMING_FIELDS),
            serial.to_json().without_keys(TIMING_FIELDS),
            "cluster and serial records must be byte-identical modulo timing"
        );
    }
}

#[test]
fn two_worker_cluster_matches_serial_sweep() {
    let servers = [start_worker(), start_worker()];
    let cfg = cluster_config(servers.iter().map(|s| s.local_addr().to_string()).collect());

    let outcome = coordinator::run(&cfg).expect("cluster sweep over a healthy fleet");
    assert_identical(&outcome.records, &serial_records(&cfg));

    assert_eq!(outcome.stats.workers, 2);
    assert_eq!(outcome.stats.workers_dead, 0);
    assert_eq!(outcome.stats.rebalances, 0);
    assert_eq!(outcome.stats.scenarios, outcome.records.len());
    assert!(outcome.stats.shards >= 2, "two workers plan at least two shards");
    assert!(outcome.stats.spot_checks > 0, "a default run audits at least one verdict");
    assert!(outcome.spot_check_failures.is_empty(), "{:?}", outcome.spot_check_failures);
    for server in servers {
        server.stop();
    }
}

/// A `Write` the test can read back after the sink is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("event buffer").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn lifecycle_events_and_fleet_snapshot_cover_the_run() {
    let servers = [start_worker(), start_worker()];
    let cfg = cluster_config(servers.iter().map(|s| s.local_addr().to_string()).collect());

    let buffer = SharedBuf::default();
    let sink = EventSink::new(Box::new(buffer.clone()));
    let outcome = coordinator::run_with(&cfg, Some(&sink)).expect("cluster sweep with events");
    assert_identical(&outcome.records, &serial_records(&cfg));

    // Every emitted line is whole JSON, and the stream reconciles
    // one-for-one with the run's own counters: no phantom events, no
    // silent drops.
    let text = String::from_utf8(buffer.0.lock().expect("event buffer").clone()).expect("utf-8");
    let events: Vec<Value> = text
        .lines()
        .map(|line| consensus_lab::json::parse(line).expect("whole JSON event line"))
        .collect();
    assert_eq!(events.len(), outcome.stats.events_emitted);
    let count = |kind: &str| {
        events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some(kind))
            .count()
    };
    assert_eq!(count("cluster.dispatched"), outcome.stats.dispatches);
    assert_eq!(count("cluster.completed"), outcome.stats.shards, "every shard completes once");
    assert_eq!(count("cluster.audited"), outcome.stats.spot_checks);
    assert_eq!(count("cluster.retried"), outcome.stats.retries);
    assert_eq!(count("cluster.rebalanced"), 0, "a healthy fleet rebalances nothing");
    for event in &events {
        if event.get("event").and_then(Value::as_str) == Some("cluster.completed") {
            let echoed = event.get("request_id").and_then(Value::as_str).unwrap_or_default();
            assert!(!echoed.is_empty(), "completed events carry the worker's x-request-id echo");
        }
    }

    // The fleet snapshot folds both workers' `/v1/stats`: per-worker
    // request totals kept apart, their sum in the merged block.
    let fleet = outcome.fleet.expect("a healthy fleet polls every worker");
    assert_eq!(fleet.get("workers_dead").and_then(Value::as_i64), Some(0));
    let Some(Value::Obj(per_worker)) = fleet.get("per_worker") else {
        panic!("fleet snapshot has a per_worker object: {fleet}");
    };
    assert_eq!(per_worker.len(), 2);
    let mut summed = 0;
    for (addr, entry) in per_worker {
        assert_eq!(
            entry.get("reachable").and_then(Value::as_bool),
            Some(true),
            "worker {addr} is reachable"
        );
        let requests = entry.get("requests_total").and_then(Value::as_i64).unwrap_or(0);
        assert!(requests > 0, "worker {addr} served at least one request");
        summed += requests;
    }
    let merged = fleet.get("merged").expect("fleet snapshot has a merged block");
    assert_eq!(merged.get("requests_total").and_then(Value::as_i64), Some(summed));
    assert!(
        matches!(merged.get("counters"), Some(Value::Obj(fields)) if !fields.is_empty()),
        "merged counters fold the workers' registries: {merged}"
    );
    for server in servers {
        server.stop();
    }
}

#[test]
fn killing_a_worker_mid_sweep_still_completes_identically() {
    // Three workers; the victim is killed as the coordinator launches,
    // so its shards were planned for it but every dispatch to it fails
    // — the deterministic worst case of a mid-sweep death. The
    // coordinator must burn its retries, declare the worker dead,
    // rebalance the orphaned shards onto the survivors, and still merge
    // the complete grid.
    let survivors = [start_worker(), start_worker()];
    let victim = start_worker();
    let mut workers: Vec<String> = survivors.iter().map(|s| s.local_addr().to_string()).collect();
    workers.push(victim.local_addr().to_string());
    victim.stop();

    let cfg = cluster_config(workers);
    let outcome = coordinator::run(&cfg).expect("survivors must absorb the dead worker's shards");
    assert_identical(&outcome.records, &serial_records(&cfg));

    assert_eq!(outcome.stats.workers, 3);
    assert_eq!(outcome.stats.workers_dead, 1, "exactly the victim dies");
    assert!(outcome.stats.retries > 0, "the victim's shards retry before it is declared dead");
    assert!(outcome.stats.rebalances > 0, "the victim's shards rebalance onto survivors");
    assert!(outcome.spot_check_failures.is_empty(), "{:?}", outcome.spot_check_failures);
    for server in survivors {
        server.stop();
    }
}

#[test]
fn a_dead_fleet_fails_loudly_instead_of_merging_partial_results() {
    let victim = start_worker();
    let addr = victim.local_addr().to_string();
    victim.stop();

    let error = coordinator::run(&cluster_config(vec![addr]))
        .expect_err("a fleet with no live worker cannot complete");
    assert!(error.contains("dead"), "the error must name the dead fleet: {error}");
}

#[test]
fn tampered_worker_verdict_is_caught_by_the_certificate_spot_check() {
    let server = start_worker();
    let workers = vec![server.local_addr().to_string()];

    // A small serial sweep stands in for honestly merged records…
    let grid = Query::catalog_grid(2, &[AnalysisKind::Solvability]);
    let mut records = Session::new().check_many(&grid).store.records().to_vec();

    // …which a 100% audit against an honest worker confirms in full.
    let clean = spotcheck::spot_check(&records, &workers, 100, Duration::from_secs(10))
        .expect("audit against a live worker");
    assert!(clean.candidates > 0, "the solvability grid has auditable verdicts");
    assert_eq!(clean.checked, clean.candidates, "a 100% audit checks every candidate");
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);

    // Tamper with one definitive verdict, as a lying worker would.
    let target = records
        .iter()
        .position(|r| matches!(r.outcome.verdict.as_str(), "solvable" | "unsolvable"))
        .expect("at least one definitive solvability verdict");
    let honest = records[target].outcome.verdict.clone();
    records[target].outcome.verdict = if honest == "solvable" {
        "unsolvable".into()
    } else {
        "solvable".into()
    };

    let audited = spotcheck::spot_check(&records, &workers, 100, Duration::from_secs(10))
        .expect("audit against a live worker");
    assert_eq!(audited.failures.len(), 1, "exactly the tampered verdict fails: {audited:?}");
    let failure = &audited.failures[0];
    assert!(
        failure.contains(&records[target].adversary) && failure.contains(&honest),
        "the rejection names the scenario and the certified verdict: {failure}"
    );
    server.stop();
}

#[test]
fn a_cold_session_warm_starts_from_a_peer_journal() {
    let root = std::env::temp_dir().join(format!("consensus-cluster-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let journaled = |dir: &str| {
        Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            CacheConfig::default().disk_dir(root.join(dir)),
        )
        .expect("open a journaled session")
    };
    let serve_cfg =
        ServeConfig { addr: "127.0.0.1:0".into(), threads: 2, ..ServeConfig::default() };
    let server = Server::bind(Arc::new(App::new(journaled("worker"))), &serve_cfg)
        .expect("bind a journaled worker");
    let peer = server.local_addr().to_string();
    let cfg = cluster_config(vec![peer.clone()]);

    // The worker journals the verdicts of one sweep.
    let mut client = Client::connect(&peer).expect("connect to the worker");
    let sweep = client
        .post_json(
            "/v1/sweep",
            r#"{"catalog":true,"max_depth":2,"analyses":["solvability","component-stats"]}"#,
        )
        .unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let segment = client.get("/v1/journal/segment").unwrap().json().unwrap();
    let Some(Value::Arr(entries)) = segment.get("entries") else {
        panic!("the segment must carry an entries array: {segment}");
    };
    assert!(!entries.is_empty(), "the worker journaled its sweep");

    // A cold journaled session absorbs the segment entry for entry; a
    // second pull finds nothing new.
    let cold = journaled("cold");
    let deadline = Duration::from_secs(30);
    assert_eq!(warm::warm_from(&cold, &peer, deadline), Ok(entries.len()));
    assert_eq!(warm::warm_from(&cold, &peer, deadline), Ok(0));

    // The warmed session answers the worker's grid from the journal.
    let report = cold.check_many(&Query::catalog_grid(cfg.max_depth, &cfg.analyses));
    assert_eq!(report.cache.builds, 0, "a warm-started session must not expand");
    assert_identical(report.store.records(), &serial_records(&cfg));

    // Warm-start needs a journal to absorb into.
    let refused = warm::warm_from(&Session::new(), &peer, deadline).unwrap_err();
    assert!(refused.contains("--cache-dir"), "{refused}");

    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
