//! End-to-end tests of the `consensus-serve` HTTP service: a real
//! `TcpListener`-backed server driven through the real client, mirroring
//! the CI smoke job — including the two serving acceptance criteria:
//!
//! * a warm server answers a repeated `/v1/check`, and a `/v1/sweep` over
//!   a grid it already answered, with **zero** new prefix-space
//!   expansions (asserted via the `/metrics` cache counters),
//! * `/v1/sweep` output is byte-identical to a direct `Session` run
//!   (modulo the scheduling-dependent [`TIMING_FIELDS`]).

use std::sync::Arc;

use consensus_core::certificate::{self, Certificate};
use consensus_lab::json::{self, Value};
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{certificate_adversary, Query, Session};
use consensus_lab::store::TIMING_FIELDS;
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig};
use consensus_serve::api::App;
use consensus_serve::client::Client;
use consensus_serve::server::{ServeConfig, Server};

fn start(session: Session, threads: usize) -> Server {
    let cfg = ServeConfig { threads, ..ServeConfig::default() };
    Server::bind(Arc::new(App::new(session)), &cfg).expect("bind ephemeral port")
}

fn client(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect to test server")
}

fn stripped(value: &Value) -> String {
    value.without_keys(TIMING_FIELDS).to_string()
}

fn cache_counter(client: &mut Client, key: &str) -> usize {
    let metrics = client.get("/metrics").unwrap().json().unwrap();
    metrics.get("cache").unwrap().get_usize(key).unwrap()
}

#[test]
fn served_sweep_is_byte_identical_to_direct_session() {
    let server = start(Session::new(), 2);
    let mut client = client(&server);
    let result = client
        .post_json(
            "/v1/sweep",
            r#"{"catalog":true,"max_depth":2,"analyses":["solvability","component-stats"]}"#,
        )
        .unwrap();
    assert_eq!(result.status, 200, "{}", result.body);
    let payload = result.json().unwrap();
    let Some(Value::Arr(records)) = payload.get("records") else {
        panic!("sweep payload must carry a records array: {}", result.body);
    };

    let queries =
        Query::catalog_grid(2, &[AnalysisKind::Solvability, AnalysisKind::ComponentStats]);
    let direct = Session::new().check_many(&queries);
    assert_eq!(records.len(), direct.store.records().len());
    for (served, direct) in records.iter().zip(direct.store.records()) {
        assert_eq!(stripped(served), stripped(&direct.to_json()));
    }
    drop(client);
    server.stop();
}

#[test]
fn warm_check_performs_zero_new_expansions() {
    let server = start(Session::new(), 2);
    let mut client = client(&server);
    let body = r#"{"adversary":"sw-lossy-link","depth":3,"analysis":"component-stats"}"#;

    let first = client.post_json("/v1/check", body).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let builds_after_first = cache_counter(&mut client, "builds");
    assert!(builds_after_first > 0, "the first check must expand");
    let hits_after_first = cache_counter(&mut client, "hits");

    for _ in 0..3 {
        let repeat = client.post_json("/v1/check", body).unwrap();
        assert_eq!(repeat.status, 200);
        assert_eq!(
            stripped(&repeat.json().unwrap()),
            stripped(&first.json().unwrap()),
            "repeated checks must answer identically"
        );
    }
    assert_eq!(
        cache_counter(&mut client, "builds"),
        builds_after_first,
        "a warm server must answer repeats with zero new expansions"
    );
    assert!(cache_counter(&mut client, "hits") > hits_after_first);

    // A sweep over the grid the checks already answered is warm too, and
    // serves the same record.
    let sweep = client.post_json("/v1/sweep", &format!(r#"{{"queries":[{body}]}}"#)).unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let Some(Value::Arr(records)) = sweep.json().unwrap().get("records").cloned() else {
        panic!("sweep payload must carry a records array: {}", sweep.body);
    };
    assert_eq!(records.len(), 1);
    assert_eq!(stripped(&records[0]), stripped(&first.json().unwrap()));
    assert_eq!(
        cache_counter(&mut client, "builds"),
        builds_after_first,
        "a sweep over an answered grid must expand nothing"
    );
    drop(client);
    server.stop();
}

#[test]
fn one_keep_alive_connection_serves_every_endpoint() {
    let server = start(Session::new(), 2);
    let mut client = client(&server);

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.json().unwrap().get("status").unwrap().as_str(), Some("ok"));

    let catalog = client.get("/v1/catalog").unwrap().json().unwrap();
    let Some(Value::Arr(entries)) = catalog.get("entries") else {
        panic!("catalog must carry entries");
    };
    assert_eq!(entries.len(), adversary::catalog::entries().len());

    let record = client
        .post_json("/v1/check", r#"{"adversary":"cgp-reduced-lossy-link","depth":2}"#)
        .unwrap();
    assert_eq!(record.status, 200);
    assert_eq!(record.json().unwrap().get("verdict").unwrap().as_str(), Some("solvable"));

    // A certificate-bearing answer decodes and re-verifies offline
    // against the adversary it names, as `verify-cert` does.
    let certified = client
        .post_json(
            "/v1/check",
            r#"{"adversary":"cgp-reduced-lossy-link","depth":3,"analysis":"solvability","certificate":true}"#,
        )
        .unwrap();
    assert_eq!(certified.status, 200, "{}", certified.body);
    let certified = certified.json().unwrap();
    let cert = Certificate::from_json(certified.get("certificate").expect("a certificate field"))
        .expect("the served certificate decodes");
    let ma = certificate_adversary(cert.adversary()).expect("the named adversary builds");
    certificate::verify(&cert, ma.as_ref()).expect("the served certificate verifies");

    let sweep = client
        .post_json(
            "/v1/sweep",
            r#"{"queries":[{"adversary":"sw-lossy-link","depth":1,"analysis":"bivalence"},
                           {"pool":"-> <-","depth":1,"analysis":"bivalence"}]}"#,
        )
        .unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let payload = sweep.json().unwrap();
    let Some(Value::Arr(records)) = payload.get("records") else {
        panic!("records array");
    };
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].get_usize("index"), Some(0));
    assert_eq!(records[1].get_usize("index"), Some(1));

    // Errors are structured and do not poison the connection.
    let missing = client.post_json("/v1/check", r#"{"adversary":"no-such","depth":2}"#).unwrap();
    assert_eq!(missing.status, 400);
    let error = missing.json().unwrap();
    assert_eq!(error.get("error").unwrap().get("kind").unwrap().as_str(), Some("spec"));
    assert_eq!(client.get("/nope").unwrap().status, 404);

    let metrics = client.get("/metrics").unwrap().json().unwrap();
    let registry = metrics.get("registry").unwrap();
    let requests = |name: &str| {
        let histograms = registry.get("histograms_ns").unwrap();
        histograms.get(&format!("http.request.{name}")).unwrap().get_usize("count")
    };
    assert_eq!(requests("healthz"), Some(1));
    assert_eq!(requests("catalog"), Some(1));
    assert_eq!(requests("check"), Some(3));
    assert_eq!(requests("sweep"), Some(1));
    assert_eq!(requests("unrouted"), Some(1));
    // The 400 and the 404 are client errors.
    assert_eq!(registry.get("counters").unwrap().get_usize("http.errors_4xx"), Some(2));
    assert_eq!(registry.get("counters").unwrap().get_usize("http.errors_5xx"), Some(0));
    assert_eq!(client.reconnects(), 0, "every exchange must ride one keep-alive connection");
    drop(client);
    server.stop();
}

#[test]
fn budget_starved_server_answers_422() {
    let session = Session::with_configs(
        ExpandConfig::with_budget(10),
        AnalysisConfig::default(),
        CacheConfig::default(),
    )
    .unwrap();
    let server = start(session, 1);
    let mut client = client(&server);
    let result = client
        .post_json("/v1/check", r#"{"adversary":"sw-lossy-link","depth":4,"analysis":"bivalence"}"#)
        .unwrap();
    assert_eq!(result.status, 422, "{}", result.body);
    let error = result.json().unwrap();
    assert_eq!(error.get("error").unwrap().get("kind").unwrap().as_str(), Some("budget"));
    assert_eq!(error.get("error").unwrap().get_usize("status"), Some(422));
    drop(client);
    server.stop();
}

#[test]
fn disk_backed_server_restarts_warm() {
    let dir = std::env::temp_dir().join(format!("consensus-serve-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = |resume: bool| {
        Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            CacheConfig::new().disk_dir(&dir).resume(resume),
        )
        .unwrap()
    };
    let body = r#"{"catalog":true,"max_depth":2,"analyses":["bivalence"]}"#;

    let cold_server = start(session(true), 2);
    let mut cold_client = client(&cold_server);
    let cold = cold_client.post_json("/v1/sweep", body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert!(cache_counter(&mut cold_client, "builds") > 0);
    drop(cold_client);
    cold_server.stop();

    // A second server over the same journal — a process restart — answers
    // the whole grid without a single expansion.
    let warm_server = start(session(true), 2);
    let mut warm_client = client(&warm_server);
    let warm = warm_client.post_json("/v1/sweep", body).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(cache_counter(&mut warm_client, "builds"), 0, "restart must stay warm");
    assert!(cache_counter(&mut warm_client, "disk_hits") > 0);
    let strip_all = |result: &consensus_serve::client::HttpResult| -> Vec<String> {
        let payload = json::parse(&result.body).unwrap();
        let Some(Value::Arr(records)) = payload.get("records") else {
            panic!("records array");
        };
        records.iter().map(stripped).collect()
    };
    assert_eq!(strip_all(&cold), strip_all(&warm));
    drop(warm_client);
    warm_server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_connections_agree_with_each_other() {
    let server = start(Session::new(), 4);
    let addr = server.local_addr().to_string();
    let body = r#"{"adversary":"message-loss-2-2","depth":2,"analysis":"solvability"}"#;
    let mut answers: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut answers = Vec::new();
                    for _ in 0..5 {
                        let result = client.post_json("/v1/check", body).unwrap();
                        assert_eq!(result.status, 200, "{}", result.body);
                        answers.push(stripped(&result.json().unwrap()));
                    }
                    answers
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    answers.dedup();
    assert_eq!(answers.len(), 1, "every connection must see the same record");
    server.stop();
}
