//! The HTTP door and the verdict journal, measured on a sweep workload's
//! inputs in its traced run.
//!
//! [`http_layers`] serves part of the grid through an in-process `Server`
//! (journal hits and misses), checks every answer, and replays the
//! requests through the request path's public calls. [`journal_layers`]
//! journals the sweep's records, reloads the journal and looks each one up.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use consensus_lab::persist::{persistable, DiskEntry};
use consensus_lab::runner::{scenario_params, SWEEP_VALUES};
use consensus_lab::session::{Query, Session};
use consensus_lab::store::{ScenarioRecord, TIMING_FIELDS};
use consensus_lab::{AnalysisConfig, CacheConfig, DiskCache, ExpandConfig};
use consensus_serve::api::App;
use consensus_serve::client::Client;
use consensus_serve::http;
use consensus_serve::server::{ServeConfig, Server};
use json::Value;

use crate::stats::{median, us};
use crate::sweep::stripped;
use crate::Metrics;

const SERVER_THREADS: usize = 2;
/// Every `MISS_EVERY`-th served query is left out of the warm-up, so the
/// server computes and journals it (a miss); the others are journal hits.
const MISS_EVERY: usize = 8;

/// One `/v1/check` request.
#[derive(Debug, Clone)]
struct Req {
    body: String,
    query: Query,
}

impl Req {
    fn new(query: &Query) -> Option<Req> {
        let spec = query.spec.term().ok()?.to_string();
        let mut fields = vec![
            ("spec".to_string(), Value::Str(spec)),
            ("depth".into(), Value::Int(query.depth as i64)),
            ("analysis".into(), Value::Str(query.analysis.name().to_string())),
        ];
        if query.certificate {
            fields.push(("certificate".into(), Value::Bool(true)));
        }
        Some(Req { body: Value::Obj(fields).to_string(), query: query.clone() })
    }
}

/// A journaled session with one scenario worker in a fresh `dir`, warmed
/// with `warm`.
fn warmed(dir: &Path, warm: &[Query]) -> Session {
    let _ = std::fs::remove_dir_all(dir);
    let session = Session::with_configs(
        ExpandConfig::default(),
        AnalysisConfig::default(),
        CacheConfig::default().disk_dir(dir),
    )
    .expect("the journal directory opens")
    .workers(1);
    std::hint::black_box(session.check_many(warm));
    session
}

/// A journaled session's (hits, stores) counters.
fn journal_counts(session: &Session) -> (usize, usize) {
    session.disk_cache().map_or((0, 0), |d| (d.hits(), d.stores()))
}

/// Run directory for this process's journals.
fn work_dir(root: &Path, tag: &str) -> PathBuf {
    root.join(format!("serve-{tag}-{}", std::process::id()))
}

/// In-process replay of requests through the request path's public
/// calls: per-call samples in µs.
#[derive(Default)]
struct Replay {
    read_request: Vec<f64>,
    handle: Vec<f64>,
    write_response: Vec<f64>,
}

impl Replay {
    /// The request-path metrics, given the median client round trip.
    fn metrics(&self, roundtrip_us: f64) -> Metrics {
        let framing = median(&self.read_request) + median(&self.write_response);
        let handle = median(&self.handle);
        let mut m = Metrics::new();
        m.insert("http.roundtrip.us", roundtrip_us);
        m.insert("api.handle.us", handle);
        m.insert("http.transport.us", roundtrip_us - handle - framing);
        m.insert("http.framing.us", framing);
        m
    }
}

fn replay(app: &App, reqs: &[Req]) -> Replay {
    let mut r = Replay::default();
    for req in reqs {
        let raw = format!(
            "POST /v1/check HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{}",
            req.body.len(),
            req.body
        );
        let t = Instant::now();
        let request = http::read_request(&mut BufReader::new(raw.as_bytes()))
            .expect("well-formed request")
            .expect("one request");
        r.read_request.push(us(t.elapsed()));

        let t = Instant::now();
        let response = app.handle(&request);
        r.handle.push(us(t.elapsed()));

        let mut sink = Vec::with_capacity(response.body.len() + 256);
        let t = Instant::now();
        let _ = http::write_response_with(
            &mut sink,
            response.status,
            response.content_type,
            &response.headers,
            response.body.as_bytes(),
            true,
        );
        r.write_response.push(us(t.elapsed()));
    }
    r
}

/// Whether a 200 answer's body is the reference record (timing fields
/// aside).
fn same_record(body: &str, want: &Result<String, String>) -> Result<(), String> {
    let want = want.as_ref().map_err(|e| format!("record where the reference failed: {e}"))?;
    let got = json::parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    if got.without_keys(TIMING_FIELDS).to_string() == *want {
        Ok(())
    } else {
        Err("record differs from the reference".into())
    }
}

/// The HTTP door's layers on any queries, and the oracle failures. A
/// journaled session is warmed with all but every [`MISS_EVERY`]-th query
/// and put behind a 2-thread server, which is sent each query once over
/// one keep-alive connection. A twin session, warmed alike, is asked the
/// same queries in the same order through the library; a record's
/// `space` block can depend on the session's cache history, so the twin
/// shares it. Every answer must be HTTP 200 and equal the twin's record,
/// and the server's journal must count the twin's hits and stores, one of
/// the two per request. The requests are then replayed in-process.
pub fn http_layers(queries: &[Query], root: &Path) -> (Metrics, Vec<String>) {
    let reqs: Vec<Req> = queries.iter().filter_map(Req::new).collect();
    let mut failures = Vec::new();
    if reqs.len() != queries.len() {
        failures.push(format!("{} queries have no spec term", queries.len() - reqs.len()));
    }
    let warm: Vec<Query> = reqs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % MISS_EVERY != MISS_EVERY - 1)
        .map(|(_, r)| r.query.clone())
        .collect();

    let twin_dir = work_dir(root, "http-twin");
    let twin = warmed(&twin_dir, &warm);
    let before = journal_counts(&twin);
    let expected: Vec<Result<String, String>> = reqs
        .iter()
        .map(|r| twin.check(&r.query).map(|record| stripped(&record)).map_err(|e| e.to_string()))
        .collect();
    let after = journal_counts(&twin);
    let want = (after.0 - before.0, after.1 - before.1);
    drop(twin);
    let _ = std::fs::remove_dir_all(&twin_dir);

    let dir = work_dir(root, "http");
    let config = ServeConfig { threads: SERVER_THREADS, ..ServeConfig::default() };
    let server = Server::bind(Arc::new(App::new(warmed(&dir, &warm))), &config)
        .expect("bind an ephemeral port");
    let before = journal_counts(server.app().session());
    let mut client = Client::connect(&server.local_addr().to_string())
        .expect("connect to the in-process server");
    let (mut roundtrip, mut non_200) = (Vec::new(), 0usize);
    for (req, want) in reqs.iter().zip(&expected) {
        let t = Instant::now();
        let answer = client.post_json("/v1/check", &req.body);
        roundtrip.push(us(t.elapsed()));
        let outcome = match answer {
            Ok(a) if a.status == 200 => same_record(&a.body, want),
            Ok(a) => {
                non_200 += 1;
                Err(format!("HTTP {}: {}", a.status, a.body))
            }
            Err(e) => {
                non_200 += 1;
                Err(format!("no answer: {e}"))
            }
        };
        if let Err(why) = outcome {
            failures.push(format!("{}: {why}", req.query.label()));
        }
    }
    let after = journal_counts(server.app().session());
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    if (hits, misses) != want || hits + misses != reqs.len() {
        failures.push(format!(
            "journal counted {hits} hits and {misses} stores for {} requests; the library \
             door counted {} and {}",
            reqs.len(),
            want.0,
            want.1
        ));
    }
    let (reconnects, timeouts) = (client.reconnects(), client.timeouts());
    drop(client);
    let rp = replay(server.app(), &reqs);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = rp.metrics(median(&roundtrip));
    m.insert("requests.hits", hits as f64);
    m.insert("requests.misses", misses as f64);
    m.insert("http.non_200", non_200 as f64);
    m.insert("client.reconnects", reconnects as f64);
    m.insert("client.timeouts", timeouts as f64);
    (m, failures)
}

/// The journal layer on any records, and the oracle failures: append each
/// persistable outcome to a fresh journal, reopen it (load) and look every
/// record up. Each lookup of a persistable record must return what was
/// stored for it.
pub fn journal_layers(records: &[ScenarioRecord], root: &Path) -> (Metrics, Vec<String>) {
    let dir = work_dir(root, "journal");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = AnalysisConfig::default();
    let entry = |r: &ScenarioRecord| DiskEntry {
        outcome: r.outcome.clone(),
        space: r.space,
        certificate: r.certificate.clone(),
    };
    let mut m = Metrics::new();
    let mut failures = Vec::new();
    let (mut store_us, mut lookup_us) = (Vec::new(), Vec::new());
    match DiskCache::open(&dir) {
        Ok(journal) => {
            for r in records.iter().filter(|r| persistable(r)) {
                let params = scenario_params(r.analysis, &cfg);
                let t = Instant::now();
                let stored = journal.store(
                    r.fingerprint,
                    SWEEP_VALUES,
                    r.depth,
                    r.analysis,
                    &params,
                    entry(r),
                );
                store_us.push(us(t.elapsed()));
                if let Err(e) = stored {
                    failures.push(format!("journal store failed: {e}"));
                }
            }
            m.insert("journal.stores", journal.stores() as f64);
        }
        Err(e) => failures.push(format!("journal open failed: {e}")),
    }
    let t = Instant::now();
    match DiskCache::open(&dir) {
        Ok(journal) => {
            m.insert("journal.open.ms", us(t.elapsed()) / 1e3);
            m.insert("journal.loaded", journal.loaded() as f64);
            for r in records {
                let params = scenario_params(r.analysis, &cfg);
                let t = Instant::now();
                let found =
                    journal.lookup(r.fingerprint, SWEEP_VALUES, r.depth, r.analysis, &params);
                lookup_us.push(us(t.elapsed()));
                if persistable(r) && found != Some(entry(r)) {
                    failures.push(format!(
                        "journal lookup of {}@{}/{} does not return the stored outcome",
                        r.adversary, r.depth, r.analysis
                    ));
                }
            }
        }
        Err(e) => failures.push(format!("journal reopen failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.insert("journal.store.us", median(&store_us));
    m.insert("journal.lookup.us", median(&lookup_us));
    (m, failures)
}
