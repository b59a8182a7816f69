//! Record encoder differential (deterministic): every record shape the lab
//! emits encodes through [`ScenarioRecord::write_to`] byte for byte as
//! `to_json().to_string()`, reads back through `from_json(parse(line))` as
//! the record it was, and reaches `/v1/check` clients as the library's
//! line.
//!
//! The records: a catalog batch at depths 1–4 over all five analyses with
//! certificates on, plus an error record, a budget-exceeded record, a
//! timed-out record, a journal hit, and records whose `wall_ms` is 0,
//! ≥ 10^15 and NaN.

use std::fs;
use std::time::Duration;

use consensus_lab::json;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use consensus_lab::store::{Outcome, ResultStore, ScenarioRecord};
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig};
use consensus_serve::api::App;
use consensus_serve::http::Request;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, RngCore, SeedableRng};

fn line(record: &ScenarioRecord) -> String {
    let mut out = String::new();
    record.write_to(&mut out);
    out
}

fn one(session: &Session, query: &Query) -> ScenarioRecord {
    let report = session.check_many(std::slice::from_ref(query));
    report.store.into_records().pop().expect("one query in, one record out")
}

fn session(expand: ExpandConfig, cache: CacheConfig) -> Session {
    Session::with_configs(expand, AnalysisConfig::default(), cache).expect("cache dir opens")
}

fn records() -> Vec<ScenarioRecord> {
    let grid: Vec<Query> = Query::catalog_grid(4, &AnalysisKind::ALL)
        .into_iter()
        .map(Query::with_certificate)
        .collect();
    let mut records = Session::new().check_many(&grid).store.into_records();
    assert!(records.iter().any(|r| r.certificate.is_some()), "the batch certifies");

    let solvable =
        Query::catalog("cgp-reduced-lossy-link", 2, AnalysisKind::Solvability).with_certificate();
    let error =
        one(&Session::new(), &Query::catalog("no-such-entry", 2, AnalysisKind::Solvability));
    assert_eq!(error.outcome.verdict, "error");
    let tiny = session(ExpandConfig::with_budget(10), CacheConfig::default());
    let exceeded = one(&tiny, &Query::catalog("sw-lossy-link", 4, AnalysisKind::ComponentStats));
    assert_eq!(exceeded.outcome.verdict, "budget-exceeded");
    let timed = one(&Session::new().time_limit(Duration::ZERO), &solvable);
    assert!(timed.outcome.details.iter().any(|(k, _)| k == "timed_out"));

    let dir = std::env::temp_dir().join(format!("record-encoder-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    one(&session(ExpandConfig::default(), CacheConfig::new().disk_dir(&dir)), &solvable);
    let warm = session(ExpandConfig::default(), CacheConfig::new().disk_dir(&dir));
    let hit = one(&warm, &solvable);
    assert_eq!(warm.disk_cache().expect("configured").hits(), 1, "answered from the journal");
    assert!(hit.certificate.is_some());
    let _ = fs::remove_dir_all(&dir);

    let extremes: Vec<ScenarioRecord> = [0.0, 1e15, 2.5e300, f64::NAN]
        .into_iter()
        .map(|wall_ms| ScenarioRecord { wall_ms, ..hit.clone() })
        .collect();
    records.extend([error, exceeded, timed, hit]);
    records.extend(extremes);
    records
}

/// `write_to` equals the tree encoder, and the line reads back as the
/// record.
fn assert_encodes(record: &ScenarioRecord) {
    let line = line(record);
    assert_eq!(line, record.to_json().to_string());
    let back = ScenarioRecord::from_json(&json::parse(&line).expect("the line parses"))
        .unwrap_or_else(|e| panic!("{e}: {line}"));
    if record.wall_ms.is_nan() {
        // NaN is written as `null` and read back as NaN, which equals
        // nothing; compare the rest.
        assert!(back.wall_ms.is_nan(), "{line}");
        assert_eq!(
            ScenarioRecord { wall_ms: 0.0, ..back },
            ScenarioRecord { wall_ms: 0.0, ..record.clone() }
        );
    } else {
        assert_eq!(&back, record, "{line}");
    }
}

#[test]
fn write_to_matches_the_tree_encoder_and_reads_back() {
    let records = records();
    records.iter().for_each(assert_encodes);
    let jsonl: String = records.iter().map(|r| format!("{}\n", r.to_json())).collect();
    assert_eq!(ResultStore::new(records).to_jsonl(), jsonl);
}

/// Seeded variants of a catalog batch's records: labels, descriptions,
/// verdicts and detail keys over every control byte, quotes, backslashes
/// and multi-byte UTF-8, random indices and fingerprints, and wall clocks
/// on every branch of the float rule.
#[test]
fn seeded_record_variants_match_the_tree_encoder() {
    let mut rng = StdRng::seed_from_u64(0x5eed_7ec0);
    let alphabet: Vec<char> = (0u8..0x20)
        .map(char::from)
        .chain(['"', '\\', '/', ' ', 'a', 'Z', '0', ':', '\u{7f}', 'é', '↔', '🦀'])
        .collect();
    let text = |rng: &mut StdRng| -> String {
        let len = rng.random_range(0..12usize);
        (0..len).map(|_| *alphabet.choose(rng).expect("nonempty alphabet")).collect()
    };
    let grid: Vec<Query> = Query::catalog_grid(3, &AnalysisKind::ALL)
        .into_iter()
        .map(Query::with_certificate)
        .collect();
    for record in Session::new().check_many(&grid).store.into_records() {
        for _ in 0..4 {
            // `d<i>:` keeps detail keys distinct from each other and from
            // the record's own keys.
            let details = record
                .outcome
                .details
                .iter()
                .enumerate()
                .map(|(i, (_, v))| (format!("d{i}:{}", text(&mut rng)), v.clone()))
                .collect();
            let wall_ms = match rng.random_range(0..4u32) {
                0 => rng.random_range(0..1_000_000u64) as f64,
                1 => rng.random_range(0.0..1000.0),
                2 => rng.random_range(1e15..1e20f64).floor(),
                _ => -rng.random_range(0.0..1e-3),
            };
            let variant = ScenarioRecord {
                index: rng.random_range(0..1usize << 40),
                adversary: text(&mut rng),
                describe: text(&mut rng),
                fingerprint: rng.next_u64(),
                outcome: Outcome { verdict: text(&mut rng), details },
                wall_ms,
                ..record.clone()
            };
            assert_encodes(&variant);
        }
    }
}

#[test]
fn check_bodies_are_the_library_lines() {
    let app = App::new(Session::new());
    for (body, query) in [
        (
            r#"{"adversary":"cgp-reduced-lossy-link","depth":3,"certificate":true}"#,
            Query::catalog("cgp-reduced-lossy-link", 3, AnalysisKind::Solvability)
                .with_certificate(),
        ),
        (
            r#"{"adversary":"message-loss-2-2","depth":2,"certificate":true}"#,
            Query::catalog("message-loss-2-2", 2, AnalysisKind::Solvability).with_certificate(),
        ),
        (
            r#"{"adversary":"sw-lossy-link","depth":3,"analysis":"component-stats"}"#,
            Query::catalog("sw-lossy-link", 3, AnalysisKind::ComponentStats),
        ),
    ] {
        let response = app.handle(&Request {
            method: "POST".into(),
            target: "/v1/check".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        });
        assert_eq!(response.status, 200, "{}", response.body);
        let served = ScenarioRecord::from_json(&json::parse(&response.body).expect("JSON body"))
            .expect("the body is a record");
        // The library's record with the served timing fields.
        let direct = Session::new().check(&query).expect("catalog entry builds");
        let direct =
            ScenarioRecord { wall_ms: served.wall_ms, cached_space: served.cached_space, ..direct };
        assert_eq!(response.body, line(&direct), "{body}");
    }
}
