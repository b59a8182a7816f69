//! Certificate acceptance properties: every definitive catalog verdict at
//! depths 1..=3 yields a certificate that re-verifies offline without any
//! prefix-space expansion; the four tampering classes are rejected with
//! their typed [`CertError`]s; journaled certificates survive a
//! disk-backed restart with zero re-expansions; and the documented schema
//! (`docs/certificates.md`) stays in sync with the emitted encoding.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use consensus_core::certificate::CERT_VERSION;
use consensus_core::{CertError, Certificate};
use consensus_lab::json::Value;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{certificate_adversary, verify_certificate, Query, Session};
use consensus_lab::store::TIMING_FIELDS;
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig};

fn session(cache: CacheConfig) -> Session {
    Session::with_configs(ExpandConfig::with_budget(2_000_000), AnalysisConfig::default(), cache)
        .expect("cache dir must open")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("consensus-cert-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The certificate-enabled solvability grid: whole catalog × depths 1..=3.
fn certified_grid() -> Vec<Query> {
    Query::catalog_grid(3, &[AnalysisKind::Solvability])
        .into_iter()
        .map(Query::with_certificate)
        .collect()
}

fn decode(cert: &Value) -> Certificate {
    Certificate::from_json(cert).expect("served certificate must decode")
}

/// A definitive verdict (solvable/unsolvable) carries a certificate; an
/// undecided one does not; and every carried certificate re-verifies
/// against its adversary without expanding any prefix space.
#[test]
fn every_definitive_catalog_verdict_certifies_at_depths_1_to_3() {
    let session = session(CacheConfig::default());
    let report = session.check_many(&certified_grid());
    let (mut solvable, mut unsolvable) = (0usize, 0usize);
    let builds_before_verify = session.space_cache().stats().builds;
    for record in report.store.records() {
        match record.outcome.verdict.as_str() {
            "solvable" | "unsolvable" => {
                let cert_json = record.certificate.as_ref().unwrap_or_else(|| {
                    panic!(
                        "{} depth {} is {} but carries no certificate",
                        record.adversary, record.depth, record.outcome.verdict
                    )
                });
                let cert = decode(cert_json);
                assert_eq!(cert.verdict(), record.outcome.verdict);
                assert_eq!(cert.adversary(), record.adversary);
                // The offline path: rebuild the adversary from the label
                // the certificate itself names, then re-check.
                let ma = certificate_adversary(cert.adversary()).expect("label resolves");
                consensus_core::certificate::verify(&cert, ma.as_ref()).unwrap_or_else(|e| {
                    panic!("{} depth {}: rejected: {e}", record.adversary, record.depth)
                });
                match &cert {
                    Certificate::Solvable(_) => solvable += 1,
                    Certificate::Unsolvable(_) => unsolvable += 1,
                }
            }
            _ => assert!(
                record.certificate.is_none(),
                "{} depth {} is {} yet carries a certificate",
                record.adversary,
                record.depth,
                record.outcome.verdict
            ),
        }
    }
    assert!(solvable > 0, "the catalog certifies at least one solvable entry");
    assert!(unsolvable > 0, "the catalog certifies at least one unsolvable entry");
    assert_eq!(
        session.space_cache().stats().builds,
        builds_before_verify,
        "offline verification must not expand any prefix space"
    );
}

fn solvable_cert_json() -> (Value, Query) {
    let query =
        Query::catalog("cgp-reduced-lossy-link", 1, AnalysisKind::Solvability).with_certificate();
    let record = session(CacheConfig::default()).check(&query).expect("catalog entry builds");
    assert_eq!(record.outcome.verdict, "solvable");
    (record.certificate.expect("definitive verdict carries a certificate"), query)
}

fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Obj(fields) = value else {
        panic!("not an object")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("field present").1
}

fn reject(cert_json: &Value, query: &Query) -> CertError {
    let cert = decode(cert_json);
    verify_certificate(&cert, query).expect_err("tampered certificate must be rejected")
}

/// Mutation class 1: flipping the decision table's values makes the
/// witness replay disagree with its valence — `wrong-decision`.
#[test]
fn flipped_decision_table_is_rejected() {
    let (mut json, query) = solvable_cert_json();
    let Value::Arr(entries) = field_mut(&mut json, "decisions") else {
        panic!("array")
    };
    for entry in entries {
        let value = field_mut(entry, "value");
        let flipped = 1 - value.as_i64().expect("int decision value");
        *value = Value::Int(flipped);
    }
    let err = reject(&json, &query);
    assert_eq!(err.kind(), "wrong-decision", "{err}");
}

/// Mutation class 2: a truncated witness word no longer spans the stated
/// depth — `depth-mismatch`.
#[test]
fn truncated_witness_is_rejected() {
    let (mut json, query) = solvable_cert_json();
    let Value::Arr(witnesses) = field_mut(&mut json, "witnesses") else {
        panic!("array")
    };
    let Value::Arr(word) = field_mut(&mut witnesses[0], "word") else {
        panic!("array")
    };
    word.pop().expect("nonempty word");
    let err = reject(&json, &query);
    assert_eq!(err.kind(), "depth-mismatch", "{err}");
}

/// Mutation class 3: a tampered depth field disagrees with every witness
/// word — `depth-mismatch`.
#[test]
fn wrong_depth_is_rejected() {
    let (mut json, query) = solvable_cert_json();
    let depth = field_mut(&mut json, "depth");
    let deeper = depth.as_i64().expect("int depth") + 1;
    *depth = Value::Int(deeper);
    let err = reject(&json, &query);
    assert_eq!(err.kind(), "depth-mismatch", "{err}");
}

/// Mutation class 4: a certificate whose fingerprint does not match the
/// adversary it claims is stale — `fingerprint-mismatch`.
#[test]
fn stale_fingerprint_is_rejected() {
    let (mut json, query) = solvable_cert_json();
    let fp = field_mut(&mut json, "fingerprint");
    let Value::Str(hex) = fp else {
        panic!("hex string")
    };
    let flipped = if hex.starts_with('0') { "1" } else { "0" };
    *fp = Value::Str(format!("{flipped}{}", &hex[1..]));
    let err = reject(&json, &query);
    assert_eq!(err.kind(), "fingerprint-mismatch", "{err}");
}

/// The journal persists certificates: a fresh `Session` over the same
/// cache directory (a "restarted process") hands back the identical
/// record — certificate included — with **zero** prefix-space expansions.
#[test]
fn journaled_certificate_survives_restart_with_zero_expansions() {
    let dir = tmp_dir("restart");
    let queries: Vec<Query> = vec![
        Query::catalog("cgp-reduced-lossy-link", 2, AnalysisKind::Solvability).with_certificate(),
        Query::catalog("message-loss-2-2", 2, AnalysisKind::Solvability).with_certificate(),
    ];

    let cold_session = session(CacheConfig::new().disk_dir(&dir));
    let cold = cold_session.check_many(&queries);
    assert!(cold.cache.builds > 0, "cold pass must expand something");
    for record in cold.store.records() {
        assert!(record.certificate.is_some(), "{}: no certificate journaled", record.adversary);
    }
    drop(cold_session);

    let warm_session = session(CacheConfig::new().disk_dir(&dir));
    let warm = warm_session.check_many(&queries);
    assert_eq!(warm.cache.builds, 0, "restarted session must re-expand nothing");
    assert_eq!(warm.cache.disk_hits, queries.len(), "every scenario answered from disk");
    for (a, b) in cold.store.records().iter().zip(warm.store.records()) {
        assert_eq!(
            a.to_json().without_keys(TIMING_FIELDS).to_string(),
            b.to_json().without_keys(TIMING_FIELDS).to_string(),
            "journaled certificate must round-trip byte-identically"
        );
        let cert = decode(b.certificate.as_ref().expect("restart keeps the certificate"));
        verify_certificate(&cert, &queries[0])
            .or_else(|_| verify_certificate(&cert, &queries[1]))
            .expect("journaled certificate re-verifies");
    }
    assert_eq!(
        warm_session.space_cache().stats().builds,
        0,
        "verification after restart must not expand either"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn collect_keys(value: &Value, keys: &mut BTreeSet<String>) {
    match value {
        Value::Obj(fields) => {
            for (key, val) in fields {
                keys.insert(key.clone());
                collect_keys(val, keys);
            }
        }
        Value::Arr(items) => {
            for item in items {
                collect_keys(item, keys);
            }
        }
        _ => {}
    }
}

/// Doc-sync: every field the encoder emits — for both variants — is
/// documented (backticked) in `docs/certificates.md`, the documented
/// version string is the compiled one, and every typed rejection kind
/// appears in the docs' error table.
#[test]
fn docs_certificates_md_matches_the_emitted_encoding() {
    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../docs/certificates.md");
    let doc = fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc_path.display()));

    let session = session(CacheConfig::default());
    let mut keys = BTreeSet::new();
    for (name, depth) in [("cgp-reduced-lossy-link", 1), ("message-loss-2-2", 2)] {
        let query = Query::catalog(name, depth, AnalysisKind::Solvability).with_certificate();
        let record = session.check(&query).expect("catalog entry builds");
        let cert = record.certificate.expect("definitive verdict carries a certificate");
        collect_keys(&cert, &mut keys);
    }
    // Both variants contributed: `depth` is solvable-only, `links`
    // unsolvable-only.
    assert!(keys.contains("depth") && keys.contains("links"), "{keys:?}");
    for key in &keys {
        assert!(
            doc.contains(&format!("`{key}`")) || doc.contains(&format!(".{key}`")),
            "emitted field {key:?} is not documented in docs/certificates.md"
        );
    }

    assert!(doc.contains(CERT_VERSION), "the documented version string is stale");
    for kind in [
        "encoding",
        "version",
        "adversary",
        "fingerprint-mismatch",
        "process-count-mismatch",
        "malformed-table",
        "malformed-witness",
        "depth-mismatch",
        "inadmissible-witness",
        "wrong-decision",
        "undecided",
        "domain-too-large",
        "valence-mismatch",
        "chain-rejected",
    ] {
        assert!(
            doc.contains(&format!("`{kind}`")),
            "error kind {kind:?} is not documented in docs/certificates.md"
        );
    }
}
