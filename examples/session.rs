//! Session quickstart: the unified `Session`/`Query` facade end to end —
//! typed configs in, one handle owning every cache, single checks and
//! batches sharing one code path, typed errors out.
//!
//! ```text
//! cargo run -p examples-support --example session
//! ```

use consensus_core::Certificate;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{verify_certificate, Query, Session};
use consensus_lab::{AnalysisConfig, CacheConfig, Error, ExpandConfig};
use examples_support::section;

fn main() {
    section("One session, typed configs, every cache owned once");
    let session = Session::with_configs(
        ExpandConfig::with_budget(2_000_000),
        AnalysisConfig::new().max_depth(4),
        CacheConfig::default(),
    )
    .expect("no disk cache configured");
    println!(
        "expansion: {}-run budget; validity: {}",
        session.expand_config().max_runs,
        if session.analysis_config().strong_validity {
            "strong"
        } else {
            "weak"
        },
    );

    section("A single query (the paper's question, first-class)");
    let query = Query::catalog("cgp-reduced-lossy-link", 4, AnalysisKind::Solvability);
    let record = session.check(&query).expect("catalog entry builds");
    println!("{} → {}", query.label(), record.outcome.verdict);
    assert_eq!(record.outcome.verdict, "solvable");

    section("Typed errors instead of strings");
    let bogus = Query::catalog("no-such-adversary", 2, AnalysisKind::Solvability);
    match session.check(&bogus) {
        Err(Error::Spec(spec)) => println!("rejected as expected: {spec}"),
        other => panic!("expected a typed spec error, got {other:?}"),
    }

    section("Batch-first: the whole catalog × depths 1..=3 × two analyses");
    let queries =
        Query::catalog_grid(3, &[AnalysisKind::Solvability, AnalysisKind::Broadcastability]);
    let report = session.check_many(&queries);
    for record in report.store.records().iter().take(6) {
        println!(
            "  {:<28} depth {}  {:<16} → {}",
            record.adversary,
            record.depth,
            record.analysis.name(),
            record.outcome.verdict
        );
    }
    println!("  … {} records total", report.store.records().len());
    println!("{}", report.summary());

    // The single check above already warmed the session's space cache for
    // its adversary — single checks and batches share one code path and
    // one cache, so the batch built strictly fewer spaces than it ran.
    assert!(report.cache.builds < report.scenarios);

    section("Warm re-batch: the session remembers");
    let before = session.space_cache().stats().builds;
    let again = session.check_many(&queries);
    println!("{}", again.summary());
    assert_eq!(session.space_cache().stats().builds, before, "zero new expansions");

    section("Certificates: checkable answers, re-verified offline");
    // Opt in with `with_certificate()`: a definitive solvability verdict
    // then carries the evidence behind it (docs/certificates.md) as a
    // portable JSON object on the record.
    let certified =
        Query::catalog("message-loss-2-2", 2, AnalysisKind::Solvability).with_certificate();
    let record = session.check(&certified).expect("catalog entry builds");
    let exported = record.certificate.expect("definitive verdict carries a certificate");
    println!("exported: {} bytes of consensus-cert/v1 JSON", exported.to_string().len());

    // A skeptical client round-trips the JSON and re-checks the evidence
    // against the adversary — milliseconds, and no prefix-space expansion
    // (the session's build counter does not move).
    let cert = Certificate::from_json(&exported).expect("served certificate decodes");
    let builds = session.space_cache().stats().builds;
    verify_certificate(&cert, &certified).expect("certificate re-verifies");
    assert_eq!(session.space_cache().stats().builds, builds, "verification expands nothing");
    println!("{} → {} certificate re-verified offline", certified.label(), cert.verdict());

    // Tampering is caught with typed errors: this certificate was issued
    // for a different adversary than the one we verify against.
    let other = Query::catalog("cgp-reduced-lossy-link", 2, AnalysisKind::Solvability);
    let err = verify_certificate(&cert, &other).expect_err("mismatched adversary");
    println!("tampering detected ({}): {err}", err.kind());
}
