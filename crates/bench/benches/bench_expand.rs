//! Expansion-engine benches: cold expansion vs the one-round ladder, at
//! depths 1–5 over the whole adversary catalog, emitted to
//! `BENCH_expand.json` at the repo root so the perf trajectory
//! accumulates across changes.
//!
//! Every laddered pass is also checked against the cold build (same runs
//! in the same order, same view count) — a bench that drifted from it
//! would be measuring a different machine.

use std::hint::black_box;
use std::time::{Duration, Instant};

use adversary::enumerate::{expand, Expansion};
use adversary::{catalog, DynMA};
use consensus_lab::json::Value as Json;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const BUDGET: usize = 2_000_000;
const DEPTHS: std::ops::RangeInclusive<usize> = 1..=5;
const VALUES: &[u32] = &[0, 1];
/// Timed repetitions per (adversary, depth) — summed, so the emitted
/// totals are stable enough for the CI regression gate's tolerance.
const REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    (d.as_secs_f64() * 1e6).round() / 1e3
}

/// The catalog adversaries, deduplicated by structural fingerprint (e.g.
/// `all-rooted-2` aliases `sw-lossy-link` — benching it twice would just
/// double-count the same expansion).
fn distinct_catalog() -> Vec<DynMA> {
    let mut seen = std::collections::HashSet::new();
    catalog::entries()
        .iter()
        .map(|e| e.build())
        .filter(|ma| seen.insert(adversary::MessageAdversary::fingerprint(ma)))
        .collect()
}

struct DepthDatum {
    depth: usize,
    adversaries: usize,
    skipped_budget: usize,
    runs: usize,
    views: usize,
    serial_ms: f64,
    ladder_ms: f64,
}

/// Measure one depth across the catalog: the cold build and the
/// one-round ladder extension from depth − 1.
fn measure_depth(pool: &[DynMA], depth: usize) -> DepthDatum {
    let mut datum = DepthDatum {
        depth,
        adversaries: 0,
        skipped_budget: 0,
        runs: 0,
        views: 0,
        serial_ms: 0.0,
        ladder_ms: 0.0,
    };
    for ma in pool {
        // The first rep doubles as the budget probe: its timing is only
        // recorded if the expansion fits.
        let t0 = Instant::now();
        let mut serial = match expand(ma, VALUES, depth, BUDGET) {
            Ok(e) => e,
            Err(_) => {
                datum.skipped_budget += 1;
                continue;
            }
        };
        for _ in 1..REPS {
            serial = expand(ma, VALUES, depth, BUDGET).expect("first rep fit the budget");
        }
        datum.serial_ms += ms(t0.elapsed());
        datum.adversaries += 1;
        datum.runs += serial.runs.len();
        datum.views += serial.table.len();

        let base: Expansion = expand(ma, VALUES, depth - 1, BUDGET).expect("shallower fits");
        let t2 = Instant::now();
        let mut laddered = base.clone();
        for rep in 0..REPS {
            let mut e = base.clone();
            e.extend(ma, BUDGET).expect("extension fits the budget");
            if rep == REPS - 1 {
                laddered = e;
            }
        }
        datum.ladder_ms += ms(t2.elapsed());
        // The ladder reuses the shallower table, so view ids are permuted
        // relative to a scratch build; runs, sequences, and distinct-view
        // counts must still agree exactly.
        assert_eq!(laddered.runs.len(), serial.runs.len(), "ladder run count diverged");
        assert_eq!(laddered.table.len(), serial.table.len(), "ladder view count diverged");
        for (a, b) in laddered.runs.iter().zip(&serial.runs) {
            assert_eq!((a.inputs(), a.seq()), (b.inputs(), b.seq()), "ladder run order diverged");
        }
    }
    datum
}

fn emit_bench_json(pool: &[DynMA]) {
    let mut per_depth = Vec::new();
    let (mut serial_total, mut ladder_total) = (0.0f64, 0.0f64);
    let (mut runs_total, mut views_total) = (0usize, 0usize);
    for depth in DEPTHS {
        let d = measure_depth(pool, depth);
        println!(
            "[expand] depth {}: {} adversaries ({} over budget), {} runs, {} views; \
             cold {:.1} ms, ladder {:.1} ms",
            d.depth, d.adversaries, d.skipped_budget, d.runs, d.views, d.serial_ms, d.ladder_ms,
        );
        serial_total += d.serial_ms;
        ladder_total += d.ladder_ms;
        runs_total += d.runs;
        views_total += d.views;
        per_depth.push(Json::Obj(vec![
            ("depth".into(), Json::Int(d.depth as i64)),
            ("adversaries".into(), Json::Int(d.adversaries as i64)),
            ("skipped_budget".into(), Json::Int(d.skipped_budget as i64)),
            ("runs".into(), Json::Int(d.runs as i64)),
            ("views".into(), Json::Int(d.views as i64)),
            ("serial_ms".into(), Json::Float(d.serial_ms)),
            ("ladder_ms".into(), Json::Float(d.ladder_ms)),
        ]));
    }
    let datum = Json::Obj(vec![
        ("bench".into(), Json::Str("expand".into())),
        ("adversaries".into(), Json::Int(pool.len() as i64)),
        ("runs".into(), Json::Int(runs_total as i64)),
        ("views".into(), Json::Int(views_total as i64)),
        ("cold_serial_ms".into(), Json::Float(serial_total)),
        ("ladder_ms".into(), Json::Float(ladder_total)),
        ("per_depth".into(), Json::Arr(per_depth)),
    ]);
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_expand.json").to_string()
    });
    match std::fs::write(&out, format!("{datum}\n")) {
        Ok(()) => println!("[expand] wrote {out}"),
        Err(e) => eprintln!("[expand] could not write {out}: {e}"),
    }
}

fn bench_expand(c: &mut Criterion) {
    let pool = distinct_catalog();
    emit_bench_json(&pool);

    // Criterion groups on one representative heavy entry (the full lossy
    // link, the densest n = 2 branching) — cold build vs ladder.
    let ma = catalog::by_name("sw-lossy-link").expect("catalog entry").build();
    let mut group = c.benchmark_group("expand/sw-lossy-link");
    group.sample_size(10);
    for depth in [4usize, 5] {
        group.bench_with_input(BenchmarkId::new("serial", depth), &depth, |b, &d| {
            b.iter(|| black_box(expand(&ma, VALUES, d, BUDGET).unwrap().runs.len()))
        });
        let base = expand(&ma, VALUES, depth - 1, BUDGET).unwrap();
        group.bench_with_input(BenchmarkId::new("ladder", depth), &depth, |b, _| {
            b.iter(|| {
                let mut e = base.clone();
                e.extend(&ma, BUDGET).unwrap();
                black_box(e.runs.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_expand);
criterion_main!(benches);
