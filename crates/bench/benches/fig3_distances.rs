//! F3 — Figure 3: the `d_P` / `d_min` / `d_max` distance computations.
//!
//! Regenerates the paper's Fig. 3 values (`d_max = d_{3} = 1`,
//! `d_{2} = 1/2`, `d_min = d_{1} = 1/4`, in the paper's 1-based process
//! numbering) and measures distance evaluation over random run pairs as the
//! horizon grows, plus the exact lasso divergence analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyngraph::{generators, GraphSeq, Lasso};
use ptgraph::{contamination, distance, InfiniteRun, PrefixRun, ViewTable};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fig3(c: &mut Criterion) {
    // Regenerate the figure's values once.
    let (alpha, beta, _) = distance::fig3_example();
    println!("\n[F3] regenerated Figure 3 distances:");
    for p in (0..3).rev() {
        println!(
            "[F3]   d_{{{}}}(α,β) = {}",
            p + 1, // paper numbering
            distance::d_p(&alpha, &beta, p).as_f64()
        );
    }
    println!("[F3]   d_max = {}", distance::d_max(&alpha, &beta).as_f64());
    println!("[F3]   d_min = {}\n", distance::d_min(&alpha, &beta).as_f64());

    c.bench_function("fig3/exact_example", |b| {
        b.iter(|| {
            let (a, bb, _) = distance::fig3_example();
            black_box((distance::d_min(&a, &bb), distance::d_max(&a, &bb)))
        })
    });

    let mut group = c.benchmark_group("fig3/dmin_over_horizon");
    for t in [4usize, 16, 64, 256] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut table = ViewTable::new(3);
        let mk = |rng: &mut rand::rngs::StdRng, table: &mut ViewTable| {
            let graphs: Vec<_> = (0..t).map(|_| generators::random_graph(rng, 3, 0.4)).collect();
            PrefixRun::compute(vec![0, 1, 0], GraphSeq::from_graphs(graphs), table)
        };
        let a = mk(&mut rng, &mut table);
        let b = mk(&mut rng, &mut table);
        group.bench_with_input(BenchmarkId::from_parameter(t), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(distance::d_min(a, b)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3/exact_lasso_divergence");
    for cycle in [1usize, 4, 16] {
        let la = Lasso::new(GraphSeq::new(), GraphSeq::parse2(&"-> ".repeat(cycle)).unwrap());
        let lb = Lasso::new(GraphSeq::new(), GraphSeq::parse2(&"<- ".repeat(cycle)).unwrap());
        let a = InfiniteRun::new(vec![0, 1], la);
        let b = InfiniteRun::new(vec![0, 1], lb);
        group.bench_with_input(BenchmarkId::from_parameter(cycle), &(a, b), |bch, (a, b)| {
            bch.iter(|| black_box(contamination::analyze_infinite(a, b)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
