//! F2 — Figure 2: process-time graph construction and view extraction.
//!
//! Regenerates the paper's Fig. 2 object (the `n = 3`, `t = 2` process-time
//! graph with process 1's view highlighted) and measures PT-graph
//! construction, causal-past extraction, and view interning as `n` and `t`
//! scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyngraph::{generators, GraphSeq};
use ptgraph::{fig2_example, PrefixRun, PtGraph, ViewTable};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fig2(c: &mut Criterion) {
    // Print the regenerated figure once.
    let pt = fig2_example();
    println!("\n[F2] regenerated Figure 2:\n{}", pt.render_ascii());
    println!("[F2] view of p0 at t=2: {:?}\n", pt.causal_past(&[0], 2));

    c.bench_function("fig2/construct_exact", |b| b.iter(|| black_box(fig2_example())));

    let mut group = c.benchmark_group("fig2/causal_past");
    for (n, t) in [(3usize, 2usize), (4, 8), (6, 16), (8, 32)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let graphs: Vec<_> = (0..t).map(|_| generators::random_graph(&mut rng, n, 0.3)).collect();
        let pt = PtGraph::new(vec![0; n], GraphSeq::from_graphs(graphs));
        group.bench_with_input(BenchmarkId::from_parameter(format!("n{n}_t{t}")), &pt, |b, pt| {
            b.iter(|| black_box(pt.causal_past(&[0], pt.t_max())))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig2/view_interning");
    for (n, t) in [(3usize, 8usize), (5, 16), (8, 24)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let graphs: Vec<_> = (0..t).map(|_| generators::random_graph(&mut rng, n, 0.3)).collect();
        let seq = std::sync::Arc::new(GraphSeq::from_graphs(graphs));
        let inputs: Vec<u32> = (0..n as u32).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_t{t}")),
            &(inputs, seq),
            |b, (inputs, seq)| {
                b.iter(|| {
                    let mut table = ViewTable::new(inputs.len());
                    black_box(PrefixRun::compute(inputs.as_slice(), seq.clone(), &mut table))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
