//! Property-style tests of the paper's topological laws (experiments T3,
//! T6, T7 of DESIGN.md).
//!
//! Driven by a seeded deterministic generator (the offline stand-in for
//! proptest; see `crates/compat/README.md`).

use dyngraph::{generators, Digraph, GraphSeq};
use ptgraph::{contamination, distance, PrefixRun, ViewTable};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simulator::{algorithms::FullInfo, engine};

const CASES: usize = 64;

/// A random run (inputs, sequence) on `n` processes, `t` rounds.
fn random_run(rng: &mut StdRng, n: usize, t: usize) -> (Vec<u32>, Vec<u64>) {
    let max_code: u64 = 1 << (n * n);
    let inputs = (0..n).map(|_| rng.random_range(0..3u32)).collect();
    let seq = (0..t).map(|_| rng.random_range(0..max_code)).collect();
    (inputs, seq)
}

fn materialize(n: usize, inputs: &[u32], codes: &[u64], table: &mut ViewTable) -> PrefixRun {
    let graphs: Vec<Digraph> =
        codes.iter().map(|&c| Digraph::from_code(n, c).normalized()).collect();
    PrefixRun::compute(inputs, GraphSeq::from_graphs(graphs), table)
}

/// T7 / Theorem 4.3: symmetry, triangle inequality, monotonicity in P,
/// and d_[n] = d_max, on random n = 3 runs.
#[test]
fn pseudo_metric_laws() {
    let mut rng = StdRng::seed_from_u64(0x0701);
    for _ in 0..CASES {
        let (xa, sa) = random_run(&mut rng, 3, 4);
        let (xb, sb) = random_run(&mut rng, 3, 4);
        let (xc, sc) = random_run(&mut rng, 3, 4);
        let mut table = ViewTable::new(3);
        let a = materialize(3, &xa, &sa, &mut table);
        let b = materialize(3, &xb, &sb, &mut table);
        let c = materialize(3, &xc, &sc, &mut table);

        for p in 0..3 {
            // Symmetry.
            assert_eq!(distance::d_p(&a, &b, p), distance::d_p(&b, &a, p));
            // Triangle inequality on the dyadic values.
            let ab = distance::d_p(&a, &b, p).as_f64();
            let bc = distance::d_p(&b, &c, p).as_f64();
            let ac = distance::d_p(&a, &c, p).as_f64();
            assert!(ac <= ab + bc + 1e-12);
        }
        // Monotonicity: d_P ≤ d_Q for P ⊆ Q.
        let d01 = distance::d_set(&a, &b, &[0, 1]);
        let d012 = distance::d_set(&a, &b, &[0, 1, 2]);
        assert!(d01 <= d012);
        // d_[n] = d_max.
        assert_eq!(distance::d_max(&a, &b), d012);
        // d_min ≤ d_p ≤ d_max.
        let dmin = distance::d_min(&a, &b);
        for p in 0..3 {
            let dp = distance::d_p(&a, &b, p);
            assert!(dmin <= dp);
            assert!(dp <= distance::d_max(&a, &b));
        }
    }
}

/// The contamination rule coincides with interned-view inequality
/// (the exactness of the divergence calculus, DESIGN.md §3).
#[test]
fn contamination_is_exact() {
    let mut rng = StdRng::seed_from_u64(0x0702);
    for _ in 0..CASES {
        let (xa, sa) = random_run(&mut rng, 3, 5);
        let (xb, sb) = random_run(&mut rng, 3, 5);
        let mut table = ViewTable::new(3);
        let a = materialize(3, &xa, &sa, &mut table);
        let b = materialize(3, &xb, &sb, &mut table);
        let trace = contamination::finite_trace(&a, &b);
        for (t, d) in trace.iter().enumerate() {
            for p in 0..3 {
                let differs = a.view(p, t) != b.view(p, t);
                assert_eq!(differs, d & (1 << p) != 0, "t={t} p={p}");
            }
        }
    }
}

/// T6 / Lemma 4.5: the transition function τ (full-information protocol)
/// is non-expansive: equal views at time t imply equal states at time t,
/// so d_P(τ(a), τ(b)) ≤ d_P(a, b).
#[test]
fn tau_is_continuous() {
    let mut rng = StdRng::seed_from_u64(0x0703);
    for _ in 0..CASES {
        let (xa, sa) = random_run(&mut rng, 2, 4);
        let (xb, sb) = random_run(&mut rng, 2, 4);
        let mut table = ViewTable::new(2);
        let a = materialize(2, &xa, &sa, &mut table);
        let b = materialize(2, &xb, &sb, &mut table);
        let ea = engine::run(&FullInfo, a.inputs(), a.seq());
        let eb = engine::run(&FullInfo, b.inputs(), b.seq());
        for t in 0..=4usize {
            for p in 0..2 {
                let views_equal = a.view(p, t) == b.view(p, t);
                let states_equal = ea.states[t][p] == eb.states[t][p];
                // Views are exactly the full-information states: equality
                // must coincide, which gives continuity in both directions.
                assert_eq!(views_equal, states_equal, "t={t} p={p}");
            }
        }
    }
}

/// Views are cumulative: once a process distinguishes two runs it
/// distinguishes them forever (monotone divergence).
#[test]
fn divergence_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0x0704);
    for _ in 0..CASES {
        let (xa, sa) = random_run(&mut rng, 3, 5);
        let (xb, sb) = random_run(&mut rng, 3, 5);
        let mut table = ViewTable::new(3);
        let a = materialize(3, &xa, &sa, &mut table);
        let b = materialize(3, &xb, &sb, &mut table);
        for p in 0..3 {
            let mut diverged = false;
            for t in 0..=5usize {
                let now = a.view(p, t) != b.view(p, t);
                assert!(!diverged || now, "divergence must persist");
                diverged = now;
            }
        }
    }
}

/// T3 / Theorem 5.9: on every component of a battery of prefix spaces, a
/// broadcaster's input is constant (diameter ≤ 1/2 in d_min).
#[test]
fn broadcastable_components_have_constant_broadcaster_input() {
    use adversary::GeneralMA;
    use consensus_core::space::PrefixSpace;
    let pools: Vec<Vec<Digraph>> = vec![
        generators::lossy_link_full(),
        generators::lossy_link_reduced(),
        generators::all_out_stars(3),
        vec![Digraph::complete(3)],
        vec![generators::cycle(3), generators::star_out(3, 1)],
    ];
    for pool in pools {
        let ma = GeneralMA::oblivious(pool);
        let space =
            PrefixSpace::expand(&ma, &[0, 1], 2, &consensus_core::ExpandConfig::default()).unwrap();
        for c in 0..space.components().count() {
            for &p in &space.component_broadcasters(c) {
                let members = space.components().members(c);
                let x0 = space.runs()[members[0]].inputs()[p];
                for &i in members {
                    assert_eq!(space.runs()[i].inputs()[p], x0);
                }
            }
        }
    }
}

/// Theorem 5.13 shape: for compact adversaries with separated valences the
/// decision classes have positive distance (Fig. 4); mixed spaces touch.
#[test]
fn class_distances_match_separation() {
    use adversary::GeneralMA;
    use consensus_core::analysis;
    for (pool, expect_separated) in
        [(generators::lossy_link_reduced(), true), (generators::lossy_link_full(), false)]
    {
        let ma = GeneralMA::oblivious(pool);
        let space = consensus_core::space::PrefixSpace::expand(
            &ma,
            &[0, 1],
            3,
            &consensus_core::ExpandConfig::default(),
        )
        .unwrap();
        let rep = analysis::report(&space);
        assert_eq!(rep.separated, expect_separated);
        match (expect_separated, rep.min_class_distance.unwrap()) {
            (true, distance::Distance::Finite(t)) => assert!(t >= 1),
            (false, distance::Distance::Below(t)) => assert_eq!(t, 3),
            (sep, d) => panic!("separated={sep} but distance {d:?}"),
        }
    }
}

/// The pairwise minimum of Definition 5.12 — the oracle for the level walk
/// of `distance::set_distance_min`.
fn all_pairs_min(xs: &[&PrefixRun], ys: &[&PrefixRun]) -> Option<distance::Distance> {
    xs.iter().flat_map(|a| ys.iter().map(move |b| distance::d_min(a, b))).min()
}

/// Differential check of `set_distance_min` against the pairwise oracle on
/// the decision classes `PS^ε(v)` of every catalog adversary, at depths
/// 1..=5 over a binary and a ternary domain; then of the report's
/// `min_class_distance` against the minimum over value pairs.
#[test]
fn class_distance_walk_matches_all_pairs_on_catalog() {
    use adversary::catalog;
    use consensus_core::{analysis, space::PrefixSpace, ExpandConfig};
    use std::collections::BTreeSet;

    for entry in catalog::entries() {
        let ma = entry.build();
        for values in [&[0, 1][..], &[0, 1, 2]] {
            for depth in 1..=5 {
                let space = PrefixSpace::expand(&*ma, values, depth, &ExpandConfig::default())
                    .unwrap_or_else(|e| panic!("{}@{depth}: {e}", entry.name));
                let rep = analysis::report(&space);
                assert_eq!(rep.separated, space.separation().is_separated(), "{}", entry.name);
                let comps = space.components();
                // PS^ε(v) as (component ids, runs): the components holding a
                // v-valent run, and every run in them.
                let classes: Vec<(BTreeSet<usize>, Vec<&PrefixRun>)> = values
                    .iter()
                    .map(|&v| {
                        let runs = space.runs().iter().enumerate();
                        let ids: BTreeSet<usize> = runs
                            .clone()
                            .filter(|(_, r)| r.is_valent(v))
                            .map(|(i, _)| comps.component_of(i))
                            .collect();
                        let members = runs
                            .filter(|&(i, _)| ids.contains(&comps.component_of(i)))
                            .map(|(_, r)| r)
                            .collect();
                        (ids, members)
                    })
                    .collect();
                let mut expected: Option<distance::Distance> = None;
                for (i, (v_ids, vs)) in classes.iter().enumerate() {
                    for (w_ids, ws) in &classes[i + 1..] {
                        let walk = distance::set_distance_min(vs, ws);
                        let at = format!("{}@{depth} over {values:?}", entry.name);
                        if v_ids.is_disjoint(w_ids) {
                            assert_eq!(walk, all_pairs_min(vs, ws), "{at}");
                        } else {
                            // A shared run r gives d_min(r, r) = Below(depth),
                            // the least value, so the oracle's answer is known.
                            assert_eq!(walk, Some(distance::Distance::Below(depth)), "{at}");
                            assert!(!rep.separated, "{at}");
                        }
                        if let Some(d) = walk {
                            expected = Some(expected.map_or(d, |cur| cur.min(d)));
                        }
                    }
                }
                assert_eq!(rep.min_class_distance, expected, "{}@{depth}", entry.name);
            }
        }
    }
}
