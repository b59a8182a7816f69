//! Non-compact adversaries and their excluded limits (experiments F5, T9).

use adversary::{limit, GeneralMA, MessageAdversary, UnionMA};
use consensus_core::{analysis, fair, space::PrefixSpace};
use dyngraph::{generators, Digraph, Lasso};
use ptgraph::contamination;

/// F5: for the non-compact ◇stable(2), the decision classes touch at every
/// depth while the compact approximations separate — the Fig. 4/Fig. 5
/// contrast, quantified through depth 6.
#[test]
fn compact_vs_noncompact_class_distance() {
    use ptgraph::distance::Distance;
    // Non-compact: touching at every depth.
    let nc = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
    let sweep = analysis::depth_sweep(&nc, &[0, 1], 6, 2_000_000);
    assert_eq!(sweep.len(), 7, "the sweep must reach depth 6");
    for rep in &sweep {
        assert_eq!(rep.min_class_distance, Some(Distance::Below(rep.depth)));
        assert!(!rep.separated);
    }
    // Compact approximation with deadline 2: from depth 2 on, separated
    // with the classes at distance 1/2.
    let compact = nc.with_deadline(2);
    let sweep = analysis::depth_sweep(&compact, &[0, 1], 6, 2_000_000);
    assert_eq!(sweep.len(), 7, "the sweep must reach depth 6");
    for rep in &sweep[2..] {
        assert!(rep.separated, "depth {}", rep.depth);
        assert_eq!(rep.min_class_distance, Some(Distance::Finite(1)), "depth {}", rep.depth);
    }
}

/// T9: excluded limits of the eventually-swap adversary are exactly the
/// swap-free sequences, and each comes with a converging family of
/// admissible witnesses — the fair-sequence structure of Definition 5.16.
#[test]
fn eventually_swap_excluded_limits_with_witnesses() {
    let ma = GeneralMA::eventually_graph(
        generators::lossy_link_full(),
        Digraph::parse2("<->").unwrap(),
        None,
    );
    let excluded = limit::excluded_limits(&ma, 0, 1, 4);
    assert_eq!(excluded.len(), 2); // →^ω and ←^ω
    for ex in &excluded {
        for (k, w) in ex.witnesses.iter().enumerate() {
            // Witness k+1 agrees with the limit on rounds 1..=k+1; its
            // common-prefix distance to the limit is ≤ 2^{-(k+1)} → 0.
            for t in 1..=(k + 1) {
                assert_eq!(w.graph_at(t), ex.limit.graph_at(t));
            }
            assert_eq!(ma.admits_lasso(w), Some(true));
        }
        assert_eq!(ma.admits_lasso(&ex.limit), Some(false));
    }
}

/// The stabilizing adversary excludes the alternating sequences; the
/// witnesses converge to them (the forever-bivalent run of [23]'s
/// impossibility for short windows lives exactly there).
#[test]
fn stabilizing_excluded_alternation() {
    let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
    let excluded = limit::excluded_limits(&ma, 0, 2, 3);
    let alternating: Vec<&limit::ExcludedLimit> = excluded
        .iter()
        .filter(|e| e.limit.cycle_len() == 2 && e.limit.graph_at(1) != e.limit.graph_at(2))
        .collect();
    assert!(!alternating.is_empty());
    for ex in alternating {
        assert_eq!(ma.admits_lasso(&ex.limit), Some(false));
    }
}

/// Exact distance-0 structure between witnesses and limits: the runs along
/// a witness family have pairwise-positive distance (they differ once they
/// deviate), yet converge to the limit in d_max — computed exactly via
/// contamination on infinite runs.
#[test]
fn witness_family_converges_exactly() {
    let ma = GeneralMA::eventually_graph(
        generators::lossy_link_full(),
        Digraph::parse2("<->").unwrap(),
        None,
    );
    let excluded = limit::excluded_limits(&ma, 0, 1, 5);
    let ex = &excluded[0];
    let limit_run = ptgraph::InfiniteRun::new(vec![0, 1], ex.limit.clone());
    let mut prev_div = 0;
    for w in &ex.witnesses {
        let wr = ptgraph::InfiniteRun::new(vec![0, 1], w.clone());
        let rep = contamination::analyze_infinite(&limit_run, &wr);
        // Both processes eventually distinguish witness from limit (the
        // witness deviates), and the divergence time grows along the family.
        let div = rep
            .per_process
            .iter()
            .map(|d| match d {
                contamination::Divergence::At(t) => *t,
                other => panic!("expected finite divergence: {other:?}"),
            })
            .min()
            .unwrap();
        assert!(div >= prev_div, "divergence times must not shrink");
        prev_div = div;
    }
    assert!(prev_div >= 3, "later witnesses agree longer with the limit");
}

/// Union adversaries: "forever →" ∪ "forever ←" is compact, solvable via
/// round-1 direction, and its prefix space separates at depth 1.
#[test]
fn union_forever_directional_solvable() {
    let right = GeneralMA::oblivious(vec![Digraph::parse2("->").unwrap()]);
    let left = GeneralMA::oblivious(vec![Digraph::parse2("<-").unwrap()]);
    let ma = UnionMA::new(vec![Box::new(right), Box::new(left)]);
    assert!(ma.is_compact());
    let space =
        PrefixSpace::expand(&ma, &[0, 1], 2, &consensus_core::ExpandConfig::with_budget(10_000))
            .unwrap();
    assert!(space.separation().is_separated());
}

/// The no-broadcaster search honors admissibility: for ◇stable(2) the
/// alternating (broadcaster-free?) lassos are inadmissible, and all
/// admissible small lassos have broadcasters — no exact chain.
#[test]
fn stabilizing_has_no_exact_chain() {
    let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
    assert!(fair::no_broadcaster_lasso(&ma, 3).is_none());
}

/// Lasso admissibility sanity for union adversaries.
#[test]
fn union_lasso_admissibility() {
    let right = GeneralMA::oblivious(vec![Digraph::parse2("->").unwrap()]);
    let left = GeneralMA::oblivious(vec![Digraph::parse2("<-").unwrap()]);
    let ma = UnionMA::new(vec![Box::new(right), Box::new(left)]);
    assert_eq!(ma.admits_lasso(&Lasso::parse2("->").unwrap()), Some(true));
    assert_eq!(ma.admits_lasso(&Lasso::parse2("<-").unwrap()), Some(true));
    assert_eq!(ma.admits_lasso(&Lasso::parse2("-> | <-").unwrap()), Some(false));
}
