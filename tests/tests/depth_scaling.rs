//! Deeper-horizon consistency: the finite machinery must stay coherent as
//! resolutions grow (separation once reached persists, certificates keep
//! verifying, incremental and direct expansions agree at depth).

use adversary::{GeneralMA, MessageAdversary};
use consensus_core::config::ExpandConfig;
use consensus_core::{fair, PrefixSpace};
use dyngraph::generators;

const CFG: ExpandConfig = ExpandConfig { max_runs: 5_000_000 };

/// Separation is monotone once reached: if the valence classes are
/// separated at depth `t`, they stay separated at `t + 1` (components
/// refine, Lemma 6.3(ii)).
#[test]
fn separation_persists_under_refinement() {
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let mut space = PrefixSpace::expand(&ma, &[0, 1], 0, &CFG).unwrap();
    let mut separated_since = None;
    for depth in 1..=7 {
        space = space.extend(&ma, &CFG).unwrap();
        let sep = space.separation().is_separated();
        if sep && separated_since.is_none() {
            separated_since = Some(depth);
        }
        if separated_since.is_some() {
            assert!(sep, "separation lost at depth {depth}");
        }
    }
    assert_eq!(separated_since, Some(1));
}

/// Mixing is persistent for the lossy link out to depth 6, and the
/// per-depth valence chains keep validating.
#[test]
fn lossy_link_mixing_persists_deep() {
    let ma = GeneralMA::oblivious(generators::lossy_link_full());
    let mut space = PrefixSpace::expand(&ma, &[0, 1], 0, &CFG).unwrap();
    for depth in 1..=6 {
        space = space.extend(&ma, &CFG).unwrap();
        assert!(!space.separation().is_separated(), "separated at depth {depth}?!");
        let chain = fair::valence_chain(&space, 0, 1).expect("chain at every depth");
        assert!(fair::validate_epsilon_chain(&space, &chain));
    }
    // At depth 6 the space has 4 · 3^6 = 2,916 sequences ⇒ 11,664 runs.
    assert_eq!(space.runs().len(), 4 * 3usize.pow(6));
}

/// View interning scales sub-linearly in runs: distinct views are far fewer
/// than runs × processes × times because indistinguishable branches share.
#[test]
fn interner_sharing_is_effective() {
    let ma = GeneralMA::oblivious(generators::lossy_link_full());
    let space = PrefixSpace::expand(&ma, &[0, 1], 5, &CFG).unwrap();
    let naive = space.runs().len() * space.n() * (space.depth() + 1);
    let interned = space.table().len();
    assert!(
        interned * 2 < naive,
        "interning should at least halve the naive view count: {interned} vs {naive}"
    );
}

/// The exhaustive verifier passes the depth-3 certificate's algorithm on
/// every run of a deeper horizon, and counts inputs × sequences.
#[test]
fn parallel_verifier_deep_agreement() {
    use consensus_core::solvability::Verdict;
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    let cert = match consensus_core::SolvabilityChecker::new(ma.clone()).max_depth(3).check() {
        Verdict::Solvable(cert) => cert,
        other => panic!("expected solvable: {other:?}"),
    };
    let check_cfg = simulator::checker::CheckConfig::at_depth(6).max_runs(5_000_000);
    let report = simulator::checker::check(&cert.algorithm, &ma, &[0, 1], &check_cfg).unwrap();
    assert!(report.passed());
    assert_eq!(report.undecided_runs, 0);
    assert_eq!(report.runs_checked, 4 * 2usize.pow(6));
}

/// Boundary census consistency at depth: admissible counts from the census
/// equal the enumeration's sequence counts.
#[test]
fn boundary_census_matches_enumeration() {
    let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, Some(3));
    for depth in 0..=4 {
        let rep = consensus_core::compactness::boundary_report(&ma, depth).unwrap();
        let seqs = adversary::enumerate::admissible_sequences(&ma, depth);
        assert_eq!(rep.admissible, seqs.len(), "depth {depth}");
        assert_eq!(rep.pool_valid, 3usize.pow(depth as u32));
    }
}

/// Excluded-limit witnesses exist at every probed prefix agreement length,
/// not just short ones (the convergence is genuine).
#[test]
fn witnesses_at_long_agreement_lengths() {
    let ma = GeneralMA::eventually_graph(
        generators::lossy_link_full(),
        dyngraph::Digraph::parse2("<->").unwrap(),
        None,
    );
    let limit = dyngraph::Lasso::parse2("->").unwrap();
    for k in [1usize, 5, 10, 20] {
        let w = adversary::limit::admissible_rejoin(&ma, &limit, k)
            .unwrap_or_else(|| panic!("witness at agreement length {k}"));
        for t in 1..=k {
            assert_eq!(w.graph_at(t), limit.graph_at(t));
        }
        assert_eq!(ma.admits_lasso(&w), Some(true));
    }
}
