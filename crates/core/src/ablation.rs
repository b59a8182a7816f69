//! Ablation variants of the core design choices, for the benchmark harness.
//!
//! DESIGN.md calls out three load-bearing choices; each has a deliberately
//! naive alternative here so the benches can quantify the gap:
//!
//! 1. **Union-find over view buckets** vs the paper-literal iterative
//!    ε-ball BFS of Definition 6.2 ([`components_by_ball_bfs`]);
//! 2. **Early-decision tables** (decide as soon as the view ball is pure)
//!    vs full-depth-only decisions ([`FullDepthAlgorithm`]);
//! 3. **Exact-chain pre-phase** in the checker vs depth sweep only
//!    ([`check_without_exact_phase`]).
//!
//! All variants are semantically equivalent on their domains (asserted in
//! tests) — only the costs differ.

use adversary::MessageAdversary;
use dyngraph::Pid;
use ptgraph::{Value, ViewId};
use simulator::Algorithm;
use std::sync::Mutex;
use topology::epsilon::BucketSpace;

use crate::space::PrefixSpace;

/// Components via the literal Definition 6.2 ball BFS (ablation of the
/// union-find fast path). Returns, for each run, its component id (ids
/// numbered by first seed).
pub fn components_by_ball_bfs(space: &PrefixSpace) -> Vec<usize> {
    let depth = space.depth();
    let pairs: Vec<((Pid, ViewId), usize)> = space
        .runs()
        .iter()
        .enumerate()
        .flat_map(|(i, run)| (0..run.n()).map(move |p| ((p, run.view(p, depth)), i)))
        .collect();
    let bucket_space = BucketSpace::new(space.runs().len(), pairs);
    let mut comp_of = vec![usize::MAX; space.runs().len()];
    let mut next = 0;
    for i in 0..space.runs().len() {
        if comp_of[i] != usize::MAX {
            continue;
        }
        let (members, _) = bucket_space.epsilon_approximation(i);
        for m in members {
            comp_of[m] = next;
        }
        next += 1;
    }
    comp_of
}

/// The universal algorithm restricted to full-depth decisions: processes
/// only consult the decision table at the synthesis depth, never earlier
/// (ablation of the early-decision tables). Decision *values* agree with
/// [`crate::universal::UniversalAlgorithm`]; decision *rounds* are later.
#[derive(Debug)]
pub struct FullDepthAlgorithm {
    table: Mutex<ptgraph::ViewTable>,
    decisions: std::collections::HashMap<(Pid, ViewId), Value>,
    depth: usize,
}

impl FullDepthAlgorithm {
    /// Synthesize from a separated space (like the universal algorithm, but
    /// tables only at the final depth).
    pub fn synthesize(space: &PrefixSpace) -> Option<Self> {
        let map = space.decision_views()?;
        Some(FullDepthAlgorithm {
            table: Mutex::new(space.table().clone()),
            decisions: map,
            depth: space.depth(),
        })
    }

    /// The synthesis depth.
    pub fn decision_depth(&self) -> usize {
        self.depth
    }
}

/// State of [`FullDepthAlgorithm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullDepthState {
    /// Current interned view.
    pub view: ViewId,
    /// Rounds elapsed.
    pub round: usize,
    /// The decision once taken.
    pub decided: Option<Value>,
}

impl Algorithm for FullDepthAlgorithm {
    type State = FullDepthState;

    fn init(&self, p: Pid, x: Value) -> FullDepthState {
        let view = self.table.lock().expect("interner lock poisoned").intern_initial(p, x);
        let decided = (self.depth == 0).then(|| self.decisions.get(&(p, view)).copied()).flatten();
        FullDepthState { view, round: 0, decided }
    }

    fn step(
        &self,
        p: Pid,
        state: &FullDepthState,
        received: &[(Pid, FullDepthState)],
    ) -> FullDepthState {
        let view = self.table.lock().expect("interner lock poisoned").intern_round(
            p,
            state.view,
            received.iter().map(|&(q, ref s)| (q, s.view)),
        );
        let round = state.round + 1;
        let decided = state.decided.or_else(|| {
            (round == self.depth).then(|| self.decisions.get(&(p, view)).copied()).flatten()
        });
        FullDepthState { view, round, decided }
    }

    fn decision(&self, _p: Pid, state: &FullDepthState) -> Option<Value> {
        state.decided
    }
}

/// The solvability depth sweep without the exact-chain pre-phase (ablation
/// 3): returns `Some(depth)` at the first separating depth, `None` if none
/// within `max_depth`.
pub fn check_without_exact_phase(
    ma: &dyn MessageAdversary,
    values: &[Value],
    max_depth: usize,
    max_runs: usize,
) -> Option<usize> {
    for depth in 0..=max_depth {
        let cfg = crate::config::ExpandConfig::with_budget(max_runs);
        match PrefixSpace::expand(ma, values, depth, &cfg) {
            Ok(space) => {
                if space.separation().is_separated() {
                    return Some(depth);
                }
            }
            Err(_) => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use dyngraph::{generators, Digraph, GraphSeq};
    use simulator::{checker, engine};

    use crate::config::ExpandConfig;

    const CFG: ExpandConfig = ExpandConfig { max_runs: 1_000_000 };

    #[test]
    fn ball_bfs_matches_union_find() {
        for pool in [generators::lossy_link_full(), generators::lossy_link_reduced()] {
            let ma = GeneralMA::oblivious(pool);
            let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
            let bfs = components_by_ball_bfs(&space);
            for i in 0..space.runs().len() {
                for j in 0..space.runs().len() {
                    assert_eq!(
                        bfs[i] == bfs[j],
                        space.components().connected(i, j),
                        "runs {i}, {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_depth_algorithm_equivalent_values_later_rounds() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        let early = crate::universal::UniversalAlgorithm::synthesize(&space).unwrap();
        let late = FullDepthAlgorithm::synthesize(&space).unwrap();
        assert_eq!(late.decision_depth(), 2);

        let report = checker::check(
            &late,
            &ma,
            &[0, 1],
            &checker::CheckConfig::at_depth(2).max_runs(100_000),
        )
        .unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.max_decision_round, 2, "full-depth always decides at depth");

        for word in ["-> <-", "<- ->", "-> ->", "<- <-"] {
            let seq = GraphSeq::parse2(word).unwrap();
            for x in [[0u32, 1], [1, 0], [1, 1]] {
                let ve = engine::run(&early, &x, &seq).consensus_value();
                let vl = engine::run(&late, &x, &seq).consensus_value();
                assert_eq!(ve, vl, "{word} {x:?}");
                // Early decisions are never later than full-depth ones.
                let re = engine::run(&early, &x, &seq).decision_of(0).unwrap().0;
                let rl = engine::run(&late, &x, &seq).decision_of(0).unwrap().0;
                assert!(re <= rl);
            }
        }
    }

    #[test]
    fn sweep_without_exact_phase_agrees_on_separable() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        assert_eq!(check_without_exact_phase(&ma, &[0, 1], 4, 1_000_000), Some(1));
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        assert_eq!(check_without_exact_phase(&ma, &[0, 1], 3, 1_000_000), None);
    }

    #[test]
    fn sweep_without_exact_phase_misses_exact_certificates() {
        // The ablated checker cannot conclude anything for the empty-graph
        // pool (it would sweep forever); the full checker's exact phase
        // nails it immediately — the point of the design choice.
        let ma = GeneralMA::oblivious(vec![Digraph::empty(2)]);
        assert_eq!(check_without_exact_phase(&ma, &[0, 1], 3, 1_000_000), None);
        assert!(crate::solvability::SolvabilityChecker::new(ma).check().is_unsolvable());
    }
}
