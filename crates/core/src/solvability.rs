//! The three-valued consensus-solvability checker.
//!
//! Implements the meta-procedure following Theorem 5.5 on the finite
//! ε-approximations (`ε = 2^{−t}`, Definition 6.2 / Theorem 6.6):
//!
//! * **Solvable** — at some depth `t ≤ max_depth` the valence labeling of
//!   the components is separated (Corollary 5.6); the universal algorithm is
//!   synthesized from the partition (Theorem 5.5) and verified exhaustively
//!   on the prefix space.
//! * **Unsolvable** — an exact distance-0 chain of admissible lasso runs
//!   links two valences (see [`crate::fair`]): a single connected component
//!   contains both, so no algorithm exists (Corollary 5.6). This is a
//!   rigorous, machine-checked certificate.
//! * **Undecided** — mixed components persist up to `max_depth` and no
//!   exact chain was found. For *compact* adversaries Theorem 6.6 guarantees
//!   that a solvable adversary separates at a finite depth, so persistent
//!   mixing is evidence of impossibility (the per-depth ε-chains are the
//!   finite shadows of the fair/unfair limit, Definition 5.16); the verdict
//!   reports that evidence without overclaiming.

use std::sync::Arc;

use adversary::{enumerate, MessageAdversary};
use ptgraph::Value;
use simulator::checker::CheckReport;

use crate::{
    broadcast::{broadcast_report, BroadcastReport},
    config::{AnalysisConfig, ExpandConfig},
    fair::{self, EpsilonChain, ZeroChain},
    space::PrefixSpace,
    universal::UniversalAlgorithm,
};

/// Certificate for a [`Verdict::Solvable`] outcome.
#[derive(Debug)]
pub struct SolvableCert {
    /// The separating depth `t` (so `ε = 2^{−t}`).
    pub depth: usize,
    /// Number of ε-approximation components at `depth`.
    pub component_count: usize,
    /// The broadcastability report (Theorem 5.11 side of the coin).
    pub broadcast: BroadcastReport,
    /// The synthesized universal algorithm.
    pub algorithm: UniversalAlgorithm,
    /// Exhaustive verification of the algorithm at `depth`.
    pub verification: CheckReport,
}

/// Certificate for a [`Verdict::Unsolvable`] outcome.
#[derive(Debug)]
pub enum UnsolvableCert {
    /// An exact distance-0 chain linking two valences (Corollary 5.6).
    ZeroChain(ZeroChain),
}

/// Evidence accompanying a [`Verdict::Undecided`] outcome.
#[derive(Debug)]
pub struct UndecidedReport {
    /// The deepest resolution examined.
    pub max_depth: usize,
    /// Number of valence-mixed components at `max_depth`.
    pub mixed_components: usize,
    /// A valence-connecting ε-chain at `max_depth` (the finite shadow of a
    /// fair/unfair limit), if one was extracted.
    pub chain: Option<EpsilonChain>,
    /// Whether the adversary is compact — if so, persistent mixing at all
    /// depths would imply impossibility (Theorem 6.6); at finite depth it is
    /// evidence only.
    pub compact: bool,
    /// Set when expansion stopped early because the run budget was hit.
    pub budget_hit: bool,
}

/// The checker outcome.
#[derive(Debug)]
pub enum Verdict {
    /// Consensus is solvable; the certificate carries a verified algorithm.
    Solvable(SolvableCert),
    /// Consensus is unsolvable; the certificate is machine-checked.
    Unsolvable(UnsolvableCert),
    /// Not resolved within the depth/budget limits; evidence attached.
    Undecided(UndecidedReport),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Solvable`].
    pub fn is_solvable(&self) -> bool {
        matches!(self, Verdict::Solvable(_))
    }

    /// Whether the verdict is [`Verdict::Unsolvable`].
    pub fn is_unsolvable(&self) -> bool {
        matches!(self, Verdict::Unsolvable(_))
    }
}

/// A provider of prefix spaces — the seam through which an external
/// memoization layer (e.g. the lab's sweep cache) plugs into the checker.
///
/// [`SolvabilityChecker::check_via`] requests the space for each depth from
/// the source instead of building it; a source shared across analyses and
/// scenarios then pays for each `(adversary, depth)` expansion exactly once.
///
/// Sources are free to serve a depth-`t` request by *laddering*: extending
/// a shallower space they already hold via [`PrefixSpace::extend_from`],
/// which yields a space identical to a from-scratch build at `t`. The
/// checker's ascending-depth request pattern makes every request after the
/// first a one-round extension for such a source.
pub trait SpaceSource {
    /// The space of `ma` at `depth` over `values`, subject to `max_runs`.
    ///
    /// # Errors
    /// Returns [`enumerate::BudgetExceeded`] if the expansion would exceed
    /// the budget.
    fn space(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, enumerate::BudgetExceeded>;
}

/// The trivial [`SpaceSource`]: builds a fresh space on every request.
#[derive(Debug, Default, Clone, Copy)]
pub struct FreshSpaces;

impl SpaceSource for FreshSpaces {
    fn space(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, enumerate::BudgetExceeded> {
        PrefixSpace::expand_budgeted(ma, values, depth, &ExpandConfig::with_budget(max_runs))
            .map(Arc::new)
    }
}

/// The solvability checker; see the module docs.
///
/// ```
/// use consensus_core::solvability::SolvabilityChecker;
/// use adversary::GeneralMA;
/// use dyngraph::Digraph;
///
/// // Oblivious over the empty graph: trivially unsolvable (n = 2, no
/// // communication, ever).
/// let ma = GeneralMA::oblivious(vec![Digraph::empty(2)]);
/// let verdict = SolvabilityChecker::new(ma).max_depth(3).check();
/// assert!(verdict.is_unsolvable());
/// ```
#[derive(Debug)]
pub struct SolvabilityChecker<M> {
    ma: M,
    values: Vec<Value>,
    analysis: AnalysisConfig,
    expand: ExpandConfig,
}

impl<M: MessageAdversary> SolvabilityChecker<M> {
    /// A checker with binary inputs and the default configs (depth ladder
    /// to 6, weak validity, 2·10⁶-run budget).
    pub fn new(ma: M) -> Self {
        Self::with_config(ma, AnalysisConfig::default(), ExpandConfig::default())
    }

    /// A checker with binary inputs and explicit analysis/engine configs —
    /// the typed alternative to chaining the `max_depth` / `max_runs` /
    /// `strong_validity` setters.
    ///
    /// ```
    /// use consensus_core::config::{AnalysisConfig, ExpandConfig};
    /// use consensus_core::solvability::SolvabilityChecker;
    /// use adversary::GeneralMA;
    /// use dyngraph::generators;
    ///
    /// let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    /// let verdict = SolvabilityChecker::with_config(
    ///     ma,
    ///     AnalysisConfig::new().max_depth(4),
    ///     ExpandConfig::default(),
    /// )
    /// .check();
    /// assert!(verdict.is_solvable());
    /// ```
    pub fn with_config(ma: M, analysis: AnalysisConfig, expand: ExpandConfig) -> Self {
        SolvabilityChecker { ma, values: vec![0, 1], analysis, expand }
    }

    /// Set the input domain.
    pub fn values(mut self, values: Vec<Value>) -> Self {
        assert!(values.len() >= 2, "consensus needs at least two input values");
        self.values = values;
        self
    }

    /// Set the maximum resolution depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.analysis.max_depth = depth;
        self
    }

    /// Set the expansion budget (runs per depth).
    pub fn max_runs(mut self, max_runs: usize) -> Self {
        self.expand.max_runs = max_runs;
        self
    }

    /// Set the maximum lasso cycle length searched for exact chains.
    pub fn max_chain_cycle(mut self, c: usize) -> Self {
        self.analysis.max_chain_cycle = c;
        self
    }

    /// Require *strong validity* (every decision is some process's input):
    /// the universal algorithm is synthesized from a strong-validity
    /// component assignment, and verified under the stricter check. A space
    /// separated for weak validity may still fail strong validity (no legal
    /// assignment); the sweep then continues to deeper resolutions.
    pub fn strong_validity(mut self, enable: bool) -> Self {
        self.analysis.strong_validity = enable;
        self
    }

    /// The adversary under analysis.
    pub fn adversary(&self) -> &M {
        &self.ma
    }

    /// The analysis configuration in effect.
    pub fn analysis_config(&self) -> &AnalysisConfig {
        &self.analysis
    }

    /// The expansion configuration in effect.
    pub fn expand_config(&self) -> &ExpandConfig {
        &self.expand
    }

    /// Run the check.
    pub fn check(&self) -> Verdict {
        // Phase 1: exact impossibility certificates (cheap, rigorous).
        if let Some(verdict) = self.exact_impossibility() {
            return verdict;
        }

        // Phase 2: incremental depth sweep for separation (views are
        // interned once across the sweep; see `PrefixSpace::extend`).
        let mut last: Option<PrefixSpace> = None;
        let mut budget_hit = false;
        let mut current = PrefixSpace::expand(&self.ma, &self.values, 0, &self.expand).ok();
        for _depth in 0..=self.analysis.max_depth {
            match current.take() {
                Some(space) => {
                    let separated = if self.analysis.strong_validity {
                        space.strong_component_assignment().is_some()
                    } else {
                        space.separation().is_separated()
                    };
                    if separated {
                        return self.certify_solvable(&space);
                    }
                    if space.depth() < self.analysis.max_depth {
                        match space.extend(&self.ma, &self.expand) {
                            Ok(next) => current = Some(next),
                            Err((space, _)) => {
                                budget_hit = true;
                                last = Some(space);
                                break;
                            }
                        }
                    } else {
                        last = Some(space);
                        break;
                    }
                }
                None => {
                    budget_hit = true;
                    break;
                }
            }
        }

        // Phase 3: undecided with evidence.
        let (mixed, chain, max_depth) = match &last {
            Some(space) => {
                let rep = space.separation();
                let chain = self.first_mixed_chain(space);
                (rep.mixed_components.len(), chain, space.depth())
            }
            None => (0, None, 0),
        };
        Verdict::Undecided(UndecidedReport {
            max_depth,
            mixed_components: mixed,
            chain,
            compact: self.ma.is_compact(),
            budget_hit,
        })
    }

    /// Phase 1 of [`check`](Self::check): search for an exact distance-0
    /// chain between two valences — a rigorous impossibility certificate
    /// that needs no prefix-space expansion.
    pub fn exact_impossibility(&self) -> Option<Verdict> {
        for (i, &v) in self.values.iter().enumerate() {
            for &w in &self.values[i + 1..] {
                if let Some(chain) =
                    fair::exact_zero_chain(&self.ma, v, w, self.analysis.max_chain_cycle)
                {
                    debug_assert!(chain.verify(&self.ma));
                    return Some(Verdict::Unsolvable(UnsolvableCert::ZeroChain(chain)));
                }
            }
        }
        None
    }

    /// Run the check against spaces supplied by `source` instead of
    /// building them here. Semantically identical to [`check`](Self::check);
    /// a shared caching source amortizes the expansions across analyses and
    /// scenarios (the lab's sweep path).
    pub fn check_via(&self, source: &dyn SpaceSource) -> Verdict {
        if let Some(verdict) = self.exact_impossibility() {
            return verdict;
        }

        let mut last: Option<Arc<PrefixSpace>> = None;
        let mut budget_hit = false;
        for depth in 0..=self.analysis.max_depth {
            match source.space(&self.ma, &self.values, depth, self.expand.max_runs) {
                Ok(space) => {
                    let separated = if self.analysis.strong_validity {
                        space.strong_component_assignment().is_some()
                    } else {
                        space.separation().is_separated()
                    };
                    if separated {
                        return self.certify_solvable(&space);
                    }
                    last = Some(space);
                }
                Err(_) => {
                    budget_hit = true;
                    break;
                }
            }
        }

        let (mixed, chain, max_depth) = match &last {
            Some(space) => {
                let rep = space.separation();
                let chain = self.first_mixed_chain(space);
                (rep.mixed_components.len(), chain, space.depth())
            }
            None => (0, None, 0),
        };
        Verdict::Undecided(UndecidedReport {
            max_depth,
            mixed_components: mixed,
            chain,
            compact: self.ma.is_compact(),
            budget_hit,
        })
    }

    fn first_mixed_chain(&self, space: &PrefixSpace) -> Option<EpsilonChain> {
        for (i, &v) in self.values.iter().enumerate() {
            for &w in &self.values[i + 1..] {
                if let Some(chain) = fair::valence_chain(space, v, w) {
                    return Some(chain);
                }
            }
        }
        None
    }

    /// Certify a separated space: synthesize the universal algorithm and
    /// verify it exhaustively on the space's own sequences
    /// ([`UniversalAlgorithm::verify`], memoized per space and validity).
    ///
    /// The space is verified as handed over, without applying the run
    /// budget again: a cached space may hold more runs than this checker's
    /// budget, and checking it is bounded work.
    ///
    /// # Panics
    /// Panics if the space is not separated (the caller checks first) or if
    /// the synthesized algorithm fails its own verification (an internal
    /// error by Theorem 5.5).
    pub fn certify_solvable(&self, space: &PrefixSpace) -> Verdict {
        let broadcast = broadcast_report(space);
        let algorithm = if self.analysis.strong_validity {
            UniversalAlgorithm::synthesize_strong(space)
                .expect("strong assignment checked before certification")
        } else {
            UniversalAlgorithm::synthesize(space).expect("separated space must synthesize")
        };
        let verification = algorithm.verify(space).clone();
        assert!(
            verification.passed(),
            "internal error: synthesized universal algorithm failed verification: {:?}",
            verification.violations
        );
        Verdict::Solvable(SolvableCert {
            depth: space.depth(),
            component_count: space.components().count(),
            broadcast,
            algorithm,
            verification,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use dyngraph::{generators, Digraph};

    #[test]
    fn reduced_lossy_link_solvable_depth_one() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        match SolvabilityChecker::new(ma).max_depth(4).check() {
            Verdict::Solvable(cert) => {
                assert_eq!(cert.depth, 1);
                assert!(cert.verification.passed());
                assert!(cert.broadcast.all_broadcastable());
                assert!(cert.component_count >= 2);
            }
            other => panic!("expected solvable: {other:?}"),
        }
    }

    #[test]
    fn full_lossy_link_undecided_with_chain_evidence() {
        // Santoro–Widmayer: truly unsolvable, but only via limits — the
        // checker reports Undecided with a valence-connecting chain at the
        // deepest resolution (the fair-sequence shadow).
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        match SolvabilityChecker::new(ma).max_depth(4).check() {
            Verdict::Undecided(rep) => {
                assert_eq!(rep.max_depth, 4);
                assert!(rep.mixed_components >= 1);
                assert!(rep.compact);
                assert!(rep.chain.is_some());
                assert!(!rep.budget_hit);
            }
            other => panic!("expected undecided: {other:?}"),
        }
    }

    #[test]
    fn empty_graph_unsolvable_exact() {
        let ma = GeneralMA::oblivious(vec![Digraph::empty(2)]);
        match SolvabilityChecker::new(ma).check() {
            Verdict::Unsolvable(UnsolvableCert::ZeroChain(chain)) => {
                assert_eq!(chain.valences, (0, 1));
            }
            other => panic!("expected unsolvable: {other:?}"),
        }
    }

    #[test]
    fn pool_with_unrooted_graph_unsolvable_exact() {
        // {→01 only} on n = 3: not rooted → exact chain.
        let g = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let ma = GeneralMA::oblivious(vec![g, dyngraph::generators::star_out(3, 0)]);
        // Pool contains an unrooted graph: its constant lasso kills it.
        let verdict = SolvabilityChecker::new(ma).check();
        assert!(verdict.is_unsolvable(), "{verdict:?}");
    }

    #[test]
    fn singleton_arrow_pool_solvable() {
        // {→}: process 0 broadcasts in round 1 in every sequence.
        let ma = GeneralMA::oblivious(vec![Digraph::parse2("->").unwrap()]);
        match SolvabilityChecker::new(ma).max_depth(3).check() {
            Verdict::Solvable(cert) => assert!(cert.depth <= 1),
            other => panic!("expected solvable: {other:?}"),
        }
    }

    #[test]
    fn swap_pool_solvable() {
        // {↔}: full exchange every round.
        let ma = GeneralMA::oblivious(vec![Digraph::parse2("<->").unwrap()]);
        assert!(SolvabilityChecker::new(ma).max_depth(3).check().is_solvable());
    }

    #[test]
    fn stars_n3_solvable() {
        let ma = GeneralMA::oblivious(generators::all_out_stars(3));
        match SolvabilityChecker::new(ma).max_depth(3).max_runs(4_000_000).check() {
            Verdict::Solvable(cert) => {
                assert!(cert.depth <= 2);
                assert!(cert.broadcast.all_broadcastable());
            }
            other => panic!("expected solvable: {other:?}"),
        }
    }

    #[test]
    fn compact_eventually_swap_solvable() {
        // "↔ within 2 rounds" over the full lossy link: compact, and the
        // forced early ↔ separates the valences.
        let ma = GeneralMA::eventually_graph(
            generators::lossy_link_full(),
            Digraph::parse2("<->").unwrap(),
            Some(2),
        );
        let verdict = SolvabilityChecker::new(ma).max_depth(5).check();
        assert!(verdict.is_solvable(), "{verdict:?}");
    }

    #[test]
    fn ternary_inputs_respected() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let verdict = SolvabilityChecker::new(ma).values(vec![0, 1, 2]).max_depth(3).check();
        assert!(verdict.is_solvable(), "{verdict:?}");
    }

    #[test]
    fn budget_exhaustion_reported() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        match SolvabilityChecker::new(ma).max_depth(10).max_runs(200).check() {
            Verdict::Undecided(rep) => assert!(rep.budget_hit),
            other => panic!("expected undecided: {other:?}"),
        }
    }

    #[test]
    fn check_via_fresh_source_matches_check() {
        let pools = [
            generators::lossy_link_reduced(),
            generators::lossy_link_full(),
            vec![Digraph::empty(2)],
        ];
        for pool in pools {
            let checker = SolvabilityChecker::new(GeneralMA::oblivious(pool.clone())).max_depth(4);
            let direct = checker.check();
            let via = checker.check_via(&FreshSpaces);
            match (&direct, &via) {
                (Verdict::Solvable(a), Verdict::Solvable(b)) => {
                    assert_eq!(a.depth, b.depth);
                    assert_eq!(a.component_count, b.component_count);
                }
                (Verdict::Unsolvable(_), Verdict::Unsolvable(_)) => {}
                (Verdict::Undecided(a), Verdict::Undecided(b)) => {
                    assert_eq!(a.max_depth, b.max_depth);
                    assert_eq!(a.mixed_components, b.mixed_components);
                    assert_eq!(a.chain.is_some(), b.chain.is_some());
                }
                (a, b) => panic!("pool {pool:?}: check {a:?} vs check_via {b:?}"),
            }
        }
    }

    #[test]
    fn space_stats_are_cheap_reads() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space =
            PrefixSpace::expand(&ma, &[0, 1], 2, &crate::config::ExpandConfig::default()).unwrap();
        let stats = space.stats();
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.runs, space.runs().len());
        assert_eq!(stats.views, space.table().len());
        assert_eq!(stats.components, space.components().count());
    }
}
