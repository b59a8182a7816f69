//! The depth-`t` prefix space of an adversary and its ε-approximation
//! components.
//!
//! Two runs `a, b` satisfy `d_min(a, b) < ε = 2^{−t}` iff some process has
//! the same interned view at time `t` in both (views are cumulative). The
//! connected components of this "shares a view" relation over the admissible
//! depth-`t` runs are exactly the paper's ε-approximations `PS^ε_z`
//! (Definition 6.2) of the connected components of `PS` — the object on
//! which solvability is decided (Theorem 6.6).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use adversary::{enumerate, MessageAdversary};
use consensus_obs::metrics::{registry, Histogram};
use consensus_obs::trace::tracer;
use dyngraph::{GraphSeq, Pid};
use ptgraph::{PrefixRun, Value, ViewId};
use simulator::checker::CheckReport;
use topology::{components_by_dense_buckets, separation, Components};

use crate::config::ExpandConfig;
use crate::error::Error;

/// Registry histogram of expansion wall time (nanoseconds), shared by
/// the build and extension paths. The handle is cached so hot rebuild
/// loops don't pay a registry lock per space.
fn stage_expand() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("stage.expand"))
}

/// Registry histogram of component-decomposition wall time (nanoseconds).
fn stage_components() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("stage.components"))
}

/// The span of one extension to `depth`.
fn extend_span(depth: usize) -> consensus_obs::trace::SpanGuard {
    tracer().span("expand").with_attr("mode", "extend").with_attr("depth", depth)
}

/// The expanded and component-decomposed prefix space at one depth.
///
/// The space is the only source of its admissible sequences
/// ([`sequences`](Self::sequences)): the universal algorithm's
/// verification walks them, and its report is memoized here, once per
/// validity flavor (see [`UniversalAlgorithm::verify`]). Extending the
/// space, in place or into a new one, starts with an empty memo.
///
/// [`UniversalAlgorithm::verify`]: crate::universal::UniversalAlgorithm::verify
#[derive(Debug, Clone)]
pub struct PrefixSpace {
    expansion: enumerate::Expansion,
    components: Components,
    /// The universal algorithm's verification report, indexed by
    /// validity flavor (0 weak, 1 strong), filled on first request.
    verified: [OnceLock<CheckReport>; 2],
}

/// Cheap size/shape statistics of a [`PrefixSpace`] — all O(1) reads of
/// already-computed state, safe to collect per scenario in hot sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceStats {
    /// The expansion depth `t`.
    pub depth: usize,
    /// Admissible runs (inputs × sequences).
    pub runs: usize,
    /// Distinct interned views.
    pub views: usize,
    /// ε-approximation components.
    pub components: usize,
}

impl PrefixSpace {
    /// Expand the adversary at `depth` over the input domain `values` and
    /// compute the ε-approximation components (`ε = 2^{−depth}`), under
    /// `cfg`'s run budget.
    ///
    /// # Errors
    /// Returns [`Error::Budget`] if the space exceeds
    /// [`cfg.max_runs`](ExpandConfig::max_runs).
    pub fn expand(
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        cfg: &ExpandConfig,
    ) -> Result<Self, Error> {
        Self::expand_budgeted(ma, values, depth, cfg).map_err(Error::from)
    }

    /// Extend the space by one round incrementally: runs are extended in
    /// place (views interned once across the sweep) and components are
    /// recomputed at the new depth. On budget exhaustion the original space
    /// is returned unchanged as the error payload, components and memo
    /// included.
    ///
    /// # Errors
    /// Returns `(self, Error::Budget)` if the extension would exceed the
    /// budget (the space rides along in the error so callers keep it).
    #[allow(clippy::result_large_err)]
    pub fn extend(
        mut self,
        ma: &dyn MessageAdversary,
        cfg: &ExpandConfig,
    ) -> Result<Self, (Self, Error)> {
        {
            let mut span = extend_span(self.depth() + 1);
            let start = Instant::now();
            if let Err(e) = self.expansion.extend(ma, cfg.max_runs) {
                return Err((self, Error::from(e)));
            }
            stage_expand().record_duration(start.elapsed());
            span.set_attr("runs", self.expansion.runs.len());
        }
        Ok(Self::from_expansion(self.expansion))
    }

    /// The space one round deeper, leaving `self` intact — the extension
    /// seam for caching [`SpaceSource`] implementations: a source holding
    /// this space (e.g. behind an `Arc`) can serve a depth-`t+1` request
    /// by laddering up from the cached depth-`t` space instead of
    /// re-expanding from scratch, while the depth-`t` entry stays live for
    /// other requesters. The new runs are computed from this space's runs
    /// into a copy of its view table, the only state copied (see
    /// [`enumerate::Expansion::extended`]). The runs/views/components
    /// produced are identical to a from-scratch [`PrefixSpace::expand`] at
    /// the deeper depth (runs are enumerated in the same input-major,
    /// breadth-first sequence order either way).
    ///
    /// # Errors
    /// Returns [`Error::Budget`] if the extension would exceed the budget;
    /// `self` — runs, view table and verification memo — is untouched
    /// either way.
    ///
    /// [`SpaceSource`]: crate::solvability::SpaceSource
    pub fn extend_from(
        &self,
        ma: &dyn MessageAdversary,
        cfg: &ExpandConfig,
    ) -> Result<Self, Error> {
        self.extend_from_budgeted(ma, cfg).map_err(Error::from)
    }

    /// [`expand`](Self::expand) with the budget-typed error of the
    /// [`SpaceSource`] seam: memoizing sources record failures, so they
    /// need a `Clone`-able error, which the crate-wide [`Error`] (it can
    /// hold an `io::Error`) is not. Prefer [`expand`](Self::expand)
    /// everywhere else.
    ///
    /// # Errors
    /// Returns [`enumerate::BudgetExceeded`] if the space exceeds
    /// [`cfg.max_runs`](ExpandConfig::max_runs).
    ///
    /// [`SpaceSource`]: crate::solvability::SpaceSource
    pub fn expand_budgeted(
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        cfg: &ExpandConfig,
    ) -> Result<Self, enumerate::BudgetExceeded> {
        let expansion = {
            let mut span =
                tracer().span("expand").with_attr("mode", "build").with_attr("depth", depth);
            let start = Instant::now();
            let expansion = enumerate::expand(ma, values, depth, cfg.max_runs)?;
            stage_expand().record_duration(start.elapsed());
            span.set_attr("runs", expansion.runs.len());
            span.set_attr("views", expansion.table.len());
            expansion
        };
        Ok(Self::from_expansion(expansion))
    }

    /// [`extend_from`](Self::extend_from) with the budget-typed error of
    /// the [`SpaceSource`] seam (see
    /// [`expand_budgeted`](Self::expand_budgeted)).
    ///
    /// # Errors
    /// Returns [`enumerate::BudgetExceeded`] if the extension would exceed
    /// the budget; `self` is untouched either way.
    ///
    /// [`SpaceSource`]: crate::solvability::SpaceSource
    pub fn extend_from_budgeted(
        &self,
        ma: &dyn MessageAdversary,
        cfg: &ExpandConfig,
    ) -> Result<Self, enumerate::BudgetExceeded> {
        let expansion = {
            let mut span = extend_span(self.depth() + 1);
            let start = Instant::now();
            let expansion = self.expansion.extended(ma, cfg.max_runs)?;
            stage_expand().record_duration(start.elapsed());
            span.set_attr("runs", expansion.runs.len());
            expansion
        };
        Ok(Self::from_expansion(expansion))
    }

    /// Component-decompose an existing expansion.
    ///
    /// Two runs are ε-close iff some process has the same interned view at
    /// the expansion depth in both; a view determines its owner, so the
    /// bucket key is the dense view id itself — one flat sweep over the run
    /// views, no hashing (see [`components_by_dense_buckets`]).
    pub fn from_expansion(expansion: enumerate::Expansion) -> Self {
        let mut span = tracer().span("components");
        let start = Instant::now();
        let depth = expansion.depth;
        let buckets = expansion
            .runs
            .iter()
            .enumerate()
            .flat_map(|(i, run)| run.views_at(depth).iter().map(move |v| (v.index(), i)));
        let components =
            components_by_dense_buckets(expansion.runs.len(), expansion.table.len(), buckets);
        stage_components().record_duration(start.elapsed());
        span.set_attr("runs", expansion.runs.len());
        span.set_attr("components", components.count());
        PrefixSpace { expansion, components, verified: Default::default() }
    }

    /// The admissible runs: every input assignment under every admissible
    /// sequence, input-major.
    pub fn runs(&self) -> &[PrefixRun] {
        &self.expansion.runs
    }

    /// The admissible depth-`t` sequences in enumeration order — the
    /// sequences of the first [`sequence_count`](Self::sequence_count)
    /// runs, each stored once and shared by the runs over it. They equal
    /// [`enumerate::admissible_sequences`] at this depth.
    ///
    /// # Panics
    /// Panics unless the runs are laid out input-major, as every
    /// expansion is (see [`enumerate::Expansion::sequences`]).
    pub fn sequences(&self) -> impl ExactSizeIterator<Item = &GraphSeq> + Clone {
        self.expansion.sequences()
    }

    /// Number of admissible sequences (runs per input assignment).
    pub fn sequence_count(&self) -> usize {
        self.expansion.sequence_count()
    }

    /// The memo cell of the universal algorithm's verification under the
    /// given validity flavor.
    pub(crate) fn verified(&self, strong_validity: bool) -> &OnceLock<CheckReport> {
        &self.verified[usize::from(strong_validity)]
    }

    /// The shared view table.
    pub fn table(&self) -> &ptgraph::ViewTable {
        &self.expansion.table
    }

    /// The expansion depth `t`.
    pub fn depth(&self) -> usize {
        self.expansion.depth
    }

    /// The input domain.
    pub fn values(&self) -> &[Value] {
        &self.expansion.values
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.expansion.n()
    }

    /// The ε-approximation components.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Telemetry of the engine pass that produced (or last extended) the
    /// underlying expansion.
    pub fn expand_stats(&self) -> enumerate::ExpandStats {
        self.expansion.stats
    }

    /// Size/shape statistics without recomputation (state-space telemetry
    /// for sweeps).
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            depth: self.depth(),
            runs: self.expansion.runs.len(),
            views: self.expansion.table.len(),
            components: self.components.count(),
        }
    }

    /// Labels for the valent runs: run index → `v` for every `v`-valent run
    /// (all processes share input `v`).
    pub fn valence_labels(&self) -> HashMap<usize, Value> {
        let mut labels = HashMap::new();
        for (i, run) in self.expansion.runs.iter().enumerate() {
            let x0 = run.inputs()[0];
            if run.inputs().iter().all(|&x| x == x0) {
                labels.insert(i, x0);
            }
        }
        labels
    }

    /// The separation report of the valence labeling — Corollary 5.6 at this
    /// resolution: separated ⟺ no component contains two valences.
    pub fn separation(&self) -> separation::SeparationReport<Value> {
        separation::check_separation(&self.components, &self.valence_labels())
    }

    /// The total component → value assignment of the meta-procedure
    /// (§5.1 steps 2–3), if the labeling is separated: pure components keep
    /// their valence, unlabeled components decide the smallest domain value.
    pub fn component_assignment(&self) -> Option<Vec<Value>> {
        let rep = self.separation();
        if !rep.is_separated() {
            return None;
        }
        let default = *self.values().iter().min().expect("nonempty domain");
        Some(separation::total_assignment(&self.components, &self.valence_labels(), default))
    }

    /// The component assignment under **strong validity** (`y_p = x_q` for
    /// some `q`, the variant the paper notes after Definition 5.1): every
    /// component's value must be an input of *every* run in the component.
    ///
    /// Pure components keep their valence (then checked against the
    /// intersection); unlabeled components pick the smallest value in the
    /// intersection of their runs' input sets. Returns `None` if the
    /// labeling is not separated **or** some component has no legal value —
    /// strong-validity consensus is then unsolvable at this resolution even
    /// if weak-validity consensus is solvable.
    pub fn strong_component_assignment(&self) -> Option<Vec<Value>> {
        let rep = self.separation();
        if !rep.is_separated() {
            return None;
        }
        let labels = self.valence_labels();
        let mut assignment = Vec::with_capacity(self.components.count());
        for c in 0..self.components.count() {
            let members = self.components.members(c);
            // Intersection of input sets across the component's runs.
            let mut common: Option<std::collections::BTreeSet<Value>> = None;
            for &i in members {
                let set: std::collections::BTreeSet<Value> =
                    self.expansion.runs[i].inputs().iter().copied().collect();
                common = Some(match common {
                    None => set,
                    Some(cur) => cur.intersection(&set).copied().collect(),
                });
            }
            let common = common.expect("components are nonempty");
            // A pure component must keep its valence.
            let forced = members.iter().find_map(|i| labels.get(i)).copied();
            let value = match forced {
                Some(v) => {
                    if !common.contains(&v) {
                        return None;
                    }
                    v
                }
                None => *common.iter().next()?,
            };
            assignment.push(value);
        }
        Some(assignment)
    }

    /// The processes that have *broadcast within the horizon* in every run
    /// of component `c`: candidates per Definition 5.8 / Theorem 5.11.
    pub fn component_broadcasters(&self, c: usize) -> Vec<Pid> {
        let table = &self.expansion.table;
        (0..self.n())
            .filter(|&p| {
                self.components
                    .members(c)
                    .iter()
                    .all(|&i| self.expansion.runs[i].broadcast_complete(p, table).is_some())
            })
            .collect()
    }

    /// Whether every component is broadcastable within the horizon —
    /// the finite check behind Theorem 6.6.
    pub fn all_components_broadcastable(&self) -> bool {
        (0..self.components.count()).all(|c| !self.component_broadcasters(c).is_empty())
    }

    /// The decision map underlying the universal algorithm: for every
    /// `(process, view at depth)` bucket, the value of the (unique)
    /// component its runs belong to. `None` if the valence labeling is not
    /// separated.
    pub fn decision_views(&self) -> Option<HashMap<(Pid, ViewId), Value>> {
        let assignment = self.component_assignment()?;
        let depth = self.depth();
        let mut map = HashMap::new();
        for (i, run) in self.expansion.runs.iter().enumerate() {
            let value = assignment[self.components.component_of(i)];
            for p in 0..run.n() {
                map.insert((p, run.view(p, depth)), value);
            }
        }
        Some(map)
    }

    /// The component of the `v`-valent runs, if they all share one (they do
    /// whenever the `v`-valent runs are mutually connected; with a common
    /// graph pool every pair of equal-input runs may still fall into
    /// different components — then `None`).
    pub fn valent_component(&self, v: Value) -> Option<usize> {
        let mut comp = None;
        for (i, run) in self.expansion.runs.iter().enumerate() {
            if run.is_valent(v) {
                match comp {
                    None => comp = Some(self.components.component_of(i)),
                    Some(c) if c == self.components.component_of(i) => {}
                    Some(_) => return None,
                }
            }
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::UniversalAlgorithm;
    use adversary::GeneralMA;
    use dyngraph::generators;

    const CFG: ExpandConfig = ExpandConfig { max_runs: 1_000_000 };

    fn reduced(depth: usize) -> PrefixSpace {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        PrefixSpace::expand(&ma, &[0, 1], depth, &CFG).unwrap()
    }

    fn full(depth: usize) -> PrefixSpace {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        PrefixSpace::expand(&ma, &[0, 1], depth, &CFG).unwrap()
    }

    #[test]
    fn depth_zero_single_component() {
        // At depth 0 every run shares the trivial structure only if inputs
        // agree per process; (0,0) and (0,1) share p0's initial view.
        let s = reduced(0);
        assert_eq!(s.runs().len(), 4);
        // Chain (0,0)–(0,1)–(1,1): one component.
        assert_eq!(s.components().count(), 1);
        let rep = s.separation();
        assert!(!rep.is_separated(), "depth 0 cannot separate valences");
    }

    #[test]
    fn reduced_lossy_link_separates_at_depth_one() {
        let s = reduced(1);
        let rep = s.separation();
        assert!(rep.is_separated(), "{:?}", rep.mixed_components);
        // Components: by round-1 direction and the surviving input info.
        assert!(s.components().count() >= 2);
        let assignment = s.component_assignment().unwrap();
        assert_eq!(assignment.len(), s.components().count());
    }

    #[test]
    fn full_lossy_link_never_separates() {
        for depth in 0..4 {
            let s = full(depth);
            assert!(
                !s.separation().is_separated(),
                "Santoro–Widmayer adversary separated at depth {depth}?!"
            );
        }
    }

    #[test]
    fn components_refine_with_depth() {
        // Lemma 6.3(ii): deeper components refine shallower ones. Compare on
        // a common run indexing: runs are ordered (inputs, sequences) and
        // sequences at depth d+1 extend those at depth d — indices do not
        // align directly, so check the valence-label side instead: the
        // number of components is non-decreasing with depth.
        let mut prev = reduced(0).components().count();
        for depth in 1..4 {
            let cur = reduced(depth).components().count();
            assert!(cur >= prev, "components must refine");
            prev = cur;
        }
    }

    #[test]
    fn broadcasters_reduced_lossy_link() {
        let s = reduced(1);
        // Every run: the round-1 sender has broadcast.
        for c in 0..s.components().count() {
            let b = s.component_broadcasters(c);
            // Components of depth 1 are per-direction: a single broadcaster.
            assert!(!b.is_empty(), "component {c} has no broadcaster");
        }
        assert!(s.all_components_broadcastable());
    }

    #[test]
    fn full_lossy_link_mixed_component_not_broadcastable() {
        let s = full(2);
        let rep = s.separation();
        for &c in &rep.mixed_components {
            assert!(
                s.component_broadcasters(c).is_empty(),
                "mixed component {c} must not be broadcastable (Thm 5.9)"
            );
        }
    }

    #[test]
    fn decision_views_cover_all_buckets() {
        let s = reduced(2);
        let map = s.decision_views().unwrap();
        for run in s.runs() {
            for p in 0..2 {
                assert!(map.contains_key(&(p, run.view(p, 2))));
            }
        }
    }

    #[test]
    fn decision_views_none_when_mixed() {
        assert!(full(2).decision_views().is_none());
        assert!(full(2).component_assignment().is_none());
    }

    #[test]
    fn valent_component_lookup() {
        let s = full(1);
        // All runs are interconnected across valences for the full pool at
        // low depth: z0 and z1 share their component.
        if let (Some(c0), Some(c1)) = (s.valent_component(0), s.valent_component(1)) {
            assert_eq!(c0, c1);
        }
    }

    #[test]
    fn incremental_extension_matches_rebuild() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut inc = PrefixSpace::expand(&ma, &[0, 1], 0, &CFG).unwrap();
        for depth in 1..=3 {
            inc = inc.extend(&ma, &CFG).unwrap();
            let direct = PrefixSpace::expand(&ma, &[0, 1], depth, &CFG).unwrap();
            assert_eq!(inc.depth(), direct.depth());
            assert_eq!(inc.runs().len(), direct.runs().len());
            assert_eq!(inc.components().count(), direct.components().count());
            assert_eq!(inc.separation().is_separated(), direct.separation().is_separated());
            // Component size multiset must agree (orderings may differ).
            let sizes = |s: &PrefixSpace| {
                let mut v: Vec<usize> = s.components().iter().map(|m| m.len()).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sizes(&inc), sizes(&direct));
        }
    }

    #[test]
    fn extended_from_leaves_base_intact_and_matches_rebuild() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let base = PrefixSpace::expand(&ma, &[0, 1], 1, &CFG).unwrap();
        let deeper = base.extend_from(&ma, &CFG).unwrap();
        // The base is untouched and still usable.
        assert_eq!(base.depth(), 1);
        assert_eq!(deeper.depth(), 2);
        let direct = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        assert_eq!(deeper.runs().len(), direct.runs().len());
        assert_eq!(deeper.stats(), direct.stats());
        assert_eq!(deeper.separation().is_separated(), direct.separation().is_separated());
        // Run order matches the from-scratch enumeration exactly.
        for (a, b) in deeper.runs().iter().zip(direct.runs()) {
            assert_eq!(a.inputs(), b.inputs());
            assert_eq!(a.seq(), b.seq());
        }
        // Budget failure leaves the base intact too.
        assert!(base.extend_from(&ma, &ExpandConfig::with_budget(10)).is_err());
        assert_eq!(base.depth(), 1);
    }

    /// `extend_from` reads the base and copies only its view table: after
    /// a failed and a successful call, the base's runs (down to their
    /// shared sequences), table and verification memo are those it had,
    /// and a new space starts with an empty memo.
    #[test]
    fn extend_from_leaves_base_runs_table_and_memo_untouched() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let base = reduced(1);
        let memo: *const CheckReport = UniversalAlgorithm::synthesize(&base).unwrap().verify(&base);
        let (runs, table) = (base.runs().to_vec(), base.table().clone());
        let seqs: Vec<*const GraphSeq> = runs.iter().map(|r| r.seq() as *const _).collect();
        for cfg in [ExpandConfig::with_budget(10), CFG] {
            let deeper = base.extend_from(&ma, &cfg);
            assert_eq!(deeper.is_ok(), cfg.max_runs > 10);
            assert_eq!(base.runs(), runs);
            assert_eq!(base.table(), &table);
            assert!(base.runs().iter().zip(&seqs).all(|(r, &s)| std::ptr::eq(r.seq(), s)));
            assert!(std::ptr::eq(base.verified(false).get().unwrap(), memo));
            assert!(base.verified(true).get().is_none());
            if let Ok(deeper) = deeper {
                assert!(deeper.verified(false).get().is_none());
            }
        }
    }

    /// An in-place extension yields a space with an empty memo; a failed
    /// one hands the space back with its memo.
    #[test]
    fn in_place_extension_empties_the_memo() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space = reduced(1);
        let memo = UniversalAlgorithm::synthesize(&space).unwrap().verify(&space).clone();
        let (space, _) = space.extend(&ma, &ExpandConfig::with_budget(10)).unwrap_err();
        assert_eq!(space.verified(false).get(), Some(&memo));
        let deeper = space.extend(&ma, &CFG).unwrap();
        assert!(deeper.verified(false).get().is_none() && deeper.verified(true).get().is_none());
        let report = UniversalAlgorithm::synthesize(&deeper).unwrap().verify(&deeper);
        assert_eq!(report.runs_checked, deeper.runs().len());
    }

    #[test]
    fn incremental_extension_budget_error_preserves_space() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        let runs_before = space.runs().len();
        let (space, err) = space.extend(&ma, &ExpandConfig::with_budget(10)).unwrap_err();
        assert_eq!(space.runs().len(), runs_before);
        assert_eq!(space.depth(), 2);
        assert!(err.into_budget().unwrap().needed > 10);
    }

    #[test]
    fn theorem_5_9_broadcastable_components_have_small_diameter() {
        // Thm 5.9: a connected broadcastable set has d_min ≤ 1/2, i.e. the
        // broadcaster's input is constant on the component.
        let s = reduced(2);
        for c in 0..s.components().count() {
            for &p in &s.component_broadcasters(c) {
                let members = s.components().members(c);
                let x0 = s.runs()[members[0]].inputs()[p];
                for &i in members {
                    assert_eq!(
                        s.runs()[i].inputs()[p],
                        x0,
                        "broadcaster {p}'s input must be constant on component {c}"
                    );
                }
            }
        }
    }
}
