//! The universal consensus algorithm of Theorem 5.5, synthesized from a
//! separated prefix space.
//!
//! # What the synthesized strategy *is*, in the paper's terms
//!
//! Nowak–Schmid–Winkler's universal algorithm is not a clever protocol — it
//! is the topology made executable. Every process keeps a full-information
//! view of the process-time graph (who it heard from, carrying what, in
//! which round: [`ptgraph::ViewTable`]). Process `p` decides value `v` at
//! time `t` as soon as the **ball** of admissible executions compatible
//! with its recorded view `V` — `{b ∈ PS : π_p(b^t) = V}` in the paper's
//! notation — is contained in the decision set `PS(v)`. Agreement follows
//! because the decision sets partition the connected components of the
//! space (Corollary 5.6: a solvable adversary admits no component whose
//! runs require different decisions), and validity because each component's
//! assigned value is one of its runs' inputs.
//!
//! Synthesis precomputes exactly that ball test on the finite prefix space:
//! for every time `s ≤ depth` and every `(process, view at s)` bucket, if
//! all runs compatible with the bucket lie in components assigned the same
//! value `v`, the bucket decides `v`. At `s = depth` every bucket decides
//! (buckets refine components), so the algorithm terminates by round
//! `depth` on every admissible run.
//!
//! The resulting decision table — the `(process, view) → value` map plus
//! its depth — is a complete, self-contained description of the strategy.
//! That is what a solvable [`certificate`](crate::certificate) exports:
//! [`UniversalAlgorithm::decision_table`] snapshots the map, and the
//! certificate verifier replays witness executions against it without
//! re-expanding the prefix space.
//!
//! A [`ViewId`] determines its owner, so the map is stored densely: one
//! entry per view id of the synthesis-time table, holding the owner and
//! the value when the view's ball is decided. A lookup is one index, and
//! answers only for the owner; views interned after synthesis (runs past
//! the horizon) have no entry.
//!
//! [`UniversalAlgorithm::verify`] checks the algorithm exhaustively on the
//! sequences of the space it came from, once per space and validity
//! flavor.

use dyngraph::Pid;
use ptgraph::{Value, ViewId, ViewTable};
use simulator::checker::{self, CheckConfig, CheckReport};
use simulator::Algorithm;
use std::sync::Mutex;

use crate::space::PrefixSpace;

/// A synthesized universal consensus algorithm (Theorem 5.5).
///
/// Implements [`simulator::Algorithm`]: states are interned views plus the
/// decision; the runtime interner is seeded with the synthesis-time
/// [`ViewTable`] so that view identity at run time coincides with synthesis
/// time. Decisions are a dense table indexed by view id: a view decides
/// only for its owner, and only if it was interned at synthesis.
#[derive(Debug)]
pub struct UniversalAlgorithm {
    /// Runtime view interner (shared across the processes of an execution).
    table: Mutex<ViewTable>,
    /// Entry `i` is `Some((owner, value))` when the ball of view `i` of
    /// the synthesis-time table is decided.
    decisions: Box<[Option<(Pid, Value)>]>,
    /// The synthesis depth: every admissible run decides by this round.
    depth: usize,
    /// Whether the decisions come from a strong-validity assignment.
    strong_validity: bool,
}

/// State of [`UniversalAlgorithm`]: the interned view and the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniversalState {
    /// The process's current interned view.
    pub view: ViewId,
    /// The decision, once taken (irrevocable).
    pub decided: Option<Value>,
}

impl UniversalAlgorithm {
    /// Synthesize from a prefix space whose valence labeling is separated.
    ///
    /// Returns `None` if the space is not separated (consensus not solvable
    /// at this resolution — Corollary 5.6).
    pub fn synthesize(space: &PrefixSpace) -> Option<Self> {
        Self::synthesize_from_assignment(space, space.component_assignment()?, false)
    }

    /// Synthesize under **strong validity**: decisions are always some
    /// process's input. Returns `None` if the space is not separated or no
    /// strong-validity assignment exists (see
    /// [`PrefixSpace::strong_component_assignment`]).
    pub fn synthesize_strong(space: &PrefixSpace) -> Option<Self> {
        Self::synthesize_from_assignment(space, space.strong_component_assignment()?, true)
    }

    fn synthesize_from_assignment(
        space: &PrefixSpace,
        assignment: Vec<Value>,
        strong_validity: bool,
    ) -> Option<Self> {
        let depth = space.depth();
        // Earliest-decision table: bucket (p, view at s) decides v iff all
        // runs sharing the bucket sit in components assigned v. A slot
        // holds the owner and `None` once its runs disagree.
        let mut buckets: Vec<Option<(Pid, Option<Value>)>> = vec![None; space.table().len()];
        for (i, run) in space.runs().iter().enumerate() {
            let value = assignment[space.components().component_of(i)];
            for s in 0..=depth {
                for p in 0..run.n() {
                    let slot = &mut buckets[run.view(p, s).index()];
                    match slot {
                        None => *slot = Some((p, Some(value))),
                        Some((_, decided)) if *decided != Some(value) => *decided = None,
                        Some(_) => {}
                    }
                }
            }
        }
        let decisions = buckets.into_iter().map(|b| b.and_then(|(p, v)| Some((p, v?)))).collect();
        Some(UniversalAlgorithm {
            table: Mutex::new(space.table().clone()),
            decisions,
            depth,
            strong_validity,
        })
    }

    /// Verify the algorithm exhaustively on `space`, the space it was
    /// synthesized from (Theorem 5.5): every input assignment under every
    /// sequence of [`PrefixSpace::sequences`] at the synthesis depth, with
    /// termination required, under the validity it was synthesized for.
    /// The walk executes the algorithm; it never reads the space's
    /// interned views.
    ///
    /// The report depends only on the space and the validity flavor, so it
    /// is memoized on the space: the first call per flavor walks, and later
    /// ones, from any synthesis of that flavor, return its report. No run
    /// budget applies, because the space already holds every run walked.
    ///
    /// # Panics
    /// Panics if `space` has a different depth or view table size than
    /// the synthesis space.
    pub fn verify<'s>(&self, space: &'s PrefixSpace) -> &'s CheckReport {
        assert!(
            self.depth == space.depth() && self.decisions.len() == space.table().len(),
            "the universal algorithm is verified on the space it was synthesized from"
        );
        space.verified(self.strong_validity).get_or_init(|| {
            let cfg = CheckConfig::at_depth(self.depth)
                .max_runs(usize::MAX)
                .strong_validity(self.strong_validity);
            checker::check_sequences(self, space.n(), space.values(), space.sequences(), &cfg)
                .expect("an unlimited budget cannot be exceeded")
        })
    }

    /// The weak-validity verification report of `space`: the memoized one
    /// when any weak synthesis was verified on it already, else that of a
    /// fresh synthesis, which [`verify`](Self::verify) memoizes. `None` if
    /// the space does not synthesize (its valence labeling is mixed).
    pub fn weak_verification(space: &PrefixSpace) -> Option<&CheckReport> {
        match space.verified(false).get() {
            Some(report) => Some(report),
            None => Some(Self::synthesize(space)?.verify(space)),
        }
    }

    /// The synthesis depth: the round by which every admissible run decides.
    pub fn decision_depth(&self) -> usize {
        self.depth
    }

    /// Number of `(process, view)` buckets with a decision entry.
    pub fn table_size(&self) -> usize {
        self.decisions.iter().flatten().count()
    }

    /// The decision for a bucket, if the ball around the view is decided;
    /// `None` unless `p` owns `view`.
    pub fn bucket_decision(&self, p: Pid, view: ViewId) -> Option<Value> {
        match self.decisions.get(view.index()) {
            Some(&Some((owner, v))) if owner == p => Some(v),
            _ => None,
        }
    }

    /// The full decision table as a sorted `(process, view, value)` list —
    /// the strategy itself, in exportable form.
    ///
    /// This is the payload a solvable [`certificate`](crate::certificate)
    /// carries: together with [`decision_depth`](Self::decision_depth) it
    /// determines the algorithm completely, and a verifier can check
    /// agreement/validity/termination against it by replaying executions,
    /// without access to the prefix space the table was synthesized from.
    /// It does not lock the interner, so it may run inside
    /// [`with_view_table`](Self::with_view_table).
    pub fn decision_table(&self) -> Vec<(Pid, ViewId, Value)> {
        let mut table: Vec<(Pid, ViewId, Value)> = self
            .decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|(p, v)| (p, ViewId::from_index(i), v)))
            .collect();
        table.sort_unstable();
        table
    }

    /// Run `f` against the synthesis-time view interner.
    ///
    /// The [`ViewId`]s in the decision table are indices into this table;
    /// certificate extraction uses the structural data behind them (process,
    /// round, received views) to compute interner-independent view digests.
    pub fn with_view_table<R>(&self, f: impl FnOnce(&ViewTable) -> R) -> R {
        f(&self.table.lock().expect("interner lock poisoned"))
    }
}

impl Algorithm for UniversalAlgorithm {
    type State = UniversalState;

    fn init(&self, p: Pid, x: Value) -> UniversalState {
        let view = self.table.lock().expect("interner lock poisoned").intern_initial(p, x);
        UniversalState { view, decided: self.bucket_decision(p, view) }
    }

    fn step(
        &self,
        p: Pid,
        state: &UniversalState,
        received: &[(Pid, UniversalState)],
    ) -> UniversalState {
        let view = self.table.lock().expect("interner lock poisoned").intern_round(
            p,
            state.view,
            received.iter().map(|&(q, ref s)| (q, s.view)),
        );
        let decided = state.decided.or_else(|| self.bucket_decision(p, view));
        UniversalState { view, decided }
    }

    fn decision(&self, _p: Pid, state: &UniversalState) -> Option<Value> {
        state.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use dyngraph::{generators, GraphSeq};
    use simulator::{checker, engine};

    use crate::config::ExpandConfig;

    const CFG: ExpandConfig = ExpandConfig { max_runs: 1_000_000 };

    fn reduced_space(depth: usize) -> PrefixSpace {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        PrefixSpace::expand(&ma, &[0, 1], depth, &CFG).unwrap()
    }

    #[test]
    fn synthesis_fails_on_mixed_space() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        assert!(UniversalAlgorithm::synthesize(&space).is_none());
    }

    #[test]
    fn synthesized_algorithm_solves_reduced_lossy_link() {
        let space = reduced_space(2);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let report = checker::check(
            &alg,
            &ma,
            &[0, 1],
            &checker::CheckConfig::at_depth(2).max_runs(100_000),
        )
        .unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.undecided_runs, 0);
    }

    #[test]
    fn valent_runs_decide_at_round_one() {
        // On valent inputs decisions fire early — by round 2: the round-1
        // ball of the round-1 *sender* still straddles the valent component
        // and an unlabeled component (whose meta-procedure default may
        // differ), so round 1 is not always possible; the receiver's ball is
        // already pure at round 1.
        let space = reduced_space(3);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        for word in ["-> <- ->", "<- -> <-"] {
            for x in [[0, 0], [1, 1]] {
                let exec = engine::run(&alg, &x, &GraphSeq::parse2(word).unwrap());
                for p in 0..2 {
                    let (round, v) = exec.decision_of(p).unwrap();
                    assert!(round <= 2, "decision late: round {round} for {word} {x:?}");
                    assert_eq!(v, x[0], "validity");
                }
                // The round-1 receiver decides at round ≤ 1.
                let receiver = if word.starts_with("->") { 1 } else { 0 };
                assert!(exec.decision_of(receiver).unwrap().0 <= 1);
            }
            for x in [[0, 1], [1, 0]] {
                let exec = engine::run(&alg, &x, &GraphSeq::parse2(word).unwrap());
                for p in 0..2 {
                    let (round, _) = exec.decision_of(p).unwrap();
                    assert!(round <= 3, "must decide within depth");
                }
            }
        }
    }

    #[test]
    fn agrees_with_direction_rule_where_forced() {
        // Both algorithms solve {←, →}; their values must coincide wherever
        // the topology forces the decision — i.e. whenever the run is
        // connected to a valent run. The run (v, v̄) with round 1 delivering
        // p's input to the other process is view-connected to (v, v):
        // the round-1 *receiver* cannot distinguish them later when the
        // sender keeps sending, so compare on constant-direction sequences.
        let space = reduced_space(2);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        for (word, sender) in [("-> ->", 0usize), ("<- <-", 1usize)] {
            let seq = GraphSeq::parse2(word).unwrap();
            for x in [[0u32, 1], [1, 0]] {
                let ours = engine::run(&alg, &x, &seq).consensus_value().unwrap();
                let baseline = engine::run(&simulator::algorithms::DirectionRule, &x, &seq)
                    .consensus_value()
                    .unwrap();
                assert_eq!(baseline, x[sender]);
                assert_eq!(ours, baseline, "{word} {x:?}");
            }
        }
    }

    #[test]
    fn beyond_horizon_keeps_decision() {
        let space = reduced_space(1);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        // Run for 4 rounds, far past the synthesis depth.
        let exec = engine::run(&alg, &[0, 1], &GraphSeq::parse2("-> <- -> <-").unwrap());
        assert!(exec.all_decided());
        assert!(!exec.any_revoked());
        assert!(exec.agreement_holds());
    }

    #[test]
    fn validity_on_valent_inputs() {
        let space = reduced_space(1);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        for v in [0u32, 1] {
            for word in ["->", "<-"] {
                let exec = engine::run(&alg, &[v, v], &GraphSeq::parse2(word).unwrap());
                assert_eq!(exec.consensus_value(), Some(v));
            }
        }
    }

    #[test]
    fn table_size_positive() {
        let space = reduced_space(1);
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        assert!(alg.table_size() > 0);
        assert_eq!(alg.decision_depth(), 1);
    }

    /// The `(process, view)` bucket map the dense table replaced — the
    /// oracle for `decision_table` and `table_size`.
    fn bucket_map_table(space: &PrefixSpace, assignment: &[Value]) -> Vec<(Pid, ViewId, Value)> {
        use std::collections::hash_map::{Entry, HashMap};
        let mut buckets: HashMap<(Pid, ViewId), Option<Value>> = HashMap::new();
        for (i, run) in space.runs().iter().enumerate() {
            let value = assignment[space.components().component_of(i)];
            for s in 0..=space.depth() {
                for p in 0..run.n() {
                    match buckets.entry((p, run.view(p, s))) {
                        Entry::Vacant(e) => {
                            e.insert(Some(value));
                        }
                        Entry::Occupied(mut e) => {
                            if *e.get() != Some(value) {
                                *e.get_mut() = None;
                            }
                        }
                    }
                }
            }
        }
        let mut table: Vec<(Pid, ViewId, Value)> =
            buckets.into_iter().filter_map(|((p, view), v)| Some((p, view, v?))).collect();
        table.sort_unstable();
        table
    }

    #[test]
    fn dense_table_matches_bucket_map_on_catalog() {
        let mut compared = 0;
        for entry in adversary::catalog::entries() {
            let ma = entry.build();
            for depth in 1..=4 {
                let space = PrefixSpace::expand(&*ma, &[0, 1], depth, &CFG).unwrap();
                let syntheses = [
                    (space.component_assignment(), UniversalAlgorithm::synthesize(&space)),
                    (
                        space.strong_component_assignment(),
                        UniversalAlgorithm::synthesize_strong(&space),
                    ),
                ];
                for (assignment, alg) in syntheses {
                    let (Some(assignment), Some(alg)) = (assignment, alg) else {
                        continue;
                    };
                    let at = format!("{}@{depth}", entry.name);
                    let oracle = bucket_map_table(&space, &assignment);
                    assert_eq!(alg.decision_table(), oracle, "{at}");
                    assert_eq!(alg.table_size(), oracle.len(), "{at}");
                    for &(p, view, v) in &oracle {
                        for q in 0..space.n() {
                            assert_eq!(alg.bucket_decision(q, view), (q == p).then_some(v), "{at}");
                        }
                    }
                    // Views interned past the horizon have no entry.
                    let seq = &adversary::enumerate::admissible_sequences(&*ma, depth + 1)[0];
                    let exec = engine::run(&alg, space.runs()[0].inputs(), seq);
                    for (p, state) in exec.states[depth + 1].iter().enumerate() {
                        assert!(state.view.index() >= space.table().len(), "{at}");
                        assert_eq!(alg.bucket_decision(p, state.view), None, "{at}");
                    }
                    compared += 1;
                }
            }
        }
        // The solvable entries, from their separating depth on, twice each.
        assert!(compared >= 30, "only {compared} syntheses compared");
    }

    #[test]
    fn strong_validity_synthesis_ternary() {
        // With ternary inputs the weak default (0) may be nobody's input on
        // an unlabeled component; the strong synthesis picks from the
        // intersection instead, and passes the strong-validity checker.
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space =
            PrefixSpace::expand(&ma, &[0, 1, 2], 2, &ExpandConfig::with_budget(4_000_000)).unwrap();
        let strong_cfg =
            checker::CheckConfig::at_depth(2).max_runs(4_000_000).strong_validity(true);
        let strong = UniversalAlgorithm::synthesize_strong(&space).unwrap();
        let report = checker::check(&strong, &ma, &[0, 1, 2], &strong_cfg).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);

        // The weak synthesis, by contrast, violates strong validity on some
        // mixed-input run (it defaults unlabeled components to value 0).
        let weak = UniversalAlgorithm::synthesize(&space).unwrap();
        let report = checker::check(&weak, &ma, &[0, 1, 2], &strong_cfg).unwrap();
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, simulator::checker::Violation::StrongValidity { .. })),
            "expected a strong-validity violation from the weak default: {:?}",
            report.violations
        );
    }

    #[test]
    fn strong_and_weak_agree_on_binary() {
        // On a binary domain every run's input set contains the weak
        // default or the component is pure — the two syntheses coincide.
        let space = reduced_space(2);
        let weak = UniversalAlgorithm::synthesize(&space).unwrap();
        let strong = UniversalAlgorithm::synthesize_strong(&space).unwrap();
        for word in ["-> <-", "<- ->"] {
            let seq = GraphSeq::parse2(word).unwrap();
            for x in [[0u32, 1], [1, 0], [1, 1], [0, 0]] {
                assert_eq!(
                    engine::run(&weak, &x, &seq).consensus_value(),
                    engine::run(&strong, &x, &seq).consensus_value()
                );
            }
        }
    }

    #[test]
    fn star_adversary_n3() {
        // Oblivious out-stars on 3 processes: round-1 center is common
        // knowledge → solvable; universal algorithm verifies exhaustively.
        let ma = GeneralMA::oblivious(generators::all_out_stars(3));
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        assert!(space.separation().is_separated());
        let alg = UniversalAlgorithm::synthesize(&space).unwrap();
        let report =
            checker::check(&alg, &ma, &[0, 1], &checker::CheckConfig::at_depth(2)).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
    }
}
