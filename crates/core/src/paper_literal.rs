//! Paper-literal reference implementations, kept as test oracles for the
//! fast paths over every catalog adversary at depths 0–3:
//!
//! * [`components_by_ball_bfs`], Definition 6.2 taken literally (the
//!   iterated ε-ball BFS), against the union-find components of
//!   [`PrefixSpace::components`];
//! * [`FullDepthAlgorithm`], the universal algorithm deciding only at the
//!   synthesis depth, against the early-deciding
//!   [`UniversalAlgorithm`](crate::universal::UniversalAlgorithm): the
//!   same decision values, never a later decision round for the latter.

use std::collections::HashMap;
use std::sync::Mutex;

use dyngraph::Pid;
use ptgraph::{Value, ViewId};
use simulator::{engine, Algorithm};
use topology::epsilon::BucketSpace;

use crate::config::ExpandConfig;
use crate::space::PrefixSpace;
use crate::universal::UniversalAlgorithm;

/// Components via the literal Definition 6.2 ball BFS: for each run, its
/// component id (ids numbered by first seed).
fn components_by_ball_bfs(space: &PrefixSpace) -> Vec<usize> {
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
/// consult the decision table at the synthesis depth only, never earlier.
#[derive(Debug)]
struct FullDepthAlgorithm {
    table: Mutex<ptgraph::ViewTable>,
    decisions: HashMap<(Pid, ViewId), Value>,
    depth: usize,
}

impl FullDepthAlgorithm {
    /// Synthesize from a separated space; `None` otherwise.
    fn synthesize(space: &PrefixSpace) -> Option<Self> {
        Some(FullDepthAlgorithm {
            table: Mutex::new(space.table().clone()),
            decisions: space.decision_views()?,
            depth: space.depth(),
        })
    }
}

/// State of [`FullDepthAlgorithm`]: the current view, the rounds elapsed
/// and the decision once taken.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FullDepthState {
    view: ViewId,
    round: usize,
    decided: Option<Value>,
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

/// Every catalog adversary's binary-input prefix space at depths 0–3.
fn catalog_spaces() -> Vec<(String, PrefixSpace)> {
    let cfg = ExpandConfig::with_budget(1_000_000);
    let mut spaces = Vec::new();
    for entry in adversary::catalog::entries() {
        let ma = entry.build();
        for depth in 0..=3 {
            let space = PrefixSpace::expand(&*ma, &[0, 1], depth, &cfg)
                .unwrap_or_else(|e| panic!("{} at depth {depth}: {e}", entry.name));
            spaces.push((format!("{} at depth {depth}", entry.name), space));
        }
    }
    spaces
}

#[test]
fn ball_bfs_matches_union_find() {
    let mut split = 0;
    for (name, space) in catalog_spaces() {
        let bfs = components_by_ball_bfs(&space);
        let components = space.components();
        // The two labelings are the same partition: each maps to the
        // other as a function.
        let mut bfs_to_uf = HashMap::new();
        let mut uf_to_bfs = HashMap::new();
        for (i, &b) in bfs.iter().enumerate() {
            let c = components.component_of(i);
            assert_eq!(*bfs_to_uf.entry(b).or_insert(c), c, "{name}: run {i}");
            assert_eq!(*uf_to_bfs.entry(c).or_insert(b), b, "{name}: run {i}");
        }
        split += usize::from(components.count() > 1);
    }
    assert!(split > 0, "some catalog space must have several components");
}

#[test]
fn full_depth_algorithm_decides_the_same_values_never_earlier() {
    let mut separated = 0;
    for (name, space) in catalog_spaces() {
        let early = UniversalAlgorithm::synthesize(&space);
        let late = FullDepthAlgorithm::synthesize(&space);
        assert_eq!(early.is_some(), late.is_some(), "{name}: both need a separated space");
        let (Some(early), Some(late)) = (early, late) else {
            continue;
        };
        separated += 1;
        for run in space.runs() {
            let e = engine::run(&early, run.inputs(), run.seq());
            let l = engine::run(&late, run.inputs(), run.seq());
            for p in 0..run.n() {
                let (early_round, early_value) = e.decision_of(p).expect("decides");
                let (late_round, late_value) = l.decision_of(p).expect("decides");
                assert_eq!(early_value, late_value, "{name}: process {p}");
                assert_eq!(late_round, space.depth(), "{name}: process {p}");
                assert!(early_round <= late_round, "{name}: process {p}");
            }
        }
    }
    assert!(separated > 0, "some catalog space must be separated");
}
