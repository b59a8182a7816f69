//! Runs: input assignment + graph sequence, with interned views.

use std::fmt;
use std::sync::Arc;

use dyngraph::{influence::InfluenceTracker, Digraph, GraphSeq, Lasso, Pid, Round};

use crate::{Inputs, Value, ViewId, ViewTable};

/// A finite run: an input assignment together with a graph-sequence prefix,
/// plus every process's interned view at every time `0 ≤ t ≤ T`.
///
/// This is the finite shadow of a point of the paper's space `PT^ω`: the
/// depth-`T` prefix determines every distance value `≥ 2^{−T}` (§4).
///
/// The sequence and the inputs are shared, not owned: an expansion holds
/// each admissible sequence once and hands every run over it a reference
/// to that copy, and every run with the same input assignment shares one
/// inputs slice. Only the views are per run. Equality compares contents,
/// so sharing is invisible to [`PartialEq`].
///
/// ```
/// use dyngraph::GraphSeq;
/// use ptgraph::{PrefixRun, ViewTable};
///
/// let mut table = ViewTable::new(2);
/// let seq = GraphSeq::parse2("-> <-").unwrap();
/// let run = PrefixRun::compute(vec![0, 1], seq, &mut table);
/// // After round 1 (→), process 1 knows x_0.
/// assert_eq!(table.data(run.view(1, 1)).input_of(0), Some(0));
/// // Process 0 learns x_1 only in round 2 (←).
/// assert_eq!(table.data(run.view(0, 1)).input_of(1), None);
/// assert_eq!(table.data(run.view(0, 2)).input_of(1), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PrefixRun {
    inputs: Arc<[Value]>,
    seq: Arc<GraphSeq>,
    /// Every view, by time and then process: entry `t·n + p` is the view
    /// of `p` at time `t`, for `0 ≤ t ≤ seq.rounds()`.
    views: Vec<ViewId>,
}

impl PrefixRun {
    /// Compute the run of `inputs` under `seq`, interning views in `table`.
    /// Passing an `Arc` shares the caller's copy instead of moving a new
    /// one in.
    ///
    /// # Panics
    /// Panics if `inputs.len()` disagrees with `table.n()` or with the
    /// graphs of `seq`.
    pub fn compute(
        inputs: impl Into<Arc<[Value]>>,
        seq: impl Into<Arc<GraphSeq>>,
        table: &mut ViewTable,
    ) -> Self {
        let (inputs, seq) = (inputs.into(), seq.into());
        let n = table.n();
        assert_eq!(inputs.len(), n, "inputs must cover every process");
        if let Some(m) = seq.n() {
            assert_eq!(m, n, "sequence and table disagree on n");
        }
        let mut views = Vec::with_capacity((seq.rounds() + 1) * n);
        views.extend((0..n).map(|p| table.intern_initial(p, inputs[p])));
        for t in 1..=seq.rounds() {
            push_round(&mut views, n, seq.graph(t), table);
        }
        PrefixRun { inputs, seq, views }
    }

    /// The input assignment.
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// The graph-sequence prefix.
    pub fn seq(&self) -> &GraphSeq {
        &self.seq
    }

    /// Whether `other` runs under an equal sequence: one pointer
    /// comparison when the two share it, as runs of one expansion do.
    pub fn same_seq(&self, other: &PrefixRun) -> bool {
        Arc::ptr_eq(&self.seq, &other.seq) || self.seq == other.seq
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// Number of rounds `T` of the prefix.
    pub fn rounds(&self) -> usize {
        self.seq.rounds()
    }

    /// The interned view of `p` at time `t` (`0 ≤ t ≤ rounds()`).
    ///
    /// # Panics
    /// Panics if `p` or `t` is out of range.
    pub fn view(&self, p: Pid, t: usize) -> ViewId {
        assert!(p < self.n() && t <= self.rounds(), "no view of p{p} at time {t}");
        self.views[t * self.n() + p]
    }

    /// All views at time `t`, indexed by process.
    ///
    /// # Panics
    /// Panics if `t > rounds()`.
    pub fn views_at(&self, t: usize) -> &[ViewId] {
        assert!(t <= self.rounds(), "no views at time {t}");
        &self.views[t * self.n()..][..self.n()]
    }

    /// Whether this run is `v`-valent: every process starts with `v`.
    pub fn is_valent(&self, v: Value) -> bool {
        self.inputs.iter().all(|&x| x == v)
    }

    /// The earliest time by which **every** process has `p`'s initial value
    /// in its view — `p`'s broadcast completion `T(a)` (paper Def. 5.8) —
    /// or `None` within this prefix.
    pub fn broadcast_complete(&self, p: Pid, table: &ViewTable) -> Option<Round> {
        (0..=self.rounds())
            .find(|&t| (0..self.n()).all(|q| table.data(self.view(q, t)).has_heard(p)))
    }

    /// Extend the run by one round to `seq`, this run's sequence followed
    /// by one more graph. The new run shares `seq` and this run's inputs.
    ///
    /// # Panics
    /// Panics if `seq` is not one round longer than this run's sequence,
    /// or on mismatched `n`; debug builds also check that it extends it.
    pub fn extended(&self, seq: Arc<GraphSeq>, table: &mut ViewTable) -> Self {
        let n = self.n();
        assert_eq!(seq.rounds(), self.rounds() + 1, "an extension adds exactly one round");
        debug_assert!(self.seq.is_prefix_of(&seq), "{seq} does not extend {}", self.seq);
        let g = seq.graph(seq.rounds());
        assert_eq!(g.n(), n);
        let mut views = Vec::with_capacity(self.views.len() + n);
        views.extend_from_slice(&self.views);
        push_round(&mut views, n, g, table);
        PrefixRun { inputs: Arc::clone(&self.inputs), seq, views }
    }
}

/// Intern the views of the round with graph `g` after the last `n` views of
/// `views`, and append them.
fn push_round(views: &mut Vec<ViewId>, n: usize, g: &Digraph, table: &mut ViewTable) {
    let last = views.len() - n;
    for q in 0..n {
        let prev = &views[last..];
        let view = table.intern_round(q, prev[q], g.in_neighbors(q).map(|p| (p, prev[p])));
        views.push(view);
    }
}

impl fmt::Debug for PrefixRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run(x={:?}, σ={})", self.inputs, self.seq)
    }
}

impl fmt::Display for PrefixRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x={:?} under {}", self.inputs, self.seq)
    }
}

/// An infinite run: an input assignment with an ultimately periodic
/// ([`Lasso`]) graph sequence.
///
/// Infinite runs are exact points of `PT^ω`; the zero-distance structure
/// between them is decided by [`crate::contamination`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InfiniteRun {
    inputs: Inputs,
    lasso: Lasso,
}

impl InfiniteRun {
    /// Build from inputs and a lasso sequence.
    ///
    /// # Panics
    /// Panics if `inputs.len() != lasso.n()`.
    pub fn new(inputs: Inputs, lasso: Lasso) -> Self {
        assert_eq!(inputs.len(), lasso.n(), "inputs must cover every process");
        InfiniteRun { inputs, lasso }
    }

    /// The input assignment.
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// The lasso graph sequence.
    pub fn lasso(&self) -> &Lasso {
        &self.lasso
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// Whether every process starts with `v`.
    pub fn is_valent(&self, v: Value) -> bool {
        self.inputs.iter().all(|&x| x == v)
    }

    /// The depth-`t` finite shadow of this run.
    pub fn prefix(&self, t: usize, table: &mut ViewTable) -> PrefixRun {
        PrefixRun::compute(self.inputs.as_slice(), self.lasso.unroll(t), table)
    }

    /// The earliest round by which `p` has broadcast, decided exactly over
    /// the infinite sequence (`None` = never).
    pub fn broadcast_round(&self, p: Pid) -> Option<Round> {
        if self.n() == 1 {
            return Some(0);
        }
        self.lasso.broadcast_round(p)
    }

    /// The set of processes that broadcast in this run (ever).
    pub fn broadcasters(&self) -> Vec<Pid> {
        (0..self.n()).filter(|&p| self.broadcast_round(p).is_some()).collect()
    }

    /// The influence tracker advanced `t` rounds along this run.
    pub fn influence_at(&self, t: usize) -> InfluenceTracker {
        let mut tr = InfluenceTracker::new(self.n());
        for r in 1..=t {
            tr.step(self.lasso.graph_at(r));
        }
        tr
    }
}

impl fmt::Debug for InfiniteRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InfiniteRun(x={:?}, σ={})", self.inputs, self.lasso)
    }
}

impl fmt::Display for InfiniteRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x={:?} under {}", self.inputs, self.lasso)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2() -> ViewTable {
        ViewTable::new(2)
    }

    #[test]
    fn views_deterministic_and_shared() {
        let mut t = table2();
        let seq = GraphSeq::parse2("-> <-").unwrap();
        let a = PrefixRun::compute(vec![0, 1], seq.clone(), &mut t);
        let b = PrefixRun::compute(vec![0, 1], seq, &mut t);
        for time in 0..=2 {
            assert_eq!(a.views_at(time), b.views_at(time));
        }
    }

    #[test]
    fn same_view_iff_indistinguishable() {
        let mut t = table2();
        // Under →^2, p0 never hears p1: its views agree across x_1 ∈ {0, 1}.
        let seq = GraphSeq::parse2("-> ->").unwrap();
        let a = PrefixRun::compute(vec![0, 0], seq.clone(), &mut t);
        let b = PrefixRun::compute(vec![0, 1], seq, &mut t);
        assert_eq!(a.view(0, 2), b.view(0, 2));
        // p1 received x_0 both times but its own input differs.
        assert_ne!(a.view(1, 1), b.view(1, 1));
    }

    #[test]
    fn graph_difference_contaminates_receiver() {
        let mut t = table2();
        let a = PrefixRun::compute(vec![0, 1], GraphSeq::parse2("->").unwrap(), &mut t);
        let b = PrefixRun::compute(vec![0, 1], GraphSeq::parse2(".").unwrap(), &mut t);
        // p1 received in a but not in b.
        assert_ne!(a.view(1, 1), b.view(1, 1));
        // p0 sent in both (sending is invisible): views equal.
        assert_eq!(a.view(0, 1), b.view(0, 1));
    }

    #[test]
    fn broadcast_complete_matches_influence() {
        let mut t = ViewTable::new(3);
        let g1 = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = Digraph::from_edges(3, &[(1, 2)]).unwrap();
        let seq = GraphSeq::from_graphs(vec![g1, g2]);
        let run = PrefixRun::compute(vec![5, 6, 7], seq.clone(), &mut t);
        assert_eq!(run.broadcast_complete(0, &t), Some(2));
        assert_eq!(run.broadcast_complete(1, &t), None);
        assert_eq!(seq.broadcast_round(0), Some(2));
    }

    #[test]
    fn extended_matches_recompute() {
        let mut t = table2();
        let seq = GraphSeq::parse2("->").unwrap();
        let run = PrefixRun::compute(vec![1, 0], seq.clone(), &mut t);
        let longer = Arc::new(seq.extended(Digraph::parse2("<-").unwrap()));
        let ext = run.extended(Arc::clone(&longer), &mut t);
        let direct = PrefixRun::compute(vec![1, 0], longer, &mut t);
        assert_eq!(ext.views_at(2), direct.views_at(2));
        assert_eq!(ext.seq(), direct.seq());
        // The extension shares the run's inputs; equality ignores sharing.
        assert!(std::ptr::eq(ext.inputs(), run.inputs()));
        assert_eq!(ext, direct);
    }

    #[test]
    fn extended_matches_recompute_n3() {
        let mut t = ViewTable::new(3);
        let graphs = [
            Digraph::from_edges(3, &[(0, 1), (2, 0)]).unwrap(),
            Digraph::from_edges(3, &[(1, 2), (1, 0)]).unwrap(),
            Digraph::from_edges(3, &[(2, 1), (0, 2), (1, 0)]).unwrap(),
        ];
        let mut run = PrefixRun::compute(vec![0, 1, 1], GraphSeq::new(), &mut t);
        for i in 0..graphs.len() {
            let seq = GraphSeq::from_graphs(graphs[..=i].to_vec());
            run = run.extended(Arc::new(seq.clone()), &mut t);
            assert_eq!(run, PrefixRun::compute(vec![0, 1, 1], seq, &mut t), "round {}", i + 1);
        }
        assert_eq!(t.data(run.view(2, 3)).heard, 0b111);
    }

    /// A run over `->` with `n = 2`: views at times 0 and 1.
    fn one_round() -> PrefixRun {
        PrefixRun::compute(vec![0, 1], GraphSeq::parse2("->").unwrap(), &mut table2())
    }

    #[test]
    #[should_panic(expected = "no view of p2 at time 0")]
    fn view_rejects_process_out_of_range() {
        // Flat storage would otherwise read p0's view at time 1.
        one_round().view(2, 0);
    }

    #[test]
    #[should_panic(expected = "no view of p0 at time 2")]
    fn view_rejects_time_past_horizon() {
        one_round().view(0, 2);
    }

    #[test]
    #[should_panic(expected = "no views at time 2")]
    fn views_at_rejects_time_past_horizon() {
        one_round().views_at(2);
    }

    #[test]
    fn valence() {
        let mut t = table2();
        let seq = GraphSeq::parse2("->").unwrap();
        assert!(PrefixRun::compute(vec![1, 1], seq.clone(), &mut t).is_valent(1));
        assert!(!PrefixRun::compute(vec![1, 0], seq, &mut t).is_valent(1));
    }

    #[test]
    fn infinite_run_prefix_consistency() {
        let mut t = table2();
        let run = InfiniteRun::new(vec![0, 1], Lasso::parse2("-> | <-").unwrap());
        let p3 = run.prefix(3, &mut t);
        let p5 = run.prefix(5, &mut t);
        for time in 0..=3 {
            assert_eq!(p3.views_at(time), p5.views_at(time));
        }
    }

    #[test]
    fn infinite_run_broadcasters() {
        // →^ω: only p0 broadcasts.
        let run = InfiniteRun::new(vec![0, 1], Lasso::constant(Digraph::parse2("->").unwrap()));
        assert_eq!(run.broadcasters(), vec![0]);
        // → then ←^ω: both broadcast.
        let run = InfiniteRun::new(vec![0, 1], Lasso::parse2("-> | <-").unwrap());
        assert_eq!(run.broadcasters(), vec![0, 1]);
        assert_eq!(run.broadcast_round(1), Some(2));
    }

    #[test]
    fn single_process_always_broadcasts() {
        let run = InfiniteRun::new(vec![3], Lasso::constant(Digraph::empty(1)));
        assert_eq!(run.broadcast_round(0), Some(0));
    }
}
