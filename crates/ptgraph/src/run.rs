//! Runs: input assignment + graph sequence, with views by arithmetic.

use std::fmt;
use std::sync::Arc;

use dyngraph::{influence::InfluenceTracker, mask, Digraph, GraphSeq, Lasso, Pid, PidMask, Round};

use crate::view::{Cell, Radix};
use crate::{Inputs, Labels, Value, ViewId, ViewTable};

/// The input-independent half of every run over one graph sequence: the
/// sequence and, for every process at every time `0 ≤ t ≤ T`, the shape of
/// its view with that shape's first id and `heard` set.
///
/// Every input assignment's run over the sequence shares one row, so each
/// shape is interned once per sequence, not once per assignment. Rows are
/// tied to the [`ViewTable`] that interned their shapes.
#[derive(Clone, PartialEq, Eq)]
pub struct ShapeRow {
    seq: GraphSeq,
    /// Entry `t·n + p` is the cell of `p`'s view at time `t`.
    cells: Box<[Cell]>,
}

impl ShapeRow {
    /// The row of `seq`, interning its shapes in `table`.
    ///
    /// # Panics
    /// Panics if the graphs of `seq` disagree with `table.n()`.
    pub fn compute(seq: GraphSeq, table: &mut ViewTable) -> Self {
        let n = table.n();
        let mut cells = Vec::with_capacity((seq.rounds() + 1) * n);
        cells.extend((0..n).map(|p| {
            let shape = table.initial_shape(p);
            table.cell(shape)
        }));
        Self::finish(cells, seq, table)
    }

    /// The row of `seq`, copying this row's cells for the rounds the two
    /// sequences share and interning the rest: a sibling's row costs its
    /// last round, as an extension's does.
    ///
    /// # Panics
    /// Panics if the graphs of `seq` disagree with the row's `n`.
    pub fn resumed(&self, seq: GraphSeq, table: &mut ViewTable) -> Self {
        let shared = self.seq.iter().zip(seq.iter()).take_while(|(a, b)| a == b).count();
        let mut cells = Vec::with_capacity((seq.rounds() + 1) * self.n());
        cells.extend_from_slice(&self.cells[..(shared + 1) * self.n()]);
        Self::finish(cells, seq, table)
    }

    /// The row of `seq`, this row's sequence followed by one more graph.
    ///
    /// # Panics
    /// Panics if `seq` is not one round longer than this row's sequence,
    /// or on mismatched `n`; debug builds also check that it extends it.
    pub fn extended(&self, seq: GraphSeq, table: &mut ViewTable) -> Self {
        assert_eq!(seq.rounds(), self.rounds() + 1, "an extension adds exactly one round");
        debug_assert!(self.seq.is_prefix_of(&seq), "{seq} does not extend {}", self.seq);
        let mut cells = Vec::with_capacity(self.cells.len() + self.n());
        cells.extend_from_slice(&self.cells);
        Self::finish(cells, seq, table)
    }

    /// Intern the rounds of `seq` past the last complete round of `cells`.
    fn finish(mut cells: Vec<Cell>, seq: GraphSeq, table: &mut ViewTable) -> Self {
        let n = table.n();
        for t in cells.len() / n..=seq.rounds() {
            let g = seq.graph(t);
            assert_eq!(g.n(), n, "sequence and table disagree on n");
            push_round(&mut cells, n, g, table);
        }
        ShapeRow { seq, cells: cells.into_boxed_slice() }
    }

    /// The graph-sequence prefix.
    pub fn seq(&self) -> &GraphSeq {
        &self.seq
    }

    /// Number of rounds `T` of the prefix.
    pub fn rounds(&self) -> usize {
        self.seq.rounds()
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cells.len() / (self.rounds() + 1)
    }

    /// The cells at time `t`, for a row of `n` processes.
    fn cells_at(&self, n: usize, t: usize) -> &[Cell] {
        self.cells
            .get(t * n..(t + 1) * n)
            .unwrap_or_else(|| panic!("no views at time {t}"))
    }

    /// The cell of `p` at time `t`, for a row of `n` processes.
    fn cell(&self, n: usize, p: Pid, t: usize) -> &Cell {
        assert!(p < n && t <= self.rounds(), "no view of p{p} at time {t}");
        &self.cells[t * n + p]
    }
}

/// Intern the shapes of the round with graph `g` after the last `n` cells
/// of `cells`, and append them.
fn push_round(cells: &mut Vec<Cell>, n: usize, g: &Digraph, table: &mut ViewTable) {
    let last = cells.len() - n;
    for q in 0..n {
        let prev = &cells[last..];
        let shape =
            table.round_shape(q, prev[q].shape, g.in_neighbors(q).map(|p| (p, prev[p].shape)));
        cells.push(table.cell(shape));
    }
}

/// An input assignment with its labels in one table's domain.
#[derive(Debug, PartialEq, Eq)]
struct Assignment {
    values: Box<[Value]>,
    labels: Labels,
    radix: Radix,
    /// `ranks[h]`: the rank of the inputs on the heard set `h`, for every
    /// `h` when there are at most [`RANKED_N`] processes, else empty.
    ranks: Box<[u64]>,
}

/// Assignments of up to this many processes keep the rank of every heard
/// set: at most 256 of them, so a view id is one table read.
const RANKED_N: usize = 8;

impl Assignment {
    fn new(values: Box<[Value]>, table: &ViewTable) -> Self {
        let (labels, radix) = (table.labels(&values), table.radix());
        let sets = if values.len() <= RANKED_N {
            1 << values.len()
        } else {
            0
        };
        let ranks = (0..sets).map(|heard| radix.rank(heard, labels)).collect();
        Assignment { values, labels, radix, ranks }
    }

    /// The rank of the inputs on `heard`.
    fn rank(&self, heard: PidMask) -> u64 {
        match self.ranks.get(heard as usize) {
            Some(&rank) => rank,
            None => self.radix.rank(heard, self.labels),
        }
    }
}

/// A finite run: an input assignment together with a graph-sequence prefix,
/// plus every process's interned view at every time `0 ≤ t ≤ T`.
///
/// This is the finite shadow of a point of the paper's space `PT^ω`: the
/// depth-`T` prefix determines every distance value `≥ 2^{−T}` (§4).
///
/// A run owns no views. It holds two shared handles: its input assignment
/// (with the assignment's labels) and the [`ShapeRow`] of its sequence,
/// which every assignment's run over that sequence shares. The view of `p`
/// at time `t` is arithmetic: the row cell's first id plus the rank of the
/// inputs on the cell's `heard` set. Equality compares contents, so
/// sharing is invisible to [`PartialEq`].
///
/// ```
/// use dyngraph::GraphSeq;
/// use ptgraph::{PrefixRun, ViewTable};
///
/// let mut table = ViewTable::new(2, &[0, 1]);
/// let seq = GraphSeq::parse2("-> <-").unwrap();
/// let run = PrefixRun::compute(&[0, 1], seq, &mut table);
/// // After round 1 (→), process 1 knows x_0.
/// assert_eq!(table.data(run.view(1, 1)).input_of(0), Some(0));
/// // Process 0 learns x_1 only in round 2 (←).
/// assert_eq!(table.data(run.view(0, 1)).input_of(1), None);
/// assert_eq!(table.data(run.view(0, 2)).input_of(1), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PrefixRun {
    inputs: Arc<Assignment>,
    row: Arc<ShapeRow>,
}

impl PrefixRun {
    /// Compute the run of `inputs` under `seq`, interning its shapes in
    /// `table`.
    ///
    /// # Panics
    /// Panics if `inputs.len()` disagrees with `table.n()` or with the
    /// graphs of `seq`, or if an input is outside the table's domain.
    pub fn compute(inputs: impl AsRef<[Value]>, seq: GraphSeq, table: &mut ViewTable) -> Self {
        let row = Arc::new(ShapeRow::compute(seq, table));
        Self::new(inputs, row, table)
    }

    /// The run of `inputs` over a row of `table`.
    ///
    /// # Panics
    /// Panics if `inputs.len()` disagrees with the row's or the table's
    /// `n`, or if an input is outside the table's domain.
    pub fn new(inputs: impl AsRef<[Value]>, row: Arc<ShapeRow>, table: &ViewTable) -> Self {
        let values: Box<[Value]> = inputs.as_ref().into();
        assert_eq!(values.len(), table.n(), "inputs must cover every process");
        assert_eq!(row.n(), table.n(), "row and table disagree on n");
        PrefixRun { inputs: Arc::new(Assignment::new(values, table)), row }
    }

    /// The run of these inputs over another row of the same table; the two
    /// runs share the inputs.
    ///
    /// # Panics
    /// Panics if the row's `n` differs from this run's.
    pub fn with_row(&self, row: Arc<ShapeRow>) -> Self {
        assert_eq!(row.n(), self.n(), "row and inputs disagree on n");
        PrefixRun { inputs: Arc::clone(&self.inputs), row }
    }

    /// The input assignment.
    pub fn inputs(&self) -> &[Value] {
        &self.inputs.values
    }

    /// The shared row of the run's sequence.
    pub fn row(&self) -> &Arc<ShapeRow> {
        &self.row
    }

    /// The graph-sequence prefix.
    pub fn seq(&self) -> &GraphSeq {
        &self.row.seq
    }

    /// Whether `other` runs under an equal sequence: one pointer
    /// comparison when the two share a row, as runs of one expansion do.
    pub fn same_seq(&self, other: &PrefixRun) -> bool {
        Arc::ptr_eq(&self.row, &other.row) || self.row.seq == other.row.seq
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inputs.values.len()
    }

    /// Number of rounds `T` of the prefix.
    pub fn rounds(&self) -> usize {
        self.row.rounds()
    }

    /// The interned view of `p` at time `t` (`0 ≤ t ≤ rounds()`).
    ///
    /// # Panics
    /// Panics if `p` or `t` is out of range.
    pub fn view(&self, p: Pid, t: usize) -> ViewId {
        let cell = self.row.cell(self.n(), p, t);
        cell.view(self.inputs.rank(cell.heard))
    }

    /// All views at time `t`, by process.
    ///
    /// # Panics
    /// Panics if `t > rounds()`.
    pub fn views_at(&self, t: usize) -> impl ExactSizeIterator<Item = ViewId> + '_ {
        let inputs = &*self.inputs;
        let cells = self.row.cells_at(inputs.values.len(), t);
        cells.iter().map(|cell| cell.view(inputs.rank(cell.heard)))
    }

    /// Whether this run is `v`-valent: every process starts with `v`.
    pub fn is_valent(&self, v: Value) -> bool {
        self.inputs().iter().all(|&x| x == v)
    }

    /// The earliest time by which **every** process has `p`'s initial value
    /// in its view — `p`'s broadcast completion `T(a)` (paper Def. 5.8) —
    /// or `None` within this prefix. It reads only the row's `heard` sets.
    pub fn broadcast_complete(&self, p: Pid) -> Option<Round> {
        let n = self.n();
        (0..=self.rounds())
            .find(|&t| (0..n).all(|q| mask::contains(self.row.cell(n, q, t).heard, p)))
    }

    /// Extend the run by one round to `seq`, this run's sequence followed
    /// by one more graph. The new run shares this run's inputs.
    ///
    /// # Panics
    /// Panics if `seq` is not one round longer than this run's sequence,
    /// or on mismatched `n`; debug builds also check that it extends it.
    pub fn extended(&self, seq: GraphSeq, table: &mut ViewTable) -> Self {
        self.with_row(Arc::new(self.row.extended(seq, table)))
    }
}

impl fmt::Debug for PrefixRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run(x={:?}, σ={})", self.inputs(), self.seq())
    }
}

impl fmt::Display for PrefixRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x={:?} under {}", self.inputs(), self.seq())
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
        ViewTable::new(2, &[0, 1])
    }

    #[test]
    fn views_deterministic_and_shared() {
        let mut t = table2();
        let seq = GraphSeq::parse2("-> <-").unwrap();
        let a = PrefixRun::compute([0, 1], seq.clone(), &mut t);
        let b = PrefixRun::compute([0, 1], seq, &mut t);
        for time in 0..=2 {
            assert!(a.views_at(time).eq(b.views_at(time)));
        }
    }

    #[test]
    fn same_view_iff_indistinguishable() {
        let mut t = table2();
        // Under →^2, p0 never hears p1: its views agree across x_1 ∈ {0, 1}.
        let seq = GraphSeq::parse2("-> ->").unwrap();
        let a = PrefixRun::compute([0, 0], seq.clone(), &mut t);
        let b = PrefixRun::compute([0, 1], seq, &mut t);
        assert_eq!(a.view(0, 2), b.view(0, 2));
        // p1 received x_0 both times but its own input differs.
        assert_ne!(a.view(1, 1), b.view(1, 1));
    }

    #[test]
    fn graph_difference_contaminates_receiver() {
        let mut t = table2();
        let a = PrefixRun::compute([0, 1], GraphSeq::parse2("->").unwrap(), &mut t);
        let b = PrefixRun::compute([0, 1], GraphSeq::parse2(".").unwrap(), &mut t);
        // p1 received in a but not in b.
        assert_ne!(a.view(1, 1), b.view(1, 1));
        // p0 sent in both (sending is invisible): views equal.
        assert_eq!(a.view(0, 1), b.view(0, 1));
    }

    #[test]
    fn broadcast_complete_matches_influence() {
        let mut t = ViewTable::new(3, &[5, 6, 7]);
        let g1 = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = Digraph::from_edges(3, &[(1, 2)]).unwrap();
        let seq = GraphSeq::from_graphs(vec![g1, g2]);
        let run = PrefixRun::compute([5, 6, 7], seq.clone(), &mut t);
        assert_eq!(run.broadcast_complete(0), Some(2));
        assert_eq!(run.broadcast_complete(1), None);
        assert_eq!(seq.broadcast_round(0), Some(2));
    }

    #[test]
    fn extended_matches_recompute() {
        let mut t = table2();
        let seq = GraphSeq::parse2("->").unwrap();
        let run = PrefixRun::compute([1, 0], seq.clone(), &mut t);
        let longer = seq.extended(Digraph::parse2("<-").unwrap());
        let ext = run.extended(longer.clone(), &mut t);
        let direct = PrefixRun::compute([1, 0], longer, &mut t);
        assert!(ext.views_at(2).eq(direct.views_at(2)));
        assert_eq!(ext.seq(), direct.seq());
        // The extension shares the run's inputs; equality ignores sharing.
        assert!(std::ptr::eq(ext.inputs(), run.inputs()));
        assert_eq!(ext, direct);
    }

    #[test]
    fn extended_matches_recompute_n3() {
        let mut t = ViewTable::new(3, &[0, 1]);
        let graphs = [
            Digraph::from_edges(3, &[(0, 1), (2, 0)]).unwrap(),
            Digraph::from_edges(3, &[(1, 2), (1, 0)]).unwrap(),
            Digraph::from_edges(3, &[(2, 1), (0, 2), (1, 0)]).unwrap(),
        ];
        let mut run = PrefixRun::compute([0, 1, 1], GraphSeq::new(), &mut t);
        for i in 0..graphs.len() {
            let seq = GraphSeq::from_graphs(graphs[..=i].to_vec());
            run = run.extended(seq.clone(), &mut t);
            assert_eq!(run, PrefixRun::compute([0, 1, 1], seq, &mut t), "round {}", i + 1);
        }
        assert_eq!(t.data(run.view(2, 3)).heard, 0b111);
    }

    /// A run over `->` with `n = 2`: views at times 0 and 1.
    fn one_round() -> PrefixRun {
        PrefixRun::compute([0, 1], GraphSeq::parse2("->").unwrap(), &mut table2())
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
        let _ = one_round().views_at(2);
    }

    #[test]
    fn valence() {
        let mut t = table2();
        let seq = GraphSeq::parse2("->").unwrap();
        assert!(PrefixRun::compute([1, 1], seq.clone(), &mut t).is_valent(1));
        assert!(!PrefixRun::compute([1, 0], seq, &mut t).is_valent(1));
    }

    #[test]
    fn infinite_run_prefix_consistency() {
        let mut t = table2();
        let run = InfiniteRun::new(vec![0, 1], Lasso::parse2("-> | <-").unwrap());
        let p3 = run.prefix(3, &mut t);
        let p5 = run.prefix(5, &mut t);
        for time in 0..=3 {
            assert!(p3.views_at(time).eq(p5.views_at(time)));
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
