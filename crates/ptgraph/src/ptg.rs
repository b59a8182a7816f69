//! The explicit process-time graph of the paper's Section 3 (Fig. 2).
//!
//! [`PtGraph`] materializes the graph `PT^t`: nodes `(p, 0, x_p)` and
//! `(p, t)` for `t ≥ 1`, and an edge `(p, t−1) → (q, t)` iff `(p, q) ∈ G_t`.
//! The *view* of a process set `P` at time `t` is the sub-graph induced by
//! all nodes with a path to some `(p, t)`, `p ∈ P` — its causal past.
//!
//! For view computations the implicit self-edge `(p, t−1) → (p, t)` is
//! always present: a process carries its own state forward (the paper's
//! configurations evolve from the previous local state plus received
//! messages). The rendered figure omits those vertical edges when asked to
//! match the paper's drawing.

use std::collections::BTreeSet;
use std::fmt;

use dyngraph::{Digraph, GraphSeq, Pid, Round};
use serde::{Deserialize, Serialize};

use crate::{Inputs, Value};

/// A node `(p, t)` of a process-time graph; at `t = 0` it carries the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PtNode {
    /// The process.
    pub process: Pid,
    /// The time (0 = initial).
    pub time: Round,
}

impl fmt::Display for PtNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.process, self.time)
    }
}

/// The explicit process-time graph `PT^T` of a finite run.
///
/// ```
/// use ptgraph::{PtGraph};
/// use dyngraph::GraphSeq;
/// let pt = PtGraph::new(vec![0, 1], GraphSeq::parse2("-> <-").unwrap());
/// assert_eq!(pt.node_count(), 6);           // 2 processes × 3 times
/// assert!(pt.has_edge((0, 0), (1, 1)));     // round 1 is →
/// assert!(pt.has_edge((1, 1), (0, 2)));     // round 2 is ←
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtGraph {
    inputs: Inputs,
    seq: GraphSeq,
}

impl PtGraph {
    /// Build `PT^T` for the given inputs and graph-sequence prefix.
    ///
    /// # Panics
    /// Panics if the lengths disagree.
    pub fn new(inputs: Inputs, seq: GraphSeq) -> Self {
        if let Some(n) = seq.n() {
            assert_eq!(inputs.len(), n, "inputs must match the sequence's n");
        }
        assert!(!inputs.is_empty(), "need at least one process");
        PtGraph { inputs, seq }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// The final time `T`.
    pub fn t_max(&self) -> Round {
        self.seq.rounds()
    }

    /// The input assignment (values of the time-0 nodes).
    pub fn inputs(&self) -> &[Value] {
        &self.inputs
    }

    /// The underlying graph sequence.
    pub fn seq(&self) -> &GraphSeq {
        &self.seq
    }

    /// Total number of nodes `n · (T + 1)`.
    pub fn node_count(&self) -> usize {
        self.n() * (self.t_max() + 1)
    }

    /// All nodes in `(time, process)` order.
    pub fn nodes(&self) -> impl Iterator<Item = PtNode> + '_ {
        (0..=self.t_max())
            .flat_map(move |t| (0..self.n()).map(move |p| PtNode { process: p, time: t }))
    }

    /// Whether the *communication* edge `(p, t−1) → (q, t)` is present
    /// (`from = (p, t−1)`, `to = (q, t)`). Implicit self-edges are **not**
    /// reported here; see [`PtGraph::causal_past`].
    pub fn has_edge(&self, from: (Pid, Round), to: (Pid, Round)) -> bool {
        let ((p, s), (q, t)) = (from, to);
        t >= 1 && t <= self.t_max() && s + 1 == t && self.seq.graph(t).has_edge(p, q)
    }

    /// All communication edges, in round order.
    pub fn edges(&self) -> Vec<((Pid, Round), (Pid, Round))> {
        let mut out = Vec::new();
        for t in 1..=self.t_max() {
            for (p, q) in self.seq.graph(t).edges() {
                out.push(((p, t - 1), (q, t)));
            }
        }
        out
    }

    /// The causal past of the process set `P` at time `t`: all nodes
    /// `(q, s)` with a path (through communication edges **and** the
    /// implicit self-edges) to some `(p, t)`, `p ∈ P` — the paper's view
    /// `V_P(PT^t)` as a node set.
    ///
    /// # Panics
    /// Panics if `t > t_max()` or `P` contains an out-of-range pid.
    pub fn causal_past(&self, ps: &[Pid], t: Round) -> BTreeSet<(Pid, Round)> {
        assert!(t <= self.t_max(), "time out of range");
        let mut frontier: BTreeSet<Pid> = ps.iter().copied().collect();
        assert!(frontier.iter().all(|&p| p < self.n()), "pid out of range");
        let mut past: BTreeSet<(Pid, Round)> = frontier.iter().map(|&p| (p, t)).collect();
        for s in (1..=t).rev() {
            let g = self.seq.graph(s);
            let mut prev_frontier = BTreeSet::new();
            for &q in &frontier {
                prev_frontier.insert(q); // implicit self-edge
                for p in g.in_neighbors(q) {
                    prev_frontier.insert(p);
                }
            }
            for &p in &prev_frontier {
                past.insert((p, s - 1));
            }
            frontier = prev_frontier;
        }
        past
    }

    /// Graphviz DOT rendering; nodes in the view of `highlight` (if given)
    /// are drawn bold, mirroring the paper's Figure 2.
    pub fn to_dot(&self, name: &str, highlight: Option<(&[Pid], Round)>) -> String {
        use std::fmt::Write as _;
        let hl: BTreeSet<(Pid, Round)> = match highlight {
            Some((ps, t)) => self.causal_past(ps, t),
            None => BTreeSet::new(),
        };
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        let _ = writeln!(s, "  rankdir=TB;");
        for t in 0..=self.t_max() {
            let _ = writeln!(s, "  {{ rank=same;");
            for p in 0..self.n() {
                let label = if t == 0 {
                    format!("({}, 0, {})", p, self.inputs[p])
                } else {
                    format!("({p}, {t})")
                };
                let style = if hl.contains(&(p, t)) {
                    ", style=bold, color=green"
                } else {
                    ""
                };
                let _ = writeln!(s, "    n{p}_{t} [label=\"{label}\"{style}];");
            }
            let _ = writeln!(s, "  }}");
        }
        for ((p, s0), (q, t)) in self.edges() {
            let _ = writeln!(s, "  n{p}_{s0} -> n{q}_{t};");
        }
        s.push_str("}\n");
        s
    }

    /// A plain-text rendering: one line per time step plus the edge lists.
    pub fn render_ascii(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "t=0: ");
        for p in 0..self.n() {
            let _ = write!(s, "({p},0,{})  ", self.inputs[p]);
        }
        let _ = writeln!(s);
        for t in 1..=self.t_max() {
            let _ = write!(s, "t={t}: ");
            for p in 0..self.n() {
                let _ = write!(s, "({p},{t})  ");
            }
            let edges: Vec<String> = self
                .seq
                .graph(t)
                .edges()
                .map(|(p, q)| format!("({p},{})→({q},{t})", t - 1))
                .collect();
            let _ = writeln!(s, "   edges: {}", edges.join(", "));
        }
        s
    }
}

/// The paper's **Figure 2** process-time graph: `n = 3`, `t = 2`, inputs
/// `x = (1, 0, 1)`.
///
/// The arXiv source does not machine-readably encode the figure's edges; we
/// fix a representative choice (documented in DESIGN.md): round 1 delivers
/// `0 → 1` and `2 → 1`, round 2 delivers `1 → 0` and `1 → 2`, so that
/// process 0's view at time 2 spans all three initial values — matching the
/// figure's highlighted view structure.
pub fn fig2_example() -> PtGraph {
    let g1 = Digraph::from_edges(3, &[(0, 1), (2, 1)]).expect("static");
    let g2 = Digraph::from_edges(3, &[(1, 0), (1, 2)]).expect("static");
    PtGraph::new(vec![1, 0, 1], GraphSeq::from_graphs(vec![g1, g2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_and_edge_counts() {
        let pt = fig2_example();
        assert_eq!(pt.n(), 3);
        assert_eq!(pt.t_max(), 2);
        assert_eq!(pt.node_count(), 9);
        assert_eq!(pt.edges().len(), 4);
        assert_eq!(pt.nodes().count(), 9);
    }

    #[test]
    fn fig2_edges() {
        let pt = fig2_example();
        assert!(pt.has_edge((0, 0), (1, 1)));
        assert!(pt.has_edge((2, 0), (1, 1)));
        assert!(pt.has_edge((1, 1), (0, 2)));
        assert!(pt.has_edge((1, 1), (2, 2)));
        assert!(!pt.has_edge((0, 0), (2, 1)));
        assert!(!pt.has_edge((0, 0), (1, 2))); // edges span exactly one round
    }

    #[test]
    fn fig2_view_of_process_0() {
        let pt = fig2_example();
        let view = pt.causal_past(&[0], 2);
        // Own column.
        assert!(view.contains(&(0, 0)) && view.contains(&(0, 1)) && view.contains(&(0, 2)));
        // Heard from 1 at round 2, which heard 0 and 2 at round 1.
        assert!(view.contains(&(1, 1)) && view.contains(&(1, 0)));
        assert!(view.contains(&(2, 0)));
        // (2,1) and (2,2) have no path to (0,2).
        assert!(!view.contains(&(2, 1)));
        assert!(!view.contains(&(2, 2)));
        assert!(!view.contains(&(1, 2)));
    }

    #[test]
    fn causal_past_at_time_zero() {
        let pt = fig2_example();
        let view = pt.causal_past(&[1], 0);
        assert_eq!(view.len(), 1);
        assert!(view.contains(&(1, 0)));
    }

    #[test]
    fn causal_past_of_set_is_union() {
        let pt = fig2_example();
        let v0 = pt.causal_past(&[0], 2);
        let v2 = pt.causal_past(&[2], 2);
        let v02 = pt.causal_past(&[0, 2], 2);
        let union: BTreeSet<_> = v0.union(&v2).copied().collect();
        assert_eq!(v02, union);
    }

    #[test]
    fn view_matches_interner_knowledge() {
        // The node set of the causal past determines exactly which initial
        // values the interned view knows.
        let pt = fig2_example();
        let mut table = crate::ViewTable::new(3);
        let run = crate::PrefixRun::compute(pt.inputs(), pt.seq().clone(), &mut table);
        for p in 0..3 {
            for t in 0..=2 {
                let past = pt.causal_past(&[p], t);
                let data = table.data(run.view(p, t));
                for q in 0..3 {
                    assert_eq!(past.contains(&(q, 0)), data.has_heard(q), "p={p} t={t} q={q}");
                }
            }
        }
    }

    #[test]
    fn dot_highlights_view() {
        let pt = fig2_example();
        let dot = pt.to_dot("fig2", Some((&[0], 2)));
        assert!(dot.contains("style=bold"));
        assert!(dot.contains("(0, 0, 1)"));
        let plain = pt.to_dot("fig2", None);
        assert!(!plain.contains("style=bold"));
    }

    #[test]
    fn ascii_render_mentions_all_rounds() {
        let pt = fig2_example();
        let s = pt.render_ascii();
        assert!(s.contains("t=0:") && s.contains("t=1:") && s.contains("t=2:"));
        assert!(s.contains("(0,0)→(1,1)"));
    }
}
