//! The round engine: execute an [`Algorithm`] over a run.

use dyngraph::{Digraph, GraphSeq, Pid, Round};
use ptgraph::Value;

use crate::Algorithm;

/// A finite execution: the configuration sequence `C^0, …, C^T` (paper §2)
/// plus the decision events read off the states.
#[derive(Debug, Clone)]
pub struct Execution<S> {
    /// `states[t][p]` = state of `p` at the end of round `t` (`t = 0` is the
    /// initial configuration).
    pub states: Vec<Vec<S>>,
    /// First decision of each process: `(round, value)`.
    pub(crate) decisions: Vec<Option<(Round, Value)>>,
    /// Whether some process changed its decision value after deciding — a
    /// violation of irrevocability.
    pub(crate) revoked: Vec<bool>,
}

impl<S> Execution<S> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.decisions.len()
    }

    /// Number of rounds executed.
    pub fn rounds(&self) -> usize {
        self.states.len() - 1
    }

    /// The first decision of `p` as `(round, value)`, if it decided.
    pub fn decision_of(&self, p: Pid) -> Option<(Round, Value)> {
        self.decisions[p]
    }

    /// The decided value of `p`, if any.
    pub fn value_of(&self, p: Pid) -> Option<Value> {
        self.decisions[p].map(|(_, v)| v)
    }

    /// Whether every process decided.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// Whether all decided processes agree.
    pub fn agreement_holds(&self) -> bool {
        let mut seen: Option<Value> = None;
        for d in self.decisions.iter().flatten() {
            match seen {
                None => seen = Some(d.1),
                Some(v) if v == d.1 => {}
                Some(_) => return false,
            }
        }
        true
    }

    /// Whether some process changed its decision after deciding.
    pub fn any_revoked(&self) -> bool {
        self.revoked.iter().any(|&r| r)
    }

    /// The common decision value if all processes decided and agree —
    /// the paper's `∆(execution)`.
    pub fn consensus_value(&self) -> Option<Value> {
        if self.all_decided() && self.agreement_holds() {
            self.decisions[0].map(|(_, v)| v)
        } else {
            None
        }
    }
}

/// Run `alg` from `inputs` under the graph-sequence prefix `seq`.
///
/// # Panics
/// Panics if `inputs` and `seq` disagree on the number of processes.
pub fn run<A: Algorithm>(alg: &A, inputs: &[Value], seq: &GraphSeq) -> Execution<A::State> {
    let n = inputs.len();
    if let Some(m) = seq.n() {
        assert_eq!(m, n, "inputs and sequence disagree on n");
    }
    let mut states: Vec<Vec<A::State>> = Vec::with_capacity(seq.rounds() + 1);
    states.push((0..n).map(|p| alg.init(p, inputs[p])).collect());
    let mut decisions = vec![None; n];
    let mut revoked = vec![false; n];
    note_decisions(alg, 0, &states[0], &mut decisions, &mut revoked);
    for (t, g) in (1..).zip(seq.iter()) {
        let mut cur = Vec::with_capacity(n);
        step_round(alg, g, &states[t - 1], &mut cur);
        note_decisions(alg, t, &cur, &mut decisions, &mut revoked);
        states.push(cur);
    }
    Execution { states, decisions, revoked }
}

/// One send–receive–compute round under `g`: every process `q` receives
/// its in-neighbors' states from `prev`, sorted by sender, and steps. The
/// new configuration replaces the contents of `next`.
pub(crate) fn step_round<A: Algorithm>(
    alg: &A,
    g: &Digraph,
    prev: &[A::State],
    next: &mut Vec<A::State>,
) {
    next.clear();
    let mut received = Vec::new();
    for (q, state) in prev.iter().enumerate() {
        received.clear();
        received.extend(g.in_neighbors(q).filter(|&p| p != q).map(|p| (p, prev[p].clone())));
        next.push(alg.step(q, state, &received));
    }
}

/// Read the decisions off the configuration after round `t`: record each
/// process's first decision and flag a process that changes or withdraws
/// one it took earlier.
pub(crate) fn note_decisions<A: Algorithm>(
    alg: &A,
    t: Round,
    states: &[A::State],
    decisions: &mut [Option<(Round, Value)>],
    revoked: &mut [bool],
) {
    for (p, s) in states.iter().enumerate() {
        match (decisions[p], alg.decision(p, s)) {
            (None, Some(v)) => decisions[p] = Some((t, v)),
            (Some((_, v0)), Some(v1)) if v0 != v1 => revoked[p] = true,
            (Some(_), None) => revoked[p] = true,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DirectionRule, FloodMin};
    use dyngraph::GraphSeq;

    #[test]
    fn floodmin_converges_with_exchange() {
        let alg = FloodMin::new(1);
        let exec = run(&alg, &[4, 2], &GraphSeq::parse2("<->").unwrap());
        assert_eq!(exec.value_of(0), Some(2));
        assert_eq!(exec.value_of(1), Some(2));
        assert!(exec.agreement_holds());
        assert!(!exec.any_revoked());
        assert_eq!(exec.consensus_value(), Some(2));
    }

    #[test]
    fn floodmin_disagrees_without_communication() {
        let alg = FloodMin::new(1);
        let mut seq = GraphSeq::new();
        seq.push(dyngraph::Digraph::empty(2));
        let exec = run(&alg, &[4, 2], &seq);
        assert_eq!(exec.value_of(0), Some(4));
        assert_eq!(exec.value_of(1), Some(2));
        assert!(!exec.agreement_holds());
        assert_eq!(exec.consensus_value(), None);
    }

    #[test]
    fn direction_rule_round_one() {
        let alg = DirectionRule;
        let exec = run(&alg, &[7, 9], &GraphSeq::parse2("->").unwrap());
        assert_eq!(exec.decision_of(0), Some((1, 7)));
        assert_eq!(exec.decision_of(1), Some((1, 7)));
        let exec = run(&alg, &[7, 9], &GraphSeq::parse2("<-").unwrap());
        assert_eq!(exec.consensus_value(), Some(9));
    }

    #[test]
    fn undecided_before_decision_round() {
        let alg = FloodMin::new(3);
        let exec = run(&alg, &[1, 0], &GraphSeq::parse2("<-> <->").unwrap());
        assert!(!exec.all_decided());
        assert_eq!(exec.rounds(), 2);
    }

    #[test]
    fn states_shape() {
        let alg = FloodMin::new(1);
        let exec = run(&alg, &[1, 0], &GraphSeq::parse2("<-> <->").unwrap());
        assert_eq!(exec.states.len(), 3);
        assert_eq!(exec.states[0].len(), 2);
        assert_eq!(exec.n(), 2);
    }
}
