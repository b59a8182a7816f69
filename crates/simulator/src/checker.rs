//! Exhaustive consensus verification over an adversary's prefix space.
//!
//! [`check_sequences`] runs an algorithm on **every** input assignment
//! crossed with a list of admissible sequences at a fixed depth (per a
//! typed [`CheckConfig`]) and checks the consensus properties of the
//! paper's Definition 5.1:
//!
//! * **Termination** (within the horizon — for compact adversaries where the
//!   universal algorithm decides by a fixed round this is exact; for
//!   non-compact ones undecided runs are reported, not failed, unless
//!   [`CheckConfig::require_termination`] is set);
//! * **Agreement** — all decided processes agree;
//! * **Validity** — if all inputs are `v`, the only decision is `v`;
//! * **Irrevocability** — decisions never change.
//!
//! # Where the sequences come from
//!
//! A prefix space already holds its admissible sequences, so callers that
//! have one (the universal algorithm's verification, the lab's sim-check)
//! pass its list to [`check_sequences`]. [`check`] is the wrapper for
//! callers that have only the adversary: it enumerates the sequences with
//! [`enumerate::admissible_sequences`] and walks them the same way. Either
//! way the walk executes the algorithm; it never reads a space's interned
//! views, so verification stays independent of expansion.
//!
//! # Execution model
//!
//! Runs share prefixes, so the walk executes each prefix once per input
//! assignment: it takes the sequences in order and resumes each one at
//! the round where it forks from the previous one, restoring that round's
//! configuration, first decisions and revocation flags. In prefix-tree
//! order, the order of both sources, every prefix is executed once.
//! [`Algorithm`]s are deterministic, so the report is identical to running
//! [`engine::run`] on every `(inputs, sequence)` pair, and
//! [`CheckReport::runs_checked`] is inputs × sequences.

use std::fmt;

use adversary::{enumerate, MessageAdversary};
use dyngraph::{GraphSeq, Round};
use ptgraph::{all_inputs, Value};

use crate::{engine, Algorithm};

/// A consensus property violation, with the offending run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two processes decided differently.
    Agreement {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
        /// The distinct decided values observed.
        values: Vec<Value>,
    },
    /// All processes started with `expected` but some process decided
    /// `decided`.
    Validity {
        /// The common input value.
        expected: Value,
        /// The offending decision.
        decided: Value,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// A process changed or withdrew its decision.
    Irrevocability {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// Strong validity: a process decided a value that is nobody's input
    /// (only reported when strong-validity checking is requested).
    StrongValidity {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The offending decision.
        decided: Value,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// A process had not decided by the horizon and termination was
    /// required.
    Termination {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { inputs, seq, values } => {
                write!(f, "agreement violated: x={inputs:?} under {seq} decided {values:?}")
            }
            Violation::Validity { expected, decided, seq } => write!(
                f,
                "validity violated: all inputs {expected} but decided {decided} under {seq}"
            ),
            Violation::Irrevocability { inputs, seq } => {
                write!(f, "irrevocable decision violated: x={inputs:?} under {seq}")
            }
            Violation::StrongValidity { inputs, decided, seq } => write!(
                f,
                "strong validity violated: decided {decided} ∉ inputs {inputs:?} under {seq}"
            ),
            Violation::Termination { inputs, seq } => {
                write!(f, "termination violated: x={inputs:?} under {seq}")
            }
        }
    }
}

/// Typed configuration of an exhaustive consensus check.
///
/// ```
/// use simulator::checker::CheckConfig;
///
/// let cfg = CheckConfig::at_depth(3).strong_validity(true);
/// assert_eq!(cfg.depth, 3);
/// assert!(cfg.require_termination && cfg.strong_validity);
/// assert_eq!(cfg.max_runs, 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// The horizon: every admissible depth-`depth` run is executed.
    pub depth: usize,
    /// Budget on `inputs × sequences`.
    pub max_runs: usize,
    /// Fail runs in which some process has not decided by the horizon
    /// (exact for compact adversaries; report-only otherwise).
    pub require_termination: bool,
    /// Additionally require *strong validity*: every decided value is some
    /// process's input in the run.
    pub strong_validity: bool,
}

impl CheckConfig {
    /// A check at `depth` with the default 2·10⁶-run budget, required
    /// termination, and weak validity.
    pub fn at_depth(depth: usize) -> Self {
        CheckConfig {
            depth,
            max_runs: 2_000_000,
            require_termination: true,
            strong_validity: false,
        }
    }

    /// Set the run budget.
    pub fn max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Require (or stop requiring) termination within the horizon.
    pub fn require_termination(mut self, enable: bool) -> Self {
        self.require_termination = enable;
        self
    }

    /// Additionally check strong validity.
    pub fn strong_validity(mut self, enable: bool) -> Self {
        self.strong_validity = enable;
        self
    }
}

/// Summary of an exhaustive check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Total `(inputs, sequence)` pairs executed.
    pub runs_checked: usize,
    /// Runs in which some process had not decided by the horizon.
    pub undecided_runs: usize,
    /// Latest decision round observed across all runs and processes.
    pub max_decision_round: usize,
    /// All violations found (empty = the algorithm passed).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively check `alg` against every admissible run of `ma` over the
/// input domain `values`, per `cfg` (depth, budget, validity flavor).
///
/// The enumerating wrapper of [`check_sequences`]: it enumerates the
/// admissible `cfg.depth`-sequences of `ma` and walks them. Callers
/// holding a prefix space pass its sequence list to [`check_sequences`]
/// instead; the report is the same.
///
/// ```
/// use simulator::algorithms::FloodMin;
/// use simulator::checker::{check, CheckConfig};
/// use adversary::GeneralMA;
/// use dyngraph::Digraph;
///
/// // Full exchange every round: flooding decides min correctly.
/// let ma = GeneralMA::oblivious(vec![Digraph::parse2("<->").unwrap()]);
/// let report = check(&FloodMin::new(1), &ma, &[0, 1], &CheckConfig::at_depth(1)).unwrap();
/// assert!(report.passed());
/// ```
///
/// # Errors
/// Returns [`enumerate::BudgetExceeded`] if inputs × sequences exceeds
/// `cfg.max_runs` (an input count that overflows `usize` saturates, so
/// `needed` is then `usize::MAX`).
pub fn check<A: Algorithm>(
    alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    cfg: &CheckConfig,
) -> Result<CheckReport, enumerate::BudgetExceeded> {
    check_sequences(alg, ma.n(), values, &enumerate::admissible_sequences(ma, cfg.depth), cfg)
}

/// Exhaustively check `alg` on `n` processes against every input
/// assignment over `values` crossed with every sequence of `seqs`, per
/// `cfg` — the prefix walk behind [`check`].
///
/// Every sequence must have `cfg.depth` rounds. Each prefix shared by
/// consecutive sequences is executed once per input assignment: each
/// sequence resumes from the configuration, first decisions and
/// revocation flags of the round where it forks from the previous one.
/// The [`CheckReport`] equals per-run execution's ([`engine::run`] on
/// every pair, inputs outer, sequences in the given order), violation
/// order included, and [`CheckReport::runs_checked`] is inputs ×
/// sequences.
///
/// # Errors
/// Returns [`enumerate::BudgetExceeded`] if inputs × sequences exceeds
/// `cfg.max_runs` (an input count that overflows `usize` saturates).
///
/// # Panics
/// Panics if a sequence does not have `cfg.depth` rounds.
pub fn check_sequences<'a, A, S>(
    alg: &A,
    n: usize,
    values: &[Value],
    seqs: S,
    cfg: &CheckConfig,
) -> Result<CheckReport, enumerate::BudgetExceeded>
where
    A: Algorithm,
    S: IntoIterator<Item = &'a GraphSeq>,
    S::IntoIter: ExactSizeIterator + Clone,
{
    let seqs = seqs.into_iter();
    let needed = seqs.len().saturating_mul(enumerate::inputs_count(values, n));
    if needed > cfg.max_runs {
        return Err(enumerate::BudgetExceeded { max_runs: cfg.max_runs, needed });
    }
    let mut report = CheckReport::default();
    // `frames[t]` is the configuration after round `t` of the current
    // sequence, with the decision record up to `t`.
    let mut frames: Vec<Frame<A::State>> = (0..=cfg.depth).map(|_| Frame::new(n)).collect();
    for x in &all_inputs(n, values) {
        let mut prev: Option<&GraphSeq> = None;
        for seq in seqs.clone() {
            assert_eq!(seq.rounds(), cfg.depth, "sequence {seq} is not at the check depth");
            // The first round not shared with the previous sequence.
            let resume = prev
                .map_or(0, |p| 1 + p.iter().zip(seq.iter()).take_while(|(a, b)| a == b).count());
            for t in resume..=cfg.depth {
                let (done, rest) = frames.split_at_mut(t);
                let cur = &mut rest[0];
                match done.last() {
                    None => {
                        cur.states.clear();
                        cur.states.extend((0..n).map(|p| alg.init(p, x[p])));
                        cur.decisions.fill(None);
                        cur.revoked.fill(false);
                    }
                    Some(before) => {
                        engine::step_round(alg, seq.graph(t), &before.states, &mut cur.states);
                        cur.decisions.copy_from_slice(&before.decisions);
                        cur.revoked.copy_from_slice(&before.revoked);
                    }
                }
                engine::note_decisions(alg, t, &cur.states, &mut cur.decisions, &mut cur.revoked);
            }
            let leaf = &frames[cfg.depth];
            check_leaf(x, seq, &leaf.decisions, &leaf.revoked, cfg, &mut report);
            prev = Some(seq);
        }
    }
    Ok(report)
}

/// A configuration of the prefix walk in [`check_sequences`], with each
/// process's first decision and revocation flag up to its round.
struct Frame<S> {
    states: Vec<S>,
    decisions: Vec<Option<(Round, Value)>>,
    revoked: Vec<bool>,
}

impl<S> Frame<S> {
    fn new(n: usize) -> Self {
        Frame { states: Vec::with_capacity(n), decisions: vec![None; n], revoked: vec![false; n] }
    }
}

/// Check one executed run against Definition 5.1, given each process's
/// first decision and revocation flag at its horizon.
fn check_leaf(
    x: &[Value],
    seq: &GraphSeq,
    decisions: &[Option<(Round, Value)>],
    revoked: &[bool],
    cfg: &CheckConfig,
    report: &mut CheckReport,
) {
    report.runs_checked += 1;
    let decided = || decisions.iter().flatten().map(|&(_, v)| v);
    if revoked.contains(&true) {
        report
            .violations
            .push(Violation::Irrevocability { inputs: x.to_vec(), seq: seq.clone() });
    }
    let first = decided().next();
    if decided().any(|v| Some(v) != first) {
        let mut values: Vec<Value> = decided().collect();
        values.sort_unstable();
        values.dedup();
        report.violations.push(Violation::Agreement {
            inputs: x.to_vec(),
            seq: seq.clone(),
            values,
        });
    }
    if x.iter().all(|&v| v == x[0]) {
        if let Some(d) = decided().find(|&d| d != x[0]) {
            report.violations.push(Violation::Validity {
                expected: x[0],
                decided: d,
                seq: seq.clone(),
            });
        }
    }
    if cfg.strong_validity {
        if let Some(d) = decided().find(|d| !x.contains(d)) {
            report.violations.push(Violation::StrongValidity {
                inputs: x.to_vec(),
                decided: d,
                seq: seq.clone(),
            });
        }
    }
    if decisions.iter().all(Option::is_some) {
        let last = decisions.iter().flatten().map(|&(r, _)| r).max().unwrap_or(0);
        report.max_decision_round = report.max_decision_round.max(last);
    } else {
        report.undecided_runs += 1;
        if cfg.require_termination {
            report
                .violations
                .push(Violation::Termination { inputs: x.to_vec(), seq: seq.clone() });
        }
    }
}

/// Randomized deep-run checking: sample `samples` admissible runs of length
/// `depth` (uniform over extensions at each round, inputs uniform over
/// `values`) and check agreement, validity, and irrevocability. Termination
/// is required when `require_termination` is set.
///
/// Complements [`check`]: exhaustive checking is exact but bounded
/// by the exponential prefix space; sampling probes much deeper horizons.
pub fn check_consensus_sampled<A: Algorithm, R: rand::Rng + ?Sized>(
    alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    samples: usize,
    require_termination: bool,
    rng: &mut R,
) -> CheckReport {
    let cfg = CheckConfig::at_depth(depth).require_termination(require_termination);
    let mut report = CheckReport::default();
    for _ in 0..samples {
        let seq = match adversary::sample::random_prefix(ma, rng, depth) {
            Some(seq) => seq,
            None => continue,
        };
        let x = adversary::sample::random_inputs(rng, ma.n(), values);
        let exec = engine::run(alg, &x, &seq);
        check_leaf(&x, &seq, &exec.decisions, &exec.revoked, &cfg, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DirectionRule, FloodMin};
    use adversary::GeneralMA;
    use dyngraph::generators;
    use rand::SeedableRng;

    #[test]
    fn direction_rule_passes_reduced_lossy_link() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let cfg = CheckConfig::at_depth(3).max_runs(100_000);
        let report = check(&DirectionRule, &ma, &[0, 1], &cfg).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.undecided_runs, 0);
        assert_eq!(report.max_decision_round, 1);
        assert_eq!(report.runs_checked, 4 * 8);
    }

    #[test]
    fn direction_rule_fails_full_lossy_link() {
        // With ↔ in the pool the direction inference is wrong: both
        // processes receive and decide the other's input.
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let report =
            check(&DirectionRule, &ma, &[0, 1], &CheckConfig::at_depth(2).max_runs(100_000))
                .unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| matches!(v, Violation::Agreement { .. })));
    }

    #[test]
    fn floodmin_fails_lossy_link() {
        // Santoro–Widmayer: no fixed-round flooding works under {←, ↔, →}.
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        for round in 1..4 {
            let cfg = CheckConfig::at_depth(round).max_runs(100_000);
            let report = check(&FloodMin::new(round), &ma, &[0, 1], &cfg).unwrap();
            assert!(!report.passed(), "FloodMin({round}) should fail");
        }
    }

    #[test]
    fn floodmin_passes_all_to_all() {
        let ma = GeneralMA::oblivious(vec![dyngraph::Digraph::complete(3)]);
        let report =
            check(&FloodMin::new(1), &ma, &[0, 1], &CheckConfig::at_depth(2).max_runs(100_000))
                .unwrap();
        assert!(report.passed());
    }

    #[test]
    fn budget_respected() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let err = check(&DirectionRule, &ma, &[0, 1], &CheckConfig::at_depth(10).max_runs(10))
            .unwrap_err();
        assert!(err.needed > 10);
    }

    #[test]
    fn budget_saturates_on_overflowing_input_count() {
        // 256⁸ = 2⁶⁴ input assignments overflow usize.
        let ma = GeneralMA::oblivious(vec![dyngraph::Digraph::complete(8)]);
        let values: Vec<Value> = (0..256).collect();
        let err = check(&FloodMin::new(1), &ma, &values, &CheckConfig::at_depth(1)).unwrap_err();
        assert_eq!(err.needed, usize::MAX);
        assert_eq!(err.max_runs, CheckConfig::at_depth(1).max_runs);
    }

    #[test]
    fn sampled_checker_passes_direction_rule() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let report = check_consensus_sampled(&DirectionRule, &ma, &[0, 1], 20, 200, true, &mut rng);
        assert_eq!(report.runs_checked, 200);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn sampled_checker_catches_floodmin() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let report =
            check_consensus_sampled(&FloodMin::new(2), &ma, &[0, 1], 6, 300, true, &mut rng);
        assert!(!report.passed(), "FloodMin should be caught by sampling");
    }

    #[test]
    fn violation_display() {
        let v = Violation::Agreement {
            inputs: vec![0, 1],
            seq: GraphSeq::parse2("->").unwrap(),
            values: vec![0, 1],
        };
        assert!(v.to_string().contains("agreement"));
    }
}
