//! The divergence ("contamination") calculus.
//!
//! For two runs `a, b` on the same process set, let
//! `D_t = {q : V_q(a^t) ≠ V_q(b^t)}` be the processes that distinguish the
//! runs by time `t`. Because views are cumulative, `D_t` grows monotonically
//! and evolves by a *local* rule (DESIGN.md §3):
//!
//! ```text
//! D_0 = {q : x_q(a) ≠ x_q(b)}
//! D_t = D_{t−1}
//!     ∪ {q : in_a(q, t) ≠ in_b(q, t)}                 (reception pattern differs)
//!     ∪ {q : ∃r ∈ D_{t−1} ∩ in_a(q, t) ∩ in_b(q, t)}  (hears a contaminated sender)
//! ```
//!
//! The rule is *exactly* view inequality (verified against the
//! [`crate::ViewTable`] interner in this module's tests): a process's view
//! changes iff its own past differed, its reception pattern differs (views
//! name their senders), or a common sender's view differed.
//!
//! On ultimately periodic ([`dyngraph::Lasso`]) runs the joint evolution is
//! eventually periodic and `D` can flip at most `n` times, so
//! `d_{p}(a, b) = 0` — "`p` *never* distinguishes the infinite runs" — is
//! **decidable**. This is the engine behind the paper's limit analysis: a
//! chain of runs with pairwise `d_min = 0` forces one connected component
//! (Corollary 5.6), and the convergent sequences of Definition 5.16
//! (fair/unfair limits) are recognized through it.

use dyngraph::{mask, Digraph, Pid, PidMask, Round};

use crate::{InfiniteRun, PrefixRun};

/// The outcome of the divergence analysis for one process pair of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// The process first distinguishes the runs at time `t` (its views are
    /// equal before `t` and differ from `t` on); `d_{p} = 2^{−t}`.
    At(Round),
    /// The process never distinguishes the runs; `d_{p} = 0` **exactly**
    /// (only produced by the lasso analysis).
    Never,
    /// No divergence within the analyzed finite horizon `T`; `d_{p} < 2^{−T}`.
    NotWithin(Round),
}

impl Divergence {
    /// Whether the distance is exactly zero.
    pub fn is_zero(self) -> bool {
        matches!(self, Divergence::Never)
    }
}

/// Per-process divergence summary between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// `per_process[p]` = when (if ever) `p` distinguishes the runs.
    pub per_process: Vec<Divergence>,
}

impl DivergenceReport {
    /// `d_min(a, b) = 0` exactly: some process never distinguishes.
    pub fn dmin_is_zero(&self) -> bool {
        self.per_process.iter().any(|d| d.is_zero())
    }

    /// Processes that never distinguish the runs.
    pub fn blind_processes(&self) -> Vec<Pid> {
        self.per_process
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_zero())
            .map(|(p, _)| p)
            .collect()
    }

    /// The divergence time of the **last** process to distinguish, if all
    /// eventually do (`d_min = 2^{−t}`).
    pub fn dmin_divergence(&self) -> Option<Round> {
        let mut worst = 0;
        for d in &self.per_process {
            match d {
                Divergence::At(t) => worst = worst.max(*t),
                _ => return None,
            }
        }
        Some(worst)
    }
}

/// One step of the contamination rule: given `D_{t−1}` and the two round
/// graphs, compute `D_t`.
pub fn step(d_prev: PidMask, ga: &Digraph, gb: &Digraph) -> PidMask {
    let n = ga.n();
    assert_eq!(n, gb.n(), "graphs must agree on n");
    let mut d = d_prev;
    for q in 0..n {
        let ia = ga.in_mask(q);
        let ib = gb.in_mask(q);
        if ia != ib || (d_prev & ia & ib) != 0 {
            d |= mask::singleton(q);
        }
    }
    d
}

/// Contamination sets `D_0, …, D_T` along two **finite** runs.
///
/// # Panics
/// Panics if the runs disagree on `n`; the horizon is the shorter prefix.
pub fn finite_trace(a: &PrefixRun, b: &PrefixRun) -> Vec<PidMask> {
    let n = a.n();
    assert_eq!(n, b.n());
    let horizon = a.rounds().min(b.rounds());
    let mut d: PidMask = mask::from_iter((0..n).filter(|&q| a.inputs()[q] != b.inputs()[q]));
    let mut out = Vec::with_capacity(horizon + 1);
    out.push(d);
    for t in 1..=horizon {
        d = step(d, a.seq().graph(t), b.seq().graph(t));
        out.push(d);
    }
    out
}

/// Divergence report over two finite runs (up to the common horizon).
pub fn analyze_finite(a: &PrefixRun, b: &PrefixRun) -> DivergenceReport {
    let trace = finite_trace(a, b);
    let horizon = trace.len() - 1;
    let per_process = (0..a.n())
        .map(|p| match trace.iter().position(|&d| mask::contains(d, p)) {
            Some(t) => Divergence::At(t),
            None => Divergence::NotWithin(horizon),
        })
        .collect();
    DivergenceReport { per_process }
}

/// Divergence report over two **infinite** (lasso) runs — exact.
///
/// The joint graph process `(G_t(a), G_t(b))` is ultimately periodic with
/// period `lcm(c_a, c_b)` after `max(prefix lengths)`. `D` is monotone with
/// at most `n` strict growth steps, so running
/// `max_prefix + (n + 1) · lcm` rounds reaches the fixpoint: any process
/// outside `D` at that point stays outside forever.
///
/// # Panics
/// Panics if the runs disagree on `n`.
pub fn analyze_infinite(a: &InfiniteRun, b: &InfiniteRun) -> DivergenceReport {
    let n = a.n();
    assert_eq!(n, b.n(), "runs must agree on n");
    let la = a.lasso();
    let lb = b.lasso();
    let max_prefix = la.prefix_len().max(lb.prefix_len());
    let period = lcm(la.cycle_len(), lb.cycle_len());
    let horizon = max_prefix + (n + 1) * period;

    let mut d: PidMask = mask::from_iter((0..n).filter(|&q| a.inputs()[q] != b.inputs()[q]));
    let mut first: Vec<Option<Round>> =
        (0..n).map(|p| if mask::contains(d, p) { Some(0) } else { None }).collect();
    for t in 1..=horizon {
        d = step(d, la.graph_at(t), lb.graph_at(t));
        for (p, slot) in first.iter_mut().enumerate() {
            if slot.is_none() && mask::contains(d, p) {
                *slot = Some(t);
            }
        }
        if d == mask::full(n) {
            break;
        }
    }
    let per_process = first
        .into_iter()
        .map(|f| match f {
            Some(t) => Divergence::At(t),
            None => Divergence::Never,
        })
        .collect();
    DivergenceReport { per_process }
}

/// `d_min(a, b) = 0` for two infinite runs, decided exactly.
pub fn dmin_zero(a: &InfiniteRun, b: &InfiniteRun) -> bool {
    analyze_infinite(a, b).dmin_is_zero()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefixRun, ViewTable};
    use dyngraph::{GraphSeq, Lasso};

    fn inf2(inputs: [u32; 2], lasso: &str) -> InfiniteRun {
        InfiniteRun::new(inputs.to_vec(), Lasso::parse2(lasso).unwrap())
    }

    #[test]
    fn identical_runs_never_diverge() {
        let a = inf2([0, 1], "->");
        let r = analyze_infinite(&a, &a.clone());
        assert!(r.per_process.iter().all(|d| d.is_zero()));
        assert!(r.dmin_is_zero());
    }

    #[test]
    fn blind_sender_never_diverges() {
        // →^ω with different x_1: p0 never hears p1 → d_{p0} = 0 exactly.
        let a = inf2([0, 0], "->");
        let b = inf2([0, 1], "->");
        let r = analyze_infinite(&a, &b);
        assert_eq!(r.per_process[0], Divergence::Never);
        assert_eq!(r.per_process[1], Divergence::At(0));
        assert!(r.dmin_is_zero());
        assert_eq!(r.blind_processes(), vec![0]);
        assert!(dmin_zero(&a, &b));
    }

    #[test]
    fn graph_difference_contaminates_both_eventually() {
        // →^ω vs ←^ω, same inputs: both reception patterns differ at t=1.
        let a = inf2([0, 1], "->");
        let b = inf2([0, 1], "<-");
        let r = analyze_infinite(&a, &b);
        assert_eq!(r.per_process[0], Divergence::At(1));
        assert_eq!(r.per_process[1], Divergence::At(1));
        assert!(!r.dmin_is_zero());
        assert_eq!(r.dmin_divergence(), Some(1));
    }

    #[test]
    fn delayed_contamination_through_relay() {
        // →^ω vs ↔^ω, same inputs: p0's in-set differs at t=1 (receives in
        // ↔ only) → p0 ∈ D_1. p1's in-sets agree ({0} both) and 0 ∉ D_0, so
        // p1 diverges only at t=2 when it hears the contaminated p0.
        let a = inf2([0, 1], "->");
        let b = inf2([0, 1], "<->");
        let r = analyze_infinite(&a, &b);
        assert_eq!(r.per_process[0], Divergence::At(1));
        assert_eq!(r.per_process[1], Divergence::At(2));
    }

    #[test]
    fn prefix_deviation_then_rejoin() {
        // a = →^ω, b = → → ←^ω: graphs agree on rounds 1–2.
        // Round 3 on: in-sets differ for both processes.
        let a = inf2([0, 1], "->");
        let b = inf2([0, 1], "-> -> | <-");
        let r = analyze_infinite(&a, &b);
        assert_eq!(r.per_process[0], Divergence::At(3));
        assert_eq!(r.per_process[1], Divergence::At(3));
    }

    #[test]
    fn rule_matches_view_interner_exactly() {
        // Exhaustive check on n = 2: every input pair and every pair of
        // 3-round sequences over {←, →, ↔, ∅}.
        let tokens = ["->", "<-", "<->", "."];
        let mut seqs = Vec::new();
        for a in tokens {
            for b in tokens {
                for c in tokens {
                    seqs.push(GraphSeq::parse2(&format!("{a} {b} {c}")).unwrap());
                }
            }
        }
        let inputs = crate::all_inputs(2, &[0, 1]);
        let mut table = ViewTable::new(2, &[0, 1]);
        let mut runs: Vec<PrefixRun> = Vec::new();
        for x in &inputs {
            for s in &seqs {
                runs.push(PrefixRun::compute(x.as_slice(), s.clone(), &mut table));
            }
        }
        // Sample pairs (all pairs is 256^2 = 65k — fine).
        for a in runs.iter().step_by(7) {
            for b in runs.iter().step_by(5) {
                let trace = finite_trace(a, b);
                for (t, d) in trace.iter().enumerate() {
                    for p in 0..2 {
                        let views_differ = a.view(p, t) != b.view(p, t);
                        assert_eq!(
                            views_differ,
                            mask::contains(*d, p),
                            "mismatch at t={t} p={p} for {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rule_matches_views_n3_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut table = ViewTable::new(3, &[0, 1]);
        for _ in 0..200 {
            let mk = |rng: &mut rand::rngs::StdRng| {
                let inputs: Vec<u32> = (0..3).map(|_| rng.random_range(0..2)).collect();
                let graphs: Vec<_> =
                    (0..4).map(|_| dyngraph::generators::random_graph(rng, 3, 0.4)).collect();
                (inputs, GraphSeq::from_graphs(graphs))
            };
            let (xa, sa) = mk(&mut rng);
            let (xb, sb) = mk(&mut rng);
            let a = PrefixRun::compute(xa, sa, &mut table);
            let b = PrefixRun::compute(xb, sb, &mut table);
            let trace = finite_trace(&a, &b);
            for (t, d) in trace.iter().enumerate() {
                for p in 0..3 {
                    assert_eq!(a.view(p, t) != b.view(p, t), mask::contains(*d, p));
                }
            }
        }
    }

    #[test]
    fn finite_report_matches_distance_module() {
        let mut table = ViewTable::new(2, &[0, 1]);
        let a = PrefixRun::compute(vec![0, 1], GraphSeq::parse2("-> -> ->").unwrap(), &mut table);
        let b = PrefixRun::compute(vec![0, 0], GraphSeq::parse2("-> -> ->").unwrap(), &mut table);
        let rep = analyze_finite(&a, &b);
        assert_eq!(rep.per_process[0], Divergence::NotWithin(3));
        assert_eq!(rep.per_process[1], Divergence::At(0));
        assert_eq!(crate::distance::d_p(&a, &b, 0), crate::distance::Distance::Below(3));
        assert_eq!(crate::distance::d_p(&a, &b, 1), crate::distance::Distance::Finite(0));
    }

    #[test]
    fn lcm_gcd() {
        assert_eq!(super::lcm(4, 6), 12);
        assert_eq!(super::lcm(1, 7), 7);
        assert_eq!(super::gcd(12, 18), 6);
    }

    #[test]
    fn horizon_sufficiency_periodic_blindness() {
        // Alternating ← → vs ← →-shifted: contamination with long periods
        // still terminates and is consistent with a long finite unroll.
        let a = inf2([0, 1], "-> <-");
        let b = inf2([0, 1], "| -> <- -> <- -> <-"); // same infinite sequence, period 6
        let r = analyze_infinite(&a, &b);
        assert!(r.per_process.iter().all(|d| d.is_zero()), "equal sequences: {r:?}");
    }
}
