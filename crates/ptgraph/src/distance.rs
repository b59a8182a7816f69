//! The paper's distance functions on runs (§4, Fig. 3).
//!
//! * `d_P(α, β) = 2^{−inf{t ≥ 0 : V_P(α^t) ≠ V_P(β^t)}}` — the
//!   `P`-pseudo-metric (§4.1, Theorem 4.3);
//! * `d_min(α, β) = min_{p ∈ [n]} d_{p}(α, β)` — the minimum
//!   pseudo-semi-metric (§4.2, Eq. 3);
//! * `d_max = d_{[n]}` — the classic common-prefix metric (Eq. 1).
//!
//! Distances are exact dyadic rationals represented by [`Distance`]:
//! `Finite(t)` means `2^{−t}`, and `Below(T)` means "the runs are
//! indistinguishable through the whole compared horizon `T`", i.e. the true
//! distance is `< 2^{−T}` (it is `0` iff the infinite extensions never
//! diverge — decidable for lassos via [`crate::contamination`]).

use std::collections::HashSet;

use dyngraph::Pid;

use crate::{PrefixRun, ViewId, ViewTable};

/// An exact dyadic distance value; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// The views first differ at time `t`; the distance is exactly `2^{−t}`.
    Finite(usize),
    /// No difference within the compared horizon `T`; the distance is
    /// `< 2^{−T}`.
    Below(usize),
}

impl Distance {
    /// The distance as an `f64` (`Below(T)` maps to `2^{−(T+1)}` for
    /// display purposes only — the true value is merely bounded by it).
    pub fn as_f64(self) -> f64 {
        match self {
            Distance::Finite(t) => 0.5f64.powi(t as i32),
            Distance::Below(t) => 0.5f64.powi(t as i32 + 1),
        }
    }

    /// Whether the distance is known to be `< 2^{−t}`.
    pub fn lt_pow2(self, t: usize) -> bool {
        match self {
            Distance::Finite(s) => s > t,
            Distance::Below(s) => s >= t,
        }
    }

    /// The divergence time if finite.
    pub fn divergence_time(self) -> Option<usize> {
        match self {
            Distance::Finite(t) => Some(t),
            Distance::Below(_) => None,
        }
    }
}

impl PartialOrd for Distance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Distance {
    /// Total order by the *bound* each value represents: `Finite(t)` as
    /// `2^{−t}`, `Below(T)` as the open bound `2^{−T}⁻`. A `Finite(t)` with
    /// `t > T` compares below `Below(T)` even though the true distance
    /// behind `Below(T)` is unknown beyond its bound — callers that need
    /// exact comparisons must extend the horizon first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Larger divergence time = smaller distance. Below(T) < Finite(t) for
        // all t ≤ T; Below(T) vs Below(S): smaller horizon = larger bound.
        use Distance::*;
        match (self, other) {
            (Finite(a), Finite(b)) => b.cmp(a),
            (Below(a), Below(b)) => b.cmp(a),
            (Finite(t), Below(s)) => {
                if *t > *s {
                    std::cmp::Ordering::Less // 2^-t < 2^-(s+?) — t beyond horizon s
                } else {
                    std::cmp::Ordering::Greater
                }
            }
            (Below(_), Finite(_)) => other.cmp(self).reverse(),
        }
    }
}

/// First time `t` at which `p`'s views in `a` and `b` differ, within the
/// common horizon; `None` if they agree throughout.
///
/// Views are cumulative, so agreement at time `t` implies agreement at all
/// earlier times; the scan exploits this by binary search.
///
/// # Panics
/// Panics if the runs disagree on `n`.
pub fn divergence_time_p(a: &PrefixRun, b: &PrefixRun, p: Pid) -> Option<usize> {
    assert_eq!(a.n(), b.n(), "runs must have the same number of processes");
    let horizon = a.rounds().min(b.rounds());
    if a.view(p, horizon) == b.view(p, horizon) {
        return None;
    }
    // Binary search for the first differing time (monotone predicate).
    let (mut lo, mut hi) = (0usize, horizon);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if a.view(p, mid) == b.view(p, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The pseudo-metric `d_{p}` for a single process.
pub fn d_p(a: &PrefixRun, b: &PrefixRun, p: Pid) -> Distance {
    let horizon = a.rounds().min(b.rounds());
    match divergence_time_p(a, b, p) {
        Some(t) => Distance::Finite(t),
        None => Distance::Below(horizon),
    }
}

/// The `P`-pseudo-metric `d_P = max_{p ∈ P} d_{p}` (Theorem 4.3:
/// monotonicity gives `d_P ≤ d_Q` for `P ⊆ Q`, and the max realizes the
/// first time *some* member of `P` distinguishes).
///
/// # Panics
/// Panics if `ps` is empty or contains an out-of-range pid.
pub fn d_set(a: &PrefixRun, b: &PrefixRun, ps: &[Pid]) -> Distance {
    assert!(!ps.is_empty(), "P must be nonempty");
    ps.iter().map(|&p| d_p(a, b, p)).max().expect("nonempty")
}

/// The common-prefix metric `d_max = d_{[n]}` (Eq. 1).
pub fn d_max(a: &PrefixRun, b: &PrefixRun) -> Distance {
    let all: Vec<Pid> = (0..a.n()).collect();
    d_set(a, b, &all)
}

/// The minimum pseudo-semi-metric `d_min = min_p d_{p}` (Eq. 3): the
/// distance seen by the process that is *last* to distinguish the runs.
pub fn d_min(a: &PrefixRun, b: &PrefixRun) -> Distance {
    (0..a.n()).map(|p| d_p(a, b, p)).min().expect("n ≥ 1")
}

/// The diameter `d_min(A) = sup {d_min(a,b) : a,b ∈ A}` of a set of runs
/// (paper Definition 5.7). Returns `None` for an empty or singleton set.
pub fn diameter_min(runs: &[&PrefixRun]) -> Option<Distance> {
    let mut best: Option<Distance> = None;
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            let d = d_min(a, b);
            best = Some(match best {
                None => d,
                Some(cur) => cur.max(d),
            });
        }
    }
    best
}

/// The set distance `d_min(A, B) = inf {d_min(a,b) : a ∈ A, b ∈ B}` (paper
/// Definition 5.12). Returns `None` if either set is empty.
///
/// Computed by one view-set walk per level rather than over all pairs: for
/// `t = H` down to `0` (`H` the common horizon), one reused hash set takes
/// every view id of `xs` at time `t` and the ids of `ys` at time `t` probe
/// it. The first level with a hit decides: `Below(H)` if it is `H`,
/// `Finite(t + 1)` if it is `t < H`; no hit at any level gives `Finite(0)`.
///
/// The walk is exact. Views are cumulative, so a process whose views agree
/// in two runs at time `t` agrees at every earlier time, and `d_min(a, b)`
/// is fixed by the last time some process has the same view in `a` and
/// `b`; the infimum over pairs is fixed by the last such time over all
/// pairs, which is the first level the walk hits. An interned [`ViewId`]
/// determines its owner and its time, so a bare id hit is a same-process,
/// same-time agreement. The cost is `O((|A| + |B|)·n·H)` hash operations,
/// against `O(|A|·|B|·n·log H)` view comparisons for the pairwise minimum.
///
/// # Panics
/// Panics if the runs do not all share one horizon and one `n` (the runs
/// of one prefix space always do). Their views must be interned in one
/// [`ViewTable`].
pub fn set_distance_min(xs: &[&PrefixRun], ys: &[&PrefixRun]) -> Option<Distance> {
    if xs.is_empty() || ys.is_empty() {
        return None;
    }
    let (n, horizon) = (xs[0].n(), xs[0].rounds());
    assert!(
        xs.iter().chain(ys).all(|r| r.n() == n && r.rounds() == horizon),
        "set distance needs runs of one horizon and one n"
    );
    let mut seen: HashSet<ViewId> = HashSet::with_capacity(xs.len() * n);
    for t in (0..=horizon).rev() {
        seen.clear();
        seen.extend(xs.iter().flat_map(|r| r.views_at(t)));
        if ys.iter().flat_map(|r| r.views_at(t)).any(|v| seen.contains(v)) {
            return Some(if t == horizon {
                Distance::Below(horizon)
            } else {
                Distance::Finite(t + 1)
            });
        }
    }
    Some(Distance::Finite(0))
}

/// Reproduce the paper's **Figure 3** example: three processes, two runs
/// with `d_max = d_{2} = 1`, `d_{1} = 1/2`, `d_min = d_{0} = 1/4`
/// (zero-based process ids; the paper's processes 3, 2, 1).
///
/// Returns `(α, β, table)`.
pub fn fig3_example() -> (PrefixRun, PrefixRun, ViewTable) {
    use dyngraph::{Digraph, GraphSeq};
    let mut table = ViewTable::new(3);
    // Process 2 differs at time 0 (input), process 1 learns the difference
    // in round 1, process 0 only in round 2.
    // α: x = (0, 0, 0); β: x = (0, 0, 1).
    // Round 1: 2 → 1 (process 1 hears the differing input).
    // Round 2: 1 → 0 (process 0 hears it transitively).
    let g1 = Digraph::from_edges(3, &[(2, 1)]).unwrap();
    let g2 = Digraph::from_edges(3, &[(1, 0)]).unwrap();
    let seq = GraphSeq::from_graphs(vec![g1, g2, Digraph::empty(3)]);
    let alpha = PrefixRun::compute(vec![0, 0, 0], seq.clone(), &mut table);
    let beta = PrefixRun::compute(vec![0, 0, 1], seq, &mut table);
    (alpha, beta, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::{Digraph, GraphSeq};
    use std::collections::BTreeSet;

    /// The pairwise minimum of Definition 5.12 — the oracle for the level
    /// walk of [`set_distance_min`].
    fn all_pairs_min(xs: &[&PrefixRun], ys: &[&PrefixRun]) -> Option<Distance> {
        xs.iter().flat_map(|a| ys.iter().map(move |b| d_min(a, b))).min()
    }

    /// xorshift64* — tiny, seedable, and stable across toolchains.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A sparse random graph: each edge with probability 1/3.
    fn sparse_graph(rng: &mut Rng, n: usize) -> Digraph {
        let edges: Vec<(Pid, Pid)> = (0..n)
            .flat_map(|p| (0..n).map(move |q| (p, q)))
            .filter(|&(p, q)| p != q && rng.below(3) == 0)
            .collect();
        Digraph::from_edges(n, &edges).unwrap()
    }

    /// Random runs of one horizon in one table, forking off a shared base
    /// sequence at random rounds so that pairs agree for a while.
    fn forked_runs(
        rng: &mut Rng,
        n: usize,
        horizon: usize,
        table: &mut ViewTable,
    ) -> Vec<PrefixRun> {
        let base: Vec<Digraph> = (0..horizon).map(|_| sparse_graph(rng, n)).collect();
        let mut runs = Vec::new();
        for _ in 0..2 + rng.below(7) {
            let inputs: Vec<u32> = (0..n).map(|_| rng.below(2) as u32).collect();
            let fork = rng.below(horizon + 1);
            let mut graphs = base[..fork].to_vec();
            graphs.extend((fork..horizon).map(|_| sparse_graph(rng, n)));
            runs.push(PrefixRun::compute(inputs, GraphSeq::from_graphs(graphs), table));
        }
        runs
    }

    #[test]
    fn set_distance_walk_matches_all_pairs() {
        let mut rng = Rng(0x5e7d_157a_4ce0_0001);
        let (mut empty, mut below, mut zero) = (false, false, false);
        let mut deep = BTreeSet::new();
        for case in 0..400 {
            let n = 2 + rng.below(2);
            let horizon = 1 + rng.below(6);
            let mut table = ViewTable::new(n);
            let runs = forked_runs(&mut rng, n, horizon, &mut table);
            for _ in 0..8 {
                // Independent coin flips: the sides may overlap or be empty.
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                for r in &runs {
                    if rng.below(2) == 0 {
                        xs.push(r);
                    }
                    if rng.below(2) == 0 {
                        ys.push(r);
                    }
                }
                let walk = set_distance_min(&xs, &ys);
                assert_eq!(walk, all_pairs_min(&xs, &ys), "case {case}: n={n} H={horizon}");
                match walk {
                    None => empty = true,
                    Some(Distance::Below(h)) => below |= h == horizon,
                    Some(Distance::Finite(0)) => zero = true,
                    Some(Distance::Finite(t)) if t >= 2 => {
                        deep.insert(t);
                    }
                    Some(Distance::Finite(_)) => {}
                }
            }
        }
        assert!(
            empty && below && zero,
            "outcomes: None {empty}, Below(H) {below}, Finite(0) {zero}"
        );
        assert!(deep.len() >= 2, "Finite(t ≥ 2) outcomes: {deep:?}");
    }

    #[test]
    fn fig3_set_distance() {
        let (alpha, beta, _) = fig3_example();
        assert_eq!(set_distance_min(&[&alpha], &[&beta]), Some(Distance::Finite(2)));
    }

    #[test]
    #[should_panic(expected = "one horizon")]
    fn set_distance_rejects_mixed_horizons() {
        let mut t = ViewTable::new(2);
        let a = PrefixRun::compute(vec![0, 1], GraphSeq::parse2("->").unwrap(), &mut t);
        let b = PrefixRun::compute(vec![0, 1], GraphSeq::parse2("-> <-").unwrap(), &mut t);
        set_distance_min(&[&a], &[&b]);
    }

    fn runs2(word_a: &str, word_b: &str, xa: [u32; 2], xb: [u32; 2]) -> (PrefixRun, PrefixRun) {
        let mut t = ViewTable::new(2);
        let a = PrefixRun::compute(xa, GraphSeq::parse2(word_a).unwrap(), &mut t);
        let b = PrefixRun::compute(xb, GraphSeq::parse2(word_b).unwrap(), &mut t);
        (a, b)
    }

    #[test]
    fn identical_runs_below_horizon() {
        let (a, b) = runs2("-> <-", "-> <-", [0, 1], [0, 1]);
        assert_eq!(d_min(&a, &b), Distance::Below(2));
        assert_eq!(d_max(&a, &b), Distance::Below(2));
    }

    #[test]
    fn input_difference_is_distance_one() {
        let (a, b) = runs2("->", "->", [0, 1], [1, 1]);
        // p0's own input differs at time 0 → d_{0} = 1 = 2^0.
        assert_eq!(d_p(&a, &b, 0), Distance::Finite(0));
        // p1 learns x_0 in round 1 → d_{1} = 1/2.
        assert_eq!(d_p(&a, &b, 1), Distance::Finite(1));
        assert_eq!(d_max(&a, &b), Distance::Finite(0));
        assert_eq!(d_min(&a, &b), Distance::Finite(1));
    }

    #[test]
    fn unheard_difference_gives_below() {
        // →^3 with x_1 differing: p0 never hears p1.
        let (a, b) = runs2("-> -> ->", "-> -> ->", [0, 0], [0, 1]);
        assert_eq!(d_p(&a, &b, 0), Distance::Below(3));
        assert_eq!(d_p(&a, &b, 1), Distance::Finite(0));
        assert_eq!(d_min(&a, &b), Distance::Below(3));
        assert_eq!(d_max(&a, &b), Distance::Finite(0));
    }

    #[test]
    fn fig3_values() {
        let (alpha, beta, _) = fig3_example();
        // Process 2 (the paper's process 3): distance 1.
        assert_eq!(d_p(&alpha, &beta, 2), Distance::Finite(0));
        // Process 1 (paper's 2): distance 1/2.
        assert_eq!(d_p(&alpha, &beta, 1), Distance::Finite(1));
        // Process 0 (paper's 1): distance 1/4 = d_min.
        assert_eq!(d_p(&alpha, &beta, 0), Distance::Finite(2));
        assert_eq!(d_min(&alpha, &beta), Distance::Finite(2));
        assert_eq!(d_max(&alpha, &beta), Distance::Finite(0));
        assert!((d_min(&alpha, &beta).as_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let (a, b) = runs2("-> <-", "<- <-", [0, 1], [0, 1]);
        for p in 0..2 {
            assert_eq!(d_p(&a, &b, p), d_p(&b, &a, p));
        }
        assert_eq!(d_min(&a, &b), d_min(&b, &a));
    }

    #[test]
    fn triangle_inequality_dp() {
        // Theorem 4.3: d_P(α,γ) ≤ d_P(α,β) + d_P(β,γ). With exact dyadics,
        // verify on f64 with a horizon-consistent trio.
        let mut t = ViewTable::new(2);
        let s1 = GraphSeq::parse2("-> -> ->").unwrap();
        let s2 = GraphSeq::parse2("-> <- ->").unwrap();
        let s3 = GraphSeq::parse2("<- <- ->").unwrap();
        let a = PrefixRun::compute(vec![0, 1], s1, &mut t);
        let b = PrefixRun::compute(vec![0, 1], s2, &mut t);
        let c = PrefixRun::compute(vec![0, 1], s3, &mut t);
        for p in 0..2 {
            let ab = d_p(&a, &b, p).as_f64();
            let bc = d_p(&b, &c, p).as_f64();
            let ac = d_p(&a, &c, p).as_f64();
            assert!(ac <= ab + bc + 1e-12, "triangle violated for p{p}");
        }
    }

    #[test]
    fn monotonicity_in_p() {
        // Theorem 4.3: P ⊆ Q ⟹ d_P ≤ d_Q.
        let (alpha, beta, _) = fig3_example();
        let d01 = d_set(&alpha, &beta, &[0, 1]);
        let d012 = d_set(&alpha, &beta, &[0, 1, 2]);
        assert!(d01 <= d012);
        let d0 = d_set(&alpha, &beta, &[0]);
        assert!(d0 <= d01);
    }

    #[test]
    fn dmax_equals_full_set() {
        let (alpha, beta, _) = fig3_example();
        assert_eq!(d_max(&alpha, &beta), d_set(&alpha, &beta, &[0, 1, 2]));
    }

    #[test]
    fn distance_ordering() {
        use Distance::*;
        assert!(Finite(0) > Finite(1));
        assert!(Finite(1) > Finite(5));
        assert!(Below(5) < Finite(5)); // < 2^-5 vs = 2^-5
        assert!(Below(3) > Finite(10)); // bound 2^-4-ish > 2^-10? Below(3) means < 2^-3…
        assert!(Finite(10) < Below(3));
        assert!(Below(5) < Below(3));
        assert!(Finite(2).lt_pow2(1));
        assert!(!Finite(2).lt_pow2(2));
        assert!(Below(2).lt_pow2(2));
    }

    #[test]
    fn diameter_and_set_distance() {
        let mut t = ViewTable::new(2);
        let s = GraphSeq::parse2("-> ->").unwrap();
        let a = PrefixRun::compute(vec![0, 0], s.clone(), &mut t);
        let b = PrefixRun::compute(vec![0, 1], s.clone(), &mut t);
        let c = PrefixRun::compute(vec![1, 1], s, &mut t);
        let diam = diameter_min(&[&a, &b, &c]).unwrap();
        // d_min(a,c) = Finite(0) is the max: all processes differ at time 0.
        assert_eq!(diam, Distance::Finite(0));
        let d = set_distance_min(&[&a], &[&b, &c]).unwrap();
        // a—b share p0's view forever within horizon → Below(2).
        assert_eq!(d, Distance::Below(2));
        assert!(diameter_min(&[]).is_none());
        assert!(set_distance_min(&[], &[&a]).is_none());
    }
}
