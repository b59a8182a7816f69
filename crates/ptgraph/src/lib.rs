//! Process-time graphs, local views, and the paper's distance functions.
//!
//! This crate implements Section 3 and Section 4 of *Nowak, Schmid, Winkler —
//! "Topological Characterization of Consensus under General Message
//! Adversaries"* (PODC 2019):
//!
//! * [`PtGraph`] — the explicit process-time graph `PT^t` of §3 (Fig. 2):
//!   nodes `(p, 0, x_p)` and `(p, t)`, edges `(p, t−1) → (q, t)` iff
//!   `(p, q) ∈ G_t`.
//! * [`ViewTable`] / [`ViewId`] — interned local views. The view
//!   `V_{p}(PT^t)` is `p`'s causal past; two runs are indistinguishable to
//!   `p` through round `t` iff their view ids at time `t` are equal. The
//!   table interns each view's input-free shape once and numbers the views
//!   of a shape by the inputs they have heard of. This is the workhorse of
//!   the whole reproduction: the paper's distances below resolution `2^−t`
//!   are functions of these ids.
//! * [`PrefixRun`] — a finite run `(input vector, graph-sequence prefix)`;
//!   the finite shadow of a point of the paper's space `PT^ω`. Runs over
//!   one sequence share its [`ShapeRow`].
//! * [`distance`] — the `P`-pseudo-metric `d_P` (§4.1), the minimum
//!   pseudo-semi-metric `d_min` (§4.2), and the common-prefix metric
//!   `d_max = d_{[n]}` (Fig. 3), all as exact dyadic values.
//! * [`contamination`] — the divergence calculus: the monotone set
//!   `D_t = {q : V_q(a^t) ≠ V_q(b^t)}` evolves by a local rule, which makes
//!   `d_p(a, b) = 0` **decidable exactly** for ultimately periodic
//!   ([`dyngraph::Lasso`]) runs. This powers the rigorous impossibility
//!   certificates (distance-0 chains, paper Corollary 5.6) and the
//!   fair/unfair limit detection (Definition 5.16).
//!
//! # Quickstart: the paper's Figure 2
//!
//! ```
//! use ptgraph::{fig2_example, PtGraph};
//!
//! let pt = fig2_example();
//! assert_eq!(pt.n(), 3);
//! assert_eq!(pt.inputs(), &[1, 0, 1]);
//! // Process 0's view at time 2 is its causal past.
//! let past = pt.causal_past(&[0], 2);
//! assert!(past.contains(&(0, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contamination;
pub mod distance;
pub mod knowledge;
mod ptg;
mod run;
mod view;

pub use ptg::{fig2_example, PtGraph, PtNode};
pub use run::{InfiniteRun, PrefixRun, ShapeRow};
pub use view::{Labels, ShapeId, ViewData, ViewId, ViewTable};

/// A consensus input/output value (the paper's finite domain `V_I ⊆ V_O`).
pub type Value = u32;

/// An assignment of one input value per process (the paper's `x ∈ V_I^n`).
pub type Inputs = Vec<Value>;

/// All input assignments over domain `values` for `n` processes, in
/// lexicographic order (`|values|^n` of them).
///
/// ```
/// let all = ptgraph::all_inputs(2, &[0, 1]);
/// assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
/// ```
pub fn all_inputs(n: usize, values: &[Value]) -> Vec<Inputs> {
    let mut out = Vec::with_capacity(values.len().checked_pow(n as u32).unwrap_or(0));
    let mut cur = vec![values[0]; n];
    fn rec(i: usize, n: usize, values: &[Value], cur: &mut Vec<Value>, out: &mut Vec<Inputs>) {
        if i == n {
            out.push(cur.clone());
            return;
        }
        for &v in values {
            cur[i] = v;
            rec(i + 1, n, values, cur, out);
        }
    }
    rec(0, n, values, &mut cur, &mut out);
    out
}

/// The `v`-valent input assignment: every process starts with `v`
/// (paper §5.1, the sequences `z_v`).
pub fn valent_inputs(n: usize, v: Value) -> Inputs {
    vec![v; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_inputs_counts() {
        assert_eq!(all_inputs(1, &[0, 1]).len(), 2);
        assert_eq!(all_inputs(3, &[0, 1]).len(), 8);
        assert_eq!(all_inputs(2, &[0, 1, 2]).len(), 9);
    }

    #[test]
    fn all_inputs_lexicographic_and_distinct() {
        let all = all_inputs(2, &[0, 1]);
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(all, sorted);
    }

    #[test]
    fn valent_inputs_constant() {
        assert_eq!(valent_inputs(3, 7), vec![7, 7, 7]);
    }
}
