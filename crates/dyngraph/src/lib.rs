//! Directed communication graphs and dynamic graph sequences.
//!
//! This crate is the bottom-most substrate of the reproduction of
//! *Nowak, Schmid, Winkler — "Topological Characterization of Consensus under
//! General Message Adversaries"* (PODC 2019). It models the synchronous
//! directed dynamic networks of the paper's Section 2:
//!
//! * [`Digraph`] — a directed communication graph `G = ([n], E)` on the
//!   process set `[n] = {0, …, n−1}` (the paper uses `{1, …, n}`; we use
//!   zero-based indices throughout). An edge `(p, q)` means *process `q`
//!   receives process `p`'s round message*.
//! * [`GraphSeq`] — a finite prefix of a graph sequence `(G_t)_{t ≥ 1}`.
//! * [`Lasso`] — an ultimately periodic infinite graph sequence
//!   `prefix · cycle^ω`, the fragment on which limit behaviour is exactly
//!   computable (used for the fair/unfair limit certificates of the paper's
//!   Definition 5.16).
//! * [`scc`] — Tarjan strongly connected components, condensations, *root
//!   components* (source SCCs) and graph *kernels*
//!   `Ker(G) = {p : p reaches every q}`, the objects driving the
//!   broadcastability characterization (paper Theorem 5.11).
//! * [`generators`] — enumerators and samplers for graph families (all
//!   graphs, rooted graphs, the lossy-link family for `n = 2`, stars,
//!   cycles, random graphs).
//! * [`influence`] — causal influence tracking (“who has heard from whom by
//!   round t”), the reachability skeleton of process-time graphs.
//!
//! # Quickstart
//!
//! ```
//! use dyngraph::{Digraph, GraphSeq};
//!
//! // The three lossy-link graphs for n = 2 (paper §1): ←, ↔, →.
//! let right = Digraph::parse2("->").unwrap();  // process 0 → process 1
//! let left  = Digraph::parse2("<-").unwrap();
//! let both  = Digraph::parse2("<->").unwrap();
//! assert_eq!(right.kernel(), vec![0]);
//! assert_eq!(left.kernel(),  vec![1]);
//! assert_eq!(both.kernel(),  vec![0, 1]);
//!
//! // A 3-round dynamic network: → then ← then ↔.
//! let seq = GraphSeq::from_graphs(vec![right, left, both]);
//! assert_eq!(seq.rounds(), 3);
//! // After round 1 everyone has heard from process 0; after round 2 from both.
//! assert_eq!(seq.broadcast_round(0), Some(1));
//! assert_eq!(seq.broadcast_round(1), Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod graph;
pub mod influence;
pub mod metrics;
pub mod notation;
pub mod scc;
mod seq;

pub use graph::{Digraph, EdgeError, Edges, InNeighbors, OutNeighbors, MAX_N};
pub use seq::{GraphSeq, Lasso};

/// A process identifier, `0 ≤ pid < n`.
///
/// The paper indexes processes `1 … n`; this crate is zero-based.
pub type Pid = usize;

/// A (one-based) round number; round `t` uses communication graph `G_t`.
///
/// Round `0` denotes the initial time before any communication, matching the
/// paper's process-time graph node `(p, 0, x_p)`.
pub type Round = usize;

/// A bitmask over process ids (`bit p` set ⟺ process `p` in the set).
///
/// [`MAX_N`] is 32, so a `u32` suffices; helper functions for mask
/// manipulation live in [`mask`].
pub type PidMask = u32;

/// Helpers for [`PidMask`] process-set bitmasks.
pub mod mask {
    use super::{Pid, PidMask};

    /// The full mask `{0, …, n−1}`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`crate::MAX_N`].
    #[inline]
    pub fn full(n: usize) -> PidMask {
        assert!(n <= crate::MAX_N, "n = {n} exceeds MAX_N = {}", crate::MAX_N);
        if n == 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }

    /// The singleton mask `{p}`.
    #[inline]
    pub fn singleton(p: Pid) -> PidMask {
        1u32 << p
    }

    /// Whether `p ∈ m`.
    #[inline]
    pub fn contains(m: PidMask, p: Pid) -> bool {
        m & (1 << p) != 0
    }

    /// Iterate over the members of `m` in increasing order.
    pub fn iter(m: PidMask) -> impl Iterator<Item = Pid> {
        let mut rest = m;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let p = rest.trailing_zeros() as Pid;
                rest &= rest - 1;
                p
            })
        })
    }

    /// The members of `m` as a sorted `Vec`.
    pub fn to_vec(m: PidMask) -> Vec<Pid> {
        iter(m).collect()
    }

    /// Build a mask from an iterator of pids.
    pub fn from_iter<I: IntoIterator<Item = Pid>>(pids: I) -> PidMask {
        pids.into_iter().fold(0, |m, p| m | singleton(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_roundtrip() {
        let m = mask::from_iter([0, 3, 7]);
        assert_eq!(mask::to_vec(m), vec![0, 3, 7]);
        assert!(mask::contains(m, 3));
        assert!(!mask::contains(m, 1));
    }

    #[test]
    fn mask_full_small_and_max() {
        assert_eq!(mask::full(1), 0b1);
        assert_eq!(mask::full(3), 0b111);
        assert_eq!(mask::full(32), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_N")]
    fn mask_full_rejects_large_n() {
        let _ = mask::full(33);
    }
}
