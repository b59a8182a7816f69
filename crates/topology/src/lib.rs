//! A finite point-set topology toolkit.
//!
//! The paper's topological characterization operates on the space `PT^ω` of
//! infinite process-time graph sequences. Its computable shadow is a *finite*
//! space of depth-`t` prefixes where the only topological datum is the
//! relation "`a` and `b` lie in a common `ε`-ball" (`ε = 2^{−t}`): two runs
//! share a ball iff some process has the same view at time `t`. This crate
//! provides the generic machinery over such *bucketed* finite spaces:
//!
//! * [`UnionFind`] — classic disjoint sets;
//! * [`Components`] / [`components_by_buckets`] — connected components of
//!   the "shares a bucket" relation, which are exactly the paper's
//!   ε-approximations `PS^ε_z` (Definition 6.2) of the connected components;
//! * [`epsilon`] — the literal iterative construction of Definition 6.2
//!   (ball-by-ball BFS), kept alongside the union-find fast path and tested
//!   equal to it (Lemma 6.3);
//! * [`separation`] — partition/labeling utilities: valence purity,
//!   separation in the sense of the paper's Lemma 5.17, and refinement
//!   tracking across depths (Lemma 6.3(ii)).
//!
//! Everything here is deliberately independent of the consensus domain: the
//! points are `usize` indices and buckets are arbitrary hashable keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epsilon;
pub mod separation;
mod unionfind;

pub use unionfind::UnionFind;

use std::collections::HashMap;
use std::hash::Hash;

/// The connected components of a finite bucketed space.
///
/// Produced by [`components_by_buckets`]; component ids are
/// `0 … count() − 1` in order of smallest member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    comp_of: Vec<usize>,
    members: Vec<Vec<usize>>,
}

impl Components {
    /// Number of components.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Number of points.
    pub fn point_count(&self) -> usize {
        self.comp_of.len()
    }

    /// Component id of point `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn component_of(&self, i: usize) -> usize {
        self.comp_of[i]
    }

    /// Members of component `c`, sorted increasingly.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[c]
    }

    /// Iterate over all components.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.members.iter().map(Vec::as_slice)
    }

    /// Whether points `i` and `j` are connected.
    pub fn connected(&self, i: usize, j: usize) -> bool {
        self.comp_of[i] == self.comp_of[j]
    }

    /// Whether `self` refines `coarser`: every component of `self` is
    /// contained in a single component of `coarser` (Lemma 6.3(ii): deeper
    /// ε-approximations refine shallower ones).
    pub fn refines(&self, coarser: &Components) -> bool {
        if self.point_count() != coarser.point_count() {
            return false;
        }
        self.members.iter().all(|m| {
            let c = coarser.comp_of[m[0]];
            m.iter().all(|&i| coarser.comp_of[i] == c)
        })
    }
}

/// Compute connected components of the relation "some bucket contains both
/// points". `buckets` yields `(key, point)` pairs; all points sharing a key
/// are merged.
///
/// ```
/// use topology::components_by_buckets;
/// // 4 points; buckets: {0,1} share "a", {1,2} share "b", {3} alone.
/// let comps = components_by_buckets(4, [("a", 0), ("a", 1), ("b", 1), ("b", 2), ("c", 3)]);
/// assert_eq!(comps.count(), 2);
/// assert!(comps.connected(0, 2));
/// assert!(!comps.connected(0, 3));
/// ```
pub fn components_by_buckets<K, I>(num_points: usize, buckets: I) -> Components
where
    K: Hash + Eq,
    I: IntoIterator<Item = (K, usize)>,
{
    let mut uf = UnionFind::new(num_points);
    let mut first: HashMap<K, usize> = HashMap::new();
    for (key, point) in buckets {
        assert!(point < num_points, "point {point} out of range");
        match first.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                uf.union(*e.get(), point);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(point);
            }
        }
    }
    finish(uf)
}

/// [`components_by_buckets`] for *dense* bucket keys `0 … num_buckets − 1`:
/// the first-seen map is a flat array instead of a `HashMap`, so the merge
/// pass never hashes. Produces exactly the same [`Components`] as the
/// hashed version over the same `(key, point)` pairs (component ids are
/// canonical — ordered by smallest member — either way).
///
/// ```
/// use topology::components_by_dense_buckets;
/// let comps = components_by_dense_buckets(4, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]);
/// assert_eq!(comps.count(), 2);
/// assert!(comps.connected(0, 2));
/// assert!(!comps.connected(0, 3));
/// ```
///
/// # Panics
/// Panics if a point or bucket index is out of range.
pub fn components_by_dense_buckets<I>(
    num_points: usize,
    num_buckets: usize,
    buckets: I,
) -> Components
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut uf = UnionFind::new(num_points);
    let mut first: Vec<usize> = vec![usize::MAX; num_buckets];
    for (key, point) in buckets {
        assert!(point < num_points, "point {point} out of range");
        assert!(key < num_buckets, "bucket {key} out of range");
        if first[key] == usize::MAX {
            first[key] = point;
        } else {
            uf.union(first[key], point);
        }
    }
    finish(uf)
}

/// Components from an explicit edge list.
pub fn components_by_edges<I>(num_points: usize, edges: I) -> Components
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut uf = UnionFind::new(num_points);
    for (a, b) in edges {
        uf.union(a, b);
    }
    finish(uf)
}

/// Number the union-find classes in first-seen point order.
fn finish(mut uf: UnionFind) -> Components {
    let n = uf.len();
    // The component of each root, `usize::MAX` until the root is seen.
    let mut remap = vec![usize::MAX; n];
    let mut comp_of = Vec::with_capacity(n);
    let mut members: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let root = uf.find(i);
        if remap[root] == usize::MAX {
            remap[root] = members.len();
            members.push(Vec::new());
        }
        let c = remap[root];
        comp_of.push(c);
        members[c].push(i);
    }
    Components { comp_of, members }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_space() {
        let c = components_by_buckets::<u32, _>(0, []);
        assert_eq!(c.count(), 0);
        assert_eq!(c.point_count(), 0);
    }

    #[test]
    fn singletons_without_buckets() {
        let c = components_by_buckets::<u32, _>(3, []);
        assert_eq!(c.count(), 3);
        for i in 0..3 {
            assert_eq!(c.members(c.component_of(i)), &[i]);
        }
    }

    #[test]
    fn chain_merge() {
        let c = components_by_buckets(5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4)]);
        assert_eq!(c.count(), 2);
        assert!(c.connected(0, 2));
        assert!(c.connected(3, 4));
        assert!(!c.connected(2, 3));
    }

    #[test]
    fn component_ids_ordered_by_smallest_member() {
        let c = components_by_edges(4, [(2, 3)]);
        // Components: {0}, {1}, {2,3} → ids 0, 1, 2.
        assert_eq!(c.component_of(0), 0);
        assert_eq!(c.component_of(1), 1);
        assert_eq!(c.component_of(2), 2);
        assert_eq!(c.members(2), &[2, 3]);
    }

    #[test]
    fn members_partition_points() {
        let c = components_by_edges(6, [(0, 5), (1, 2), (2, 3)]);
        let mut all: Vec<usize> = c.iter().flatten().copied().collect();
        all.sort();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn refinement() {
        let coarse = components_by_edges(4, [(0, 1), (1, 2)]);
        let fine = components_by_edges(4, [(0, 1)]);
        assert!(fine.refines(&coarse));
        assert!(!coarse.refines(&fine));
        assert!(fine.refines(&fine));
    }

    #[test]
    fn refines_rejects_size_mismatch() {
        let a = components_by_edges(2, []);
        let b = components_by_edges(3, []);
        assert!(!a.refines(&b));
    }

    #[test]
    fn dense_buckets_match_hashed_buckets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.random_range(1..40);
            let b = rng.random_range(1..12usize);
            let pairs: Vec<(usize, usize)> = (0..rng.random_range(0..80))
                .map(|_| (rng.random_range(0..b), rng.random_range(0..n)))
                .collect();
            let hashed = components_by_buckets(n, pairs.iter().copied());
            let dense = components_by_dense_buckets(n, b, pairs.iter().copied());
            assert_eq!(hashed, dense);
        }
    }

    #[test]
    fn random_edges_match_bfs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.random_range(1..40);
            let m = rng.random_range(0..80);
            let edges: Vec<(usize, usize)> =
                (0..m).map(|_| (rng.random_range(0..n), rng.random_range(0..n))).collect();
            let comps = components_by_edges(n, edges.iter().copied());
            // Reference: BFS.
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in &edges {
                adj[a].push(b);
                adj[b].push(a);
            }
            let mut seen = vec![usize::MAX; n];
            let mut next_comp = 0;
            for s in 0..n {
                if seen[s] != usize::MAX {
                    continue;
                }
                let mut stack = vec![s];
                seen[s] = next_comp;
                while let Some(v) = stack.pop() {
                    for &w in &adj[v] {
                        if seen[w] == usize::MAX {
                            seen[w] = next_comp;
                            stack.push(w);
                        }
                    }
                }
                next_comp += 1;
            }
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(comps.connected(i, j), seen[i] == seen[j]);
                }
            }
        }
    }
}
