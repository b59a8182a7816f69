//! Broadcastability of connected components (Theorem 5.11 / Theorem 6.6).
//!
//! A set `A ⊆ PS` is *broadcastable by `p`* (Definition 5.8) if in every
//! `a ∈ A` there is a round `T(a)` by which every process has `p`'s initial
//! value in its view. Theorem 5.11: consensus is solvable iff every
//! connected component of `PS` is broadcastable by some process. Theorem 5.9
//! gives the mechanism: on a connected broadcastable set the broadcaster's
//! input is constant, so valences cannot mix.
//!
//! On the finite prefix space, broadcastability is checked *within the
//! horizon* (the paper's §6.2 closing remark justifies finite-prefix
//! checking for compact adversaries). [`BroadcastReport`] records, per
//! component, the broadcasters and the worst-case completion round `T̂`.

use dyngraph::Pid;

use crate::space::PrefixSpace;

/// Broadcastability data for one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentBroadcast {
    /// The component id.
    pub component: usize,
    /// Component size (number of runs).
    pub size: usize,
    /// Processes that broadcast in **every** run of the component within
    /// the horizon, each with its worst-case completion round `T̂`.
    pub broadcasters: Vec<(Pid, usize)>,
}

impl ComponentBroadcast {
    /// Whether the component is broadcastable within the horizon.
    pub fn is_broadcastable(&self) -> bool {
        !self.broadcasters.is_empty()
    }

    /// The best (earliest-completing) broadcaster.
    pub fn best(&self) -> Option<(Pid, usize)> {
        self.broadcasters.iter().copied().min_by_key(|&(_, t)| t)
    }
}

/// Per-component broadcastability of a prefix space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    /// One entry per component, in component order.
    pub components: Vec<ComponentBroadcast>,
    /// The space's depth (horizon).
    pub depth: usize,
}

impl BroadcastReport {
    /// Whether every component is broadcastable — the Theorem 6.6 check at
    /// this ε.
    pub fn all_broadcastable(&self) -> bool {
        self.components.iter().all(ComponentBroadcast::is_broadcastable)
    }

    /// Ids of non-broadcastable components.
    pub fn failing_components(&self) -> Vec<usize> {
        self.components
            .iter()
            .filter(|c| !c.is_broadcastable())
            .map(|c| c.component)
            .collect()
    }
}

/// Compute the broadcast report of a prefix space.
pub fn broadcast_report(space: &PrefixSpace) -> BroadcastReport {
    let comps = space.components();
    let mut out = Vec::with_capacity(comps.count());
    for c in 0..comps.count() {
        let members = comps.members(c);
        let mut broadcasters = Vec::new();
        'procs: for p in 0..space.n() {
            let mut worst = 0usize;
            for &i in members {
                match space.runs()[i].broadcast_complete(p) {
                    Some(t) => worst = worst.max(t),
                    None => continue 'procs,
                }
            }
            broadcasters.push((p, worst));
        }
        out.push(ComponentBroadcast { component: c, size: members.len(), broadcasters });
    }
    BroadcastReport { components: out, depth: space.depth() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use dyngraph::generators;

    use crate::config::ExpandConfig;

    const CFG: ExpandConfig = ExpandConfig { max_runs: 1_000_000 };

    #[test]
    fn reduced_lossy_link_broadcastable() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        let rep = broadcast_report(&space);
        assert!(rep.all_broadcastable());
        assert!(rep.failing_components().is_empty());
        for c in &rep.components {
            let (_, t) = c.best().unwrap();
            assert!(t <= 2);
        }
    }

    #[test]
    fn full_lossy_link_mixed_component_fails() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let space = PrefixSpace::expand(&ma, &[0, 1], 3, &CFG).unwrap();
        let rep = broadcast_report(&space);
        assert!(!rep.all_broadcastable());
        // Theorem 5.11 agreement: separation fails ⟺ some component is not
        // broadcastable (at the same resolution the implications line up for
        // these adversaries; asserted as a cross-check).
        assert!(!space.separation().is_separated());
    }

    #[test]
    fn characterizations_agree_on_oblivious_n2_families() {
        // Corollary 5.6 (valence purity) vs Theorem 5.11 (broadcastability)
        // on every nonempty subset of the four 2-process graphs, at depth 3:
        // purity ⟸ broadcastability always (Thm 5.9); for these compact
        // families they coincide at a modest depth.
        let all: Vec<_> = generators::all_graphs(2).collect();
        for bits in 1u32..16 {
            let pool: Vec<_> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, g)| g.clone())
                .collect();
            let ma = GeneralMA::oblivious(pool);
            let space = PrefixSpace::expand(&ma, &[0, 1], 3, &CFG).unwrap();
            let pure = space.separation().is_separated();
            let broadcastable = broadcast_report(&space).all_broadcastable();
            if broadcastable {
                assert!(pure, "broadcastable but not pure for bits {bits:#b}");
            }
            // At depth 3 the n=2 families have converged: the two
            // characterizations agree.
            assert_eq!(pure, broadcastable, "characterizations disagree at bits {bits:#b}");
        }
    }

    #[test]
    fn single_process_trivially_broadcastable() {
        let ma = GeneralMA::oblivious(vec![dyngraph::Digraph::empty(1)]);
        let space = PrefixSpace::expand(&ma, &[0, 1], 1, &ExpandConfig::with_budget(1000)).unwrap();
        let rep = broadcast_report(&space);
        assert!(rep.all_broadcastable());
    }
}
