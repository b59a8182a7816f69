//! Fair/unfair limit machinery (Definition 5.16) and impossibility
//! certificates.
//!
//! Two rigors are provided:
//!
//! 1. **Exact distance-0 chains** over ultimately periodic runs. If a chain
//!    of admissible infinite runs `z_v = r_0, r_1, …, r_k = z_w` with
//!    `d_min(r_i, r_{i+1}) = 0` (decided *exactly* by the contamination
//!    calculus) links a `v`-valent to a `w`-valent run, all of them lie in
//!    one connected component — consensus is **impossible** by Corollary
//!    5.6. Such chains exist whenever some admissible lasso has *no
//!    broadcaster* (the induction in the proof of Theorem 5.11): flip inputs
//!    one process at a time; each flip is invisible to some process forever.
//!
//! 2. **Per-depth ε-chains** through the prefix space. For adversaries whose
//!    one-component-ness arises only in the limit (e.g. the Santoro–Widmayer
//!    lossy link), no finite distance-0 chain exists; instead, for every
//!    depth `t` a chain of admissible runs links the valent prefixes with
//!    consecutive links sharing a process view at depth `t`. The chain
//!    family is the finite shadow of the *fair/unfair* limit sequences: the
//!    pivot runs converge to the forever-bivalent run of bivalence proofs
//!    (§6.1).

use adversary::MessageAdversary;
use dyngraph::{GraphSeq, Lasso, Pid};
use ptgraph::{contamination, InfiniteRun, Value};

use crate::space::PrefixSpace;

/// A verified exact distance-0 chain: an impossibility certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroChain {
    /// The chain runs, from a `v`-valent to a `w`-valent run.
    pub runs: Vec<InfiniteRun>,
    /// `links[i]` = a process that **never** distinguishes `runs[i]` and
    /// `runs[i+1]` (exact, via contamination).
    pub links: Vec<Pid>,
    /// The two valences connected.
    pub valences: (Value, Value),
}

impl ZeroChain {
    /// Re-verify the certificate from scratch: all runs admissible, ends
    /// valent, every link exactly distance 0.
    pub fn verify(&self, ma: &dyn MessageAdversary) -> bool {
        if self.runs.len() < 2 || self.links.len() + 1 != self.runs.len() {
            return false;
        }
        let (v, w) = self.valences;
        if v == w
            || !self.runs.first().expect("nonempty").is_valent(v)
            || !self.runs.last().expect("nonempty").is_valent(w)
        {
            return false;
        }
        for run in &self.runs {
            if ma.admits_lasso(run.lasso()) != Some(true) {
                return false;
            }
        }
        for (i, &p) in self.links.iter().enumerate() {
            let rep = contamination::analyze_infinite(&self.runs[i], &self.runs[i + 1]);
            if !rep.per_process[p].is_zero() {
                return false;
            }
        }
        true
    }
}

/// Search for an admissible lasso with **no broadcaster** among all pool
/// lassos with cycle length up to `max_cycle` (prefix-free).
///
/// Returns `None` if the adversary exposes no pool or no such lasso exists
/// within the searched shapes.
pub fn no_broadcaster_lasso(ma: &dyn MessageAdversary, max_cycle: usize) -> Option<Lasso> {
    let pool = ma.pool_hint()?;
    let n = ma.n();
    for cycle_len in 1..=max_cycle {
        // Enumerate pool^cycle_len cycles.
        let count = pool.len().checked_pow(cycle_len as u32)?;
        for mut idx in 0..count {
            let mut graphs = Vec::with_capacity(cycle_len);
            for _ in 0..cycle_len {
                graphs.push(pool[idx % pool.len()].clone());
                idx /= pool.len();
            }
            let lasso = Lasso::new(GraphSeq::new(), GraphSeq::from_graphs(graphs));
            if ma.admits_lasso(&lasso) != Some(true) {
                continue;
            }
            let no_broadcaster = (0..n).all(|p| lasso.broadcast_round(p).is_none());
            if n > 1 && no_broadcaster {
                return Some(lasso);
            }
        }
    }
    None
}

/// Build and verify an exact distance-0 chain from `v`-valent to `w`-valent
/// inputs along a no-broadcaster lasso (searched up to cycle length
/// `max_cycle`).
///
/// The flip order is chosen greedily: at each step, flip a process whose
/// change is invisible to some process forever (guaranteed to exist on a
/// no-broadcaster lasso).
pub fn exact_zero_chain(
    ma: &dyn MessageAdversary,
    v: Value,
    w: Value,
    max_cycle: usize,
) -> Option<ZeroChain> {
    assert_ne!(v, w, "valences must differ");
    let lasso = no_broadcaster_lasso(ma, max_cycle)?;
    let n = ma.n();
    let mut inputs = vec![v; n];
    let mut runs = vec![InfiniteRun::new(inputs.clone(), lasso.clone())];
    let mut links = Vec::new();
    for p in 0..n {
        inputs[p] = w;
        let next = InfiniteRun::new(inputs.clone(), lasso.clone());
        let rep = contamination::analyze_infinite(runs.last().expect("nonempty"), &next);
        let blind = rep.blind_processes().first().copied()?;
        links.push(blind);
        runs.push(next);
    }
    let chain = ZeroChain { runs, links, valences: (v, w) };
    chain.verify(ma).then_some(chain)
}

/// One link of an ε-chain through the prefix space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpsilonLink {
    /// Index of the next run on the chain.
    pub run: usize,
    /// A process whose depth-`t` view is shared with the previous run.
    pub shared_view_of: Pid,
}

/// A chain of runs through shared views at the space's depth, linking two
/// runs of the prefix space (BFS-shortest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpsilonChain {
    /// The starting run index.
    pub start: usize,
    /// The links; following them reaches the end run.
    pub links: Vec<EpsilonLink>,
    /// The space depth `t` (links have `d_min < 2^{−t}`).
    pub depth: usize,
}

impl EpsilonChain {
    /// The run indices along the chain, including both ends.
    pub fn run_indices(&self) -> Vec<usize> {
        let mut v = vec![self.start];
        v.extend(self.links.iter().map(|l| l.run));
        v
    }
}

/// BFS a shortest ε-chain from run `from` to run `to` in the prefix space
/// (links = shared `(process, view-at-depth)` buckets). `None` if the runs
/// are in different components.
pub fn epsilon_chain(space: &PrefixSpace, from: usize, to: usize) -> Option<EpsilonChain> {
    use std::collections::{HashMap, VecDeque};
    let depth = space.depth();
    if space.components().component_of(from) != space.components().component_of(to) {
        return None;
    }
    // bucket -> member runs
    let mut buckets: HashMap<(Pid, ptgraph::ViewId), Vec<usize>> = HashMap::new();
    for (i, run) in space.runs().iter().enumerate() {
        for p in 0..run.n() {
            buckets.entry((p, run.view(p, depth))).or_default().push(i);
        }
    }
    let mut prev: HashMap<usize, (usize, Pid)> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    prev.insert(from, (from, 0));
    while let Some(i) = queue.pop_front() {
        if i == to {
            break;
        }
        let run = &space.runs()[i];
        for p in 0..run.n() {
            for &j in &buckets[&(p, run.view(p, depth))] {
                if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(j) {
                    e.insert((i, p));
                    queue.push_back(j);
                }
            }
        }
    }
    if !prev.contains_key(&to) {
        return None;
    }
    // Reconstruct.
    let mut rev = Vec::new();
    let mut cur = to;
    while cur != from {
        let (par, p) = prev[&cur];
        rev.push(EpsilonLink { run: cur, shared_view_of: p });
        cur = par;
    }
    rev.reverse();
    Some(EpsilonChain { start: from, links: rev, depth })
}

/// Validate an ε-chain: every consecutive pair shares the claimed process's
/// view at the space depth.
pub fn validate_epsilon_chain(space: &PrefixSpace, chain: &EpsilonChain) -> bool {
    let depth = space.depth();
    let mut prev = chain.start;
    for link in &chain.links {
        let p = link.shared_view_of;
        if space.runs()[prev].view(p, depth) != space.runs()[link.run].view(p, depth) {
            return false;
        }
        prev = link.run;
    }
    true
}

/// A valence-connecting ε-chain at one depth, from the first `v`-valent
/// to the first `w`-valent run: evidence (not proof) of impossibility; the
/// family over growing depths is the finite shadow of a fair/unfair limit
/// (Definition 5.16).
///
/// The chain between the domain's first two values, in domain order, is
/// the one bivalence and solvability's undecided path ask for: it is
/// searched once per space and memoized there. Other pairs are searched
/// on every call.
pub fn valence_chain(space: &PrefixSpace, v: Value, w: Value) -> Option<EpsilonChain> {
    match space.values() {
        [first, second, ..] if (*first, *second) == (v, w) => space
            .first_valence_chain()
            .get_or_init(|| search_valence_chain(space, v, w))
            .clone(),
        _ => search_valence_chain(space, v, w),
    }
}

/// [`valence_chain`] without the memo.
pub(crate) fn search_valence_chain(
    space: &PrefixSpace,
    v: Value,
    w: Value,
) -> Option<EpsilonChain> {
    let runs = space.runs();
    let from = runs.iter().position(|r| r.is_valent(v))?;
    let to = runs.iter().position(|r| r.is_valent(w))?;
    epsilon_chain(space, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use dyngraph::{generators, Digraph};

    use crate::config::ExpandConfig;

    const CFG: ExpandConfig = ExpandConfig { max_runs: 1_000_000 };

    #[test]
    fn empty_graph_pool_yields_zero_chain() {
        // Pool {∅}: nobody ever hears anybody — flips are invisible.
        let ma = GeneralMA::oblivious(vec![Digraph::empty(2)]);
        let chain = exact_zero_chain(&ma, 0, 1, 2).expect("chain must exist");
        assert!(chain.verify(&ma));
        assert_eq!(chain.runs.len(), 3);
        assert_eq!(chain.valences, (0, 1));
    }

    #[test]
    fn unrooted_graph_in_pool_yields_zero_chain() {
        // n = 3 pool with a non-rooted graph (0→1 only): its constant lasso
        // has no broadcaster.
        let g = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let ma = GeneralMA::oblivious(vec![g]);
        let chain = exact_zero_chain(&ma, 0, 1, 2).expect("chain must exist");
        assert!(chain.verify(&ma));
        assert_eq!(chain.runs.len(), 4);
        // Every link names a process that never hears the flipped one.
        for (i, &p) in chain.links.iter().enumerate() {
            let rep = contamination::analyze_infinite(&chain.runs[i], &chain.runs[i + 1]);
            assert!(rep.per_process[p].is_zero());
        }
    }

    #[test]
    fn rooted_pools_have_no_zero_chain_within_small_cycles() {
        // {←, ↔, →}: every graph rooted; every constant or 2-cycle lasso has
        // a broadcaster → no exact chain (impossibility here is limit-only).
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        assert!(no_broadcaster_lasso(&ma, 3).is_none());
        assert!(exact_zero_chain(&ma, 0, 1, 3).is_none());
    }

    #[test]
    fn zero_chain_respects_admissibility() {
        // Non-compact adversary: "eventually ↔" excludes the ↔-free lassos,
        // so the no-broadcaster search must not return one. (All lassos with
        // ↔ have broadcasters, so: no chain.)
        let ma = GeneralMA::eventually_graph(
            generators::lossy_link_full(),
            Digraph::parse2("<->").unwrap(),
            None,
        );
        assert!(no_broadcaster_lasso(&ma, 2).is_none());
    }

    #[test]
    fn epsilon_chain_within_mixed_component() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let space = PrefixSpace::expand(&ma, &[0, 1], 3, &CFG).unwrap();
        let chain = valence_chain(&space, 0, 1).expect("mixed component must chain");
        assert!(validate_epsilon_chain(&space, &chain));
        assert!(space.runs()[chain.start].is_valent(0));
        let end = *chain.run_indices().last().unwrap();
        assert!(space.runs()[end].is_valent(1));
        assert!(chain.links.len() >= 2, "nontrivial chain expected");
    }

    #[test]
    fn epsilon_chain_none_across_components() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        // Separated: no valence chain.
        assert!(valence_chain(&space, 0, 1).is_none());
    }

    #[test]
    fn chain_family_grows_with_depth() {
        // The per-depth chains for the lossy link lengthen as depth grows —
        // the signature of a limit-only merge (fair sequence shadow).
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut prev_len = 0;
        for depth in 1..4 {
            let space = PrefixSpace::expand(&ma, &[0, 1], depth, &CFG).unwrap();
            let chain = valence_chain(&space, 0, 1).expect("chain exists at every depth");
            assert!(validate_epsilon_chain(&space, &chain));
            assert!(chain.links.len() >= prev_len, "chains should not shrink with depth");
            prev_len = chain.links.len();
        }
    }

    #[test]
    fn verify_rejects_tampered_chain() {
        let ma = GeneralMA::oblivious(vec![Digraph::empty(2)]);
        let mut chain = exact_zero_chain(&ma, 0, 1, 2).unwrap();
        chain.valences = (0, 0);
        assert!(!chain.verify(&ma));
    }
}
