//! The [`GeneralMA`] family: graph pool + liveness + optional deadline.

use dyngraph::{scc, Digraph, GraphSeq, Lasso, PidMask, Round};
use serde::{Deserialize, Serialize};

use crate::MessageAdversary;

/// A liveness condition on infinite graph sequences.
///
/// `Liveness::None` means the adversary is the full product `pool^ω`
/// (oblivious). The other variants constrain which infinite sequences are
/// admissible; combined with a deadline in [`GeneralMA`] they stay compact,
/// without one they yield the paper's non-compact adversaries (§6.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Liveness {
    /// No condition: every sequence over the pool is admissible.
    None,
    /// Some round's graph equals the target (e.g. "eventually `↔`").
    OccursGraph {
        /// The graph that must occur.
        target: Digraph,
    },
    /// Some window of `window` consecutive rounds has a *vertex-stable root
    /// component*: each graph is rooted and the root-member set is the same
    /// across the window (the VSSC adversaries of [6, 23]).
    StableWindow {
        /// The required window length (the paper's stability interval).
        window: usize,
    },
}

impl Liveness {
    /// Whether the liveness event has been fully achieved within `prefix`.
    pub fn satisfied(&self, prefix: &GraphSeq) -> bool {
        match self {
            Liveness::None => true,
            Liveness::OccursGraph { target } => prefix.iter().any(|g| g == target),
            Liveness::StableWindow { window } => stable_window_position(prefix, *window).is_some(),
        }
    }
}

/// The earliest start round `s` such that rounds `s .. s+window−1` of
/// `prefix` all are rooted with one common root-member set, if any.
pub fn stable_window_position(prefix: &GraphSeq, window: usize) -> Option<Round> {
    if window == 0 {
        return Some(1);
    }
    let t = prefix.rounds();
    if t < window {
        return None;
    }
    let masks: Vec<Option<PidMask>> = prefix.iter().map(scc::rooted_source).collect();
    'outer: for s in 0..=(t - window) {
        let m = match masks[s] {
            Some(m) => m,
            None => continue,
        };
        for item in masks.iter().skip(s + 1).take(window - 1) {
            if *item != Some(m) {
                continue 'outer;
            }
        }
        return Some(s + 1);
    }
    None
}

/// The general message-adversary family; see the crate docs.
///
/// ```
/// use adversary::{GeneralMA, Liveness, MessageAdversary};
/// use dyngraph::{generators, Digraph, GraphSeq};
///
/// // Non-compact: "over {←, ↔, →}, eventually ↔ occurs".
/// let ma = GeneralMA::eventually_graph(
///     generators::lossy_link_full(),
///     Digraph::parse2("<->").unwrap(),
///     None,
/// );
/// assert!(!ma.is_compact());
/// // Every finite prefix is admissible (↔ can still come)…
/// assert!(ma.admits_prefix(&GraphSeq::parse2("-> -> <-").unwrap()));
/// // …but the ↔-free limit sequences are excluded.
/// let no_swap = dyngraph::Lasso::parse2("->").unwrap();
/// assert_eq!(ma.admits_lasso(&no_swap), Some(false));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneralMA {
    pool: Vec<Digraph>,
    liveness: Liveness,
    deadline: Option<Round>,
    label: String,
}

impl GeneralMA {
    /// Construct from parts.
    ///
    /// # Panics
    /// Panics if the pool is empty, mixes different `n`, or if a deadline is
    /// too short to ever satisfy the liveness.
    pub fn new(pool: Vec<Digraph>, liveness: Liveness, deadline: Option<Round>) -> Self {
        assert!(!pool.is_empty(), "pool must be nonempty");
        let n = pool[0].n();
        assert!(pool.iter().all(|g| g.n() == n), "pool graphs must agree on n");
        let mut pool: Vec<Digraph> = pool.into_iter().map(|g| g.normalized()).collect();
        pool.sort();
        pool.dedup();
        if let (Some(r), Liveness::StableWindow { window }) = (deadline, &liveness) {
            assert!(r >= *window, "deadline shorter than the stability window");
        }
        if let (Some(_), Liveness::OccursGraph { target }) = (deadline, &liveness) {
            assert!(pool.contains(&target.normalized()), "target graph not in pool");
        }
        let label = match (&liveness, deadline) {
            (Liveness::None, _) => format!("oblivious(|pool|={})", pool.len()),
            (Liveness::OccursGraph { target }, None) => {
                format!("eventually G={target} over |pool|={}", pool.len())
            }
            (Liveness::OccursGraph { target }, Some(r)) => {
                format!("G={target} within {r} rounds over |pool|={}", pool.len())
            }
            (Liveness::StableWindow { window }, None) => {
                format!("◇stable({window}) over |pool|={}", pool.len())
            }
            (Liveness::StableWindow { window }, Some(r)) => {
                format!("stable({window}) by round {r} over |pool|={}", pool.len())
            }
        };
        GeneralMA { pool, liveness, deadline, label }
    }

    /// The oblivious adversary over `pool` ([8, 21]): every sequence of pool
    /// graphs is admissible. Compact.
    pub fn oblivious(pool: Vec<Digraph>) -> Self {
        Self::new(pool, Liveness::None, None)
    }

    /// "`target` occurs (within `deadline`, if given)" over `pool`.
    /// Non-compact when `deadline` is `None`.
    pub fn eventually_graph(pool: Vec<Digraph>, target: Digraph, deadline: Option<Round>) -> Self {
        Self::new(pool, Liveness::OccursGraph { target }, deadline)
    }

    /// The eventually-stabilizing (VSSC-style) adversary of [6, 23]: some
    /// window of `window` rounds has a vertex-stable root component.
    /// Non-compact when `deadline` is `None`.
    pub fn stabilizing(pool: Vec<Digraph>, window: usize, deadline: Option<Round>) -> Self {
        Self::new(pool, Liveness::StableWindow { window }, deadline)
    }

    /// The graph pool.
    pub fn pool(&self) -> &[Digraph] {
        &self.pool
    }

    /// The liveness condition.
    pub fn liveness(&self) -> &Liveness {
        &self.liveness
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Round> {
        self.deadline
    }

    /// The compact approximation with liveness deadline `r`: admissible
    /// sequences that satisfy the liveness within the first `r` rounds.
    ///
    /// The approximations grow with `r` and their union is the original
    /// non-compact adversary (DESIGN.md §2).
    pub fn with_deadline(&self, r: Round) -> GeneralMA {
        GeneralMA::new(self.pool.clone(), self.liveness.clone(), Some(r))
    }

    /// Whether every graph of `prefix` is drawn from the pool.
    fn pool_valid(&self, prefix: &GraphSeq) -> bool {
        prefix.iter().all(|g| self.pool.contains(&crate::normal_form(g)))
    }

    /// Whether the liveness is *still achievable* given `prefix` (assuming
    /// unconstrained pool choices afterwards, subject to the deadline).
    fn liveness_achievable(&self, prefix: &GraphSeq) -> bool {
        match (&self.liveness, self.deadline) {
            (Liveness::None, _) => true,
            (_, None) => self.liveness_eventually_achievable(),
            (Liveness::OccursGraph { target }, Some(r)) => {
                let within = prefix.iter().take(r).any(|g| g == target);
                within || prefix.rounds() < r
            }
            (Liveness::StableWindow { window }, Some(r)) => {
                let masks: Vec<Option<PidMask>> = prefix.iter().map(scc::rooted_source).collect();
                self.window_achievable(&masks, *window, r)
            }
        }
    }

    /// [`liveness_achievable`](Self::liveness_achievable) of a stable-window
    /// liveness with deadline `r`, given the rooted-source masks of the
    /// prefix's rounds.
    fn window_achievable(&self, masks: &[Option<PidMask>], window: usize, r: Round) -> bool {
        // Look for a start s ≤ r − window + 1 such that the played part of
        // the window is stable-compatible and the unplayed part can be
        // filled from the pool.
        if window == 0 {
            return true;
        }
        if r < window {
            return false;
        }
        let t = masks.len();
        'starts: for s in 0..=(r - window) {
            // Window rounds are s+1 ..= s+window (1-based).
            let mut required: Option<PidMask> = None;
            let mut needs_future = false;
            for round in (s + 1)..=(s + window) {
                if round <= t {
                    let m = match masks[round - 1] {
                        Some(m) => m,
                        None => continue 'starts,
                    };
                    match required {
                        None => required = Some(m),
                        Some(req) if req == m => {}
                        Some(_) => continue 'starts,
                    }
                } else {
                    needs_future = true;
                }
            }
            if needs_future {
                // The pool must supply a graph with the required mask
                // (or any rooted graph if the window hasn't started).
                match required {
                    Some(req) => {
                        if self.pool.iter().any(|g| scc::rooted_source(g) == Some(req)) {
                            return true;
                        }
                    }
                    None => {
                        if self.pool.iter().any(|g| g.is_rooted()) {
                            return true;
                        }
                    }
                }
            } else {
                return true; // fully played, stable window found
            }
        }
        false
    }

    /// Whether the liveness can be satisfied at all by pool choices (the
    /// no-deadline case).
    fn liveness_eventually_achievable(&self) -> bool {
        match &self.liveness {
            Liveness::None => true,
            Liveness::OccursGraph { target } => self.pool.contains(&target.normalized()),
            Liveness::StableWindow { window } => {
                *window == 0 || self.pool.iter().any(|g| g.is_rooted())
            }
        }
    }
}

impl MessageAdversary for GeneralMA {
    fn n(&self) -> usize {
        self.pool[0].n()
    }

    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
        if !self.admits_prefix(prefix) {
            return Vec::new();
        }
        // A pool graph g now extends the prefix iff the liveness is still
        // achievable on prefix · g: pool validity follows, as pool graphs
        // are normalized pool members. Each g is tested without building
        // prefix · g.
        let t = prefix.rounds();
        match (&self.liveness, self.deadline) {
            (Liveness::None, _) | (_, None) => self.pool.clone(),
            (Liveness::OccursGraph { target }, Some(r)) => {
                let within = prefix.iter().take(r).any(|g| g == target);
                self.pool
                    .iter()
                    .filter(|&g| within || (t < r && g == target) || t + 1 < r)
                    .cloned()
                    .collect()
            }
            (Liveness::StableWindow { window }, Some(r)) => {
                let mut masks: Vec<Option<PidMask>> =
                    prefix.iter().map(scc::rooted_source).collect();
                self.pool
                    .iter()
                    .filter(|&g| {
                        masks.push(scc::rooted_source(g));
                        let achievable = self.window_achievable(&masks, *window, r);
                        masks.pop();
                        achievable
                    })
                    .cloned()
                    .collect()
            }
        }
    }

    fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
        self.pool_valid(prefix) && self.liveness_achievable(prefix)
    }

    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
        if lasso.n() != self.n() {
            return Some(false);
        }
        // Pool validity: check one full unrolling of prefix + cycle.
        let probe = lasso.unroll(lasso.prefix_len() + lasso.cycle_len());
        if !self.pool_valid(&probe) {
            return Some(false);
        }
        let satisfied_on_lasso =
            |horizon: usize| -> bool { self.liveness.satisfied(&lasso.unroll(horizon)) };
        let verdict = match (&self.liveness, self.deadline) {
            (Liveness::None, _) => true,
            (_, Some(r)) => satisfied_on_lasso(r),
            (Liveness::OccursGraph { .. }, None) => {
                // Occurs somewhere iff occurs within prefix + one cycle.
                satisfied_on_lasso(lasso.prefix_len() + lasso.cycle_len())
            }
            (Liveness::StableWindow { window }, None) => {
                // A window either sits inside the prefix region or intersects
                // the periodic part; prefix + 2 cycles + window covers all
                // phases.
                satisfied_on_lasso(lasso.prefix_len() + 2 * lasso.cycle_len() + window)
            }
        };
        Some(verdict)
    }

    fn is_compact(&self) -> bool {
        matches!(self.liveness, Liveness::None) || self.deadline.is_some()
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        Some(self.pool.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators;

    fn swap() -> Digraph {
        Digraph::parse2("<->").unwrap()
    }

    #[test]
    fn oblivious_admits_everything_over_pool() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        assert!(ma.is_compact());
        let p = GraphSeq::parse2("-> <- <-> ->").unwrap();
        assert!(ma.admits_prefix(&p));
        assert_eq!(ma.extensions(&p).len(), 3);
        // A graph outside the pool kills the prefix.
        let bad = p.extended(Digraph::empty(2));
        assert!(!ma.admits_prefix(&bad));
        assert!(ma.extensions(&bad).is_empty());
    }

    #[test]
    fn oblivious_lasso_membership() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        assert_eq!(ma.admits_lasso(&Lasso::parse2("->").unwrap()), Some(true));
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> | <-").unwrap()), Some(true));
        // ↔ is not in the reduced pool.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> | ->").unwrap()), Some(false));
    }

    #[test]
    fn eventually_graph_non_compact() {
        let ma = GeneralMA::eventually_graph(generators::lossy_link_full(), swap(), None);
        assert!(!ma.is_compact());
        // All prefixes stay alive.
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> -> -> ->").unwrap()));
        assert_eq!(ma.extensions(&GraphSeq::new()).len(), 3);
        // Lassos: admissible iff ↔ occurs in prefix or cycle.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> | ->").unwrap()), Some(true));
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> | <- ->").unwrap()), Some(false));
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> | <-> ->").unwrap()), Some(true));
    }

    #[test]
    fn eventually_graph_with_deadline_compact() {
        let ma = GeneralMA::eventually_graph(generators::lossy_link_full(), swap(), Some(3));
        assert!(ma.is_compact());
        // After 3 swap-free rounds the prefix is dead.
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> <-").unwrap()));
        assert!(!ma.admits_prefix(&GraphSeq::parse2("-> <- ->").unwrap()));
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> <- <->").unwrap()));
        // Extensions at round 3 are forced to ↔.
        let p = GraphSeq::parse2("-> <-").unwrap();
        let ext = ma.extensions(&p);
        assert_eq!(ext, vec![swap().normalized()]);
        // After satisfaction everything over the pool is allowed again.
        let ok = GraphSeq::parse2("<-> -> -> <- ->").unwrap();
        assert!(ma.admits_prefix(&ok));
        assert_eq!(ma.extensions(&ok).len(), 3);
    }

    #[test]
    fn stable_window_position_basics() {
        // For n = 2: →, ←, ↔ are all rooted with masks {0}, {1}, {0,1}.
        let p = GraphSeq::parse2("-> <- <- ->").unwrap();
        assert_eq!(stable_window_position(&p, 1), Some(1));
        assert_eq!(stable_window_position(&p, 2), Some(2)); // ← ← at rounds 2–3
        assert_eq!(stable_window_position(&p, 3), None);
    }

    #[test]
    fn stable_window_ignores_unrooted_rounds() {
        let mut p = GraphSeq::parse2("->").unwrap();
        p.push(Digraph::empty(2));
        p.push(Digraph::parse2("->").unwrap());
        assert_eq!(stable_window_position(&p, 2), None);
        p.push(Digraph::parse2("->").unwrap());
        assert_eq!(stable_window_position(&p, 2), Some(3));
    }

    #[test]
    fn stabilizing_with_deadline() {
        // Window 2 by round 3 over {←, →}: rounds (1,2) or (2,3) must agree.
        let ma = GeneralMA::stabilizing(generators::lossy_link_reduced(), 2, Some(3));
        assert!(ma.is_compact());
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> <-").unwrap())); // (2,3) can still be ← ←? round2=←,need round3=←
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> <- <-").unwrap()));
        assert!(!ma.admits_prefix(&GraphSeq::parse2("-> <- ->").unwrap()));
        // Forced extension after a broken start.
        let ext = ma.extensions(&GraphSeq::parse2("-> <-").unwrap());
        assert_eq!(ext, vec![Digraph::parse2("<-").unwrap()]);
    }

    #[test]
    fn stabilizing_no_deadline_non_compact() {
        let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
        assert!(!ma.is_compact());
        assert!(ma.admits_prefix(&GraphSeq::parse2("-> <- -> <-").unwrap()));
        // Alternating forever never stabilizes → excluded limit.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> <-").unwrap()), Some(false));
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> <- | <-> <->").unwrap()), Some(true));
        // Stable window inside the lasso prefix counts too.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> -> | <- ->").unwrap()), Some(true));
    }

    #[test]
    fn with_deadline_monotone() {
        let ma = GeneralMA::eventually_graph(generators::lossy_link_full(), swap(), None);
        let c3 = ma.with_deadline(3);
        let c5 = ma.with_deadline(5);
        // Every c3-admissible prefix of length ≤ 3 is c5-admissible.
        let p = GraphSeq::parse2("-> <->").unwrap();
        assert!(c3.admits_prefix(&p) && c5.admits_prefix(&p));
        let q = GraphSeq::parse2("-> -> -> ->").unwrap();
        assert!(!c3.admits_prefix(&q) && c5.admits_prefix(&q));
    }

    #[test]
    fn pool_normalization_dedups() {
        let mut g = Digraph::parse2("->").unwrap();
        g.add_edge(0, 0); // self-loop variant
        let ma = GeneralMA::oblivious(vec![g, Digraph::parse2("->").unwrap()]);
        assert_eq!(ma.pool().len(), 1);
    }

    #[test]
    #[should_panic(expected = "pool must be nonempty")]
    fn empty_pool_rejected() {
        let _ = GeneralMA::oblivious(vec![]);
    }

    #[test]
    #[should_panic(expected = "deadline shorter")]
    fn too_short_deadline_rejected() {
        let _ = GeneralMA::stabilizing(generators::lossy_link_full(), 4, Some(3));
    }

    #[test]
    fn describe_mentions_family() {
        assert!(GeneralMA::oblivious(generators::lossy_link_full())
            .describe()
            .contains("oblivious"));
        assert!(GeneralMA::stabilizing(generators::lossy_link_full(), 2, None)
            .describe()
            .contains("◇stable"));
    }
}
