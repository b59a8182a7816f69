//! Round-concatenation: a fixed finite graph word prefixed to an adversary.
//!
//! [`ConcatMA`] is the semantic home of the spec language's
//! `prefix(word, term)` combinator: the admissible sequences are exactly
//! `word · σ` for `σ` admissible under the tail adversary. Prepending a
//! finite word is a homeomorphism onto a clopen subset of the sequence
//! space, so compactness (limit-closedness) is inherited from the tail.

use dyngraph::{Digraph, GraphSeq, Lasso};

use crate::{fingerprint, DynMA, MessageAdversary};

/// The adversary `{word · σ | σ admissible under tail}`.
///
/// ```
/// use adversary::{ConcatMA, GeneralMA, MessageAdversary};
/// use dyngraph::{generators, GraphSeq};
///
/// // One forced ↔ round, then the free lossy link.
/// let ma = ConcatMA::new(
///     GraphSeq::parse2("<->").unwrap(),
///     Box::new(GeneralMA::oblivious(generators::lossy_link_full())),
/// );
/// assert!(ma.admits_prefix(&GraphSeq::parse2("<-> ->").unwrap()));
/// assert!(!ma.admits_prefix(&GraphSeq::parse2("-> ->").unwrap()));
/// // Round 1 is forced to the word.
/// assert_eq!(ma.extensions(&GraphSeq::new()).len(), 1);
/// ```
pub struct ConcatMA {
    /// The forced prefix word, graphs normalized.
    word: GraphSeq,
    tail: DynMA,
}

impl ConcatMA {
    /// Build `word · tail`. An empty word behaves exactly like `tail`.
    ///
    /// # Panics
    /// Panics if the word's graphs disagree with the tail on `n`.
    pub fn new(word: GraphSeq, tail: DynMA) -> Self {
        let word: GraphSeq = word.iter().map(Digraph::normalized).collect();
        if let Some(n) = word.n() {
            assert_eq!(n, tail.n(), "prefix word and tail adversary must agree on n");
        }
        ConcatMA { word, tail }
    }

    /// The forced prefix word.
    pub fn word(&self) -> &GraphSeq {
        &self.word
    }

    /// Whether the first `min(prefix.rounds(), word.rounds())` rounds of
    /// `prefix` follow the word.
    fn follows_word(&self, prefix: &GraphSeq) -> bool {
        (1..=prefix.rounds().min(self.word.rounds()))
            .all(|t| *crate::normal_form(prefix.graph(t)) == *self.word.graph(t))
    }

    /// `prefix` with the first `k` rounds dropped.
    fn shifted(prefix: &GraphSeq, k: usize) -> GraphSeq {
        prefix.iter().skip(k).cloned().collect()
    }
}

impl MessageAdversary for ConcatMA {
    fn n(&self) -> usize {
        self.tail.n()
    }

    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
        if !self.follows_word(prefix) {
            return Vec::new();
        }
        let k = self.word.rounds();
        if prefix.rounds() >= k {
            // The tail's extensions are empty unless it admits the shifted
            // prefix, so that is not checked here first.
            self.tail.extensions(&Self::shifted(prefix, k))
        } else if self.tail.admits_prefix(&GraphSeq::new()) {
            vec![self.word.graph(prefix.rounds() + 1).clone()]
        } else {
            Vec::new()
        }
    }

    fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
        if !self.follows_word(prefix) {
            return false;
        }
        let k = self.word.rounds();
        if prefix.rounds() <= k {
            // The word itself must still extend into the tail.
            self.tail.admits_prefix(&GraphSeq::new())
        } else {
            self.tail.admits_prefix(&Self::shifted(prefix, k))
        }
    }

    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
        if lasso.n() != self.n() {
            return Some(false);
        }
        let k = self.word.rounds();
        if !(1..=k).all(|t| lasso.graph_at(t).normalized() == *self.word.graph(t)) {
            return Some(false);
        }
        // The suffix from round k+1 on is again ultimately periodic: drop
        // the consumed rounds from the lasso's prefix, rotating into the
        // cycle when the word outruns it.
        let shifted = if k <= lasso.prefix_len() {
            let rest: GraphSeq =
                ((k + 1)..=lasso.prefix_len()).map(|t| lasso.graph_at(t).clone()).collect();
            let cycle: GraphSeq = ((lasso.prefix_len() + 1)
                ..=(lasso.prefix_len() + lasso.cycle_len()))
                .map(|t| lasso.graph_at(t).clone())
                .collect();
            Lasso::new(rest, cycle)
        } else {
            let cycle: GraphSeq =
                ((k + 1)..=(k + lasso.cycle_len())).map(|t| lasso.graph_at(t).clone()).collect();
            Lasso::new(GraphSeq::new(), cycle)
        };
        self.tail.admits_lasso(&shifted)
    }

    fn is_compact(&self) -> bool {
        self.tail.is_compact()
    }

    fn describe(&self) -> String {
        format!("prefix[{}] · {}", self.word, self.tail.describe())
    }

    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        // Every round's graph is drawn from word ∪ tail-pool — a valid
        // (if loose) per-round pool for pool-based analyses.
        let mut pool = self.tail.pool_hint()?;
        pool.extend(self.word.iter().cloned());
        pool.sort();
        pool.dedup();
        Some(pool)
    }

    fn fingerprint(&self) -> u64 {
        // Structural: the word codes in order (length-prefixed) folded with
        // the tail's fingerprint.
        let members: Vec<u64> = std::iter::once(self.word.rounds() as u64)
            .chain(self.word.iter().map(Digraph::code))
            .chain(std::iter::once(self.tail.fingerprint()))
            .collect();
        fingerprint::combine("prefix", members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneralMA;
    use dyngraph::generators;

    fn lossy() -> DynMA {
        Box::new(GeneralMA::oblivious(generators::lossy_link_full()))
    }

    fn swap_then_lossy() -> ConcatMA {
        ConcatMA::new(GraphSeq::parse2("<-> ->").unwrap(), lossy())
    }

    #[test]
    fn forced_word_then_free_tail() {
        let ma = swap_then_lossy();
        assert_eq!(ma.n(), 2);
        // Rounds 1 and 2 are forced.
        assert_eq!(ma.extensions(&GraphSeq::new()), vec![Digraph::parse2("<->").unwrap()]);
        let p = GraphSeq::parse2("<->").unwrap();
        assert_eq!(ma.extensions(&p), vec![Digraph::parse2("->").unwrap()]);
        // After the word, the tail's three extensions open up.
        let p = GraphSeq::parse2("<-> ->").unwrap();
        assert_eq!(ma.extensions(&p).len(), 3);
        assert!(ma.admits_prefix(&GraphSeq::parse2("<-> -> <- <-").unwrap()));
        assert!(!ma.admits_prefix(&GraphSeq::parse2("<-> <- ->").unwrap()));
    }

    #[test]
    fn empty_word_is_transparent() {
        let ma = ConcatMA::new(GraphSeq::new(), lossy());
        let p = GraphSeq::parse2("-> <- <->").unwrap();
        assert!(ma.admits_prefix(&p));
        assert_eq!(ma.extensions(&p).len(), 3);
        assert_eq!(ma.admits_lasso(&Lasso::parse2("->").unwrap()), Some(true));
    }

    #[test]
    fn lasso_membership_shifts_into_tail() {
        // Word <-> then "eventually <-" over {→, ←}: the ← must come after
        // the word.
        let tail = GeneralMA::eventually_graph(
            generators::lossy_link_reduced(),
            Digraph::parse2("<-").unwrap(),
            None,
        );
        let ma = ConcatMA::new(GraphSeq::parse2("<->").unwrap(), Box::new(tail));
        // Bad round 1.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("-> | <-").unwrap()), Some(false));
        // Word then ← forever: admissible.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> | <-").unwrap()), Some(true));
        // Word then → forever: the liveness never fires.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> | ->").unwrap()), Some(false));
        // Word consumed out of the cycle: lasso (<-> <-)^ω with empty
        // prefix — round 1 is <->, the shifted tail is (<- <->)^ω, which
        // contains ← but also the off-pool <->.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> <-").unwrap()), Some(false));
        // (<-> ... ) where the shifted cycle stays in the reduced pool:
        // prefix <->, cycle (<- ->)^ω.
        assert_eq!(ma.admits_lasso(&Lasso::parse2("<-> | <- ->").unwrap()), Some(true));
    }

    #[test]
    fn compactness_and_fingerprint_inherit_structure() {
        let a = swap_then_lossy();
        let b = swap_then_lossy();
        assert!(a.is_compact());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different word → different fingerprint.
        let c = ConcatMA::new(GraphSeq::parse2("-> <->").unwrap(), lossy());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Word order matters (it is a sequence, not a pool).
        assert!(a.describe().contains("prefix["));
    }

    #[test]
    fn pool_hint_unions_word_and_tail() {
        let ma = ConcatMA::new(
            GraphSeq::from_graphs(vec![Digraph::empty(2)]),
            Box::new(GeneralMA::oblivious(generators::lossy_link_reduced())),
        );
        let hint = ma.pool_hint().unwrap();
        assert_eq!(hint.len(), 3, "{{., →, ←}}: {hint:?}");
    }

    #[test]
    #[should_panic(expected = "agree on n")]
    fn word_must_match_tail_n() {
        let word = GraphSeq::from_graphs(vec![Digraph::empty(3)]);
        let _ = ConcatMA::new(word, lossy());
    }
}
