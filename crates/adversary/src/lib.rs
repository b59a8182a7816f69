//! Message adversaries (paper §2) and their finite operationalization.
//!
//! A *message adversary* (MA) is a set of infinite sequences of communication
//! graphs; a graph sequence in the set is *admissible*. This crate provides:
//!
//! * the object-safe [`MessageAdversary`] trait — an MA exposed through its
//!   finitely-branching structure: which graphs may extend an admissible
//!   prefix, which finite prefixes are admissible, and (for ultimately
//!   periodic sequences) exact admissibility of [`Lasso`]s;
//! * [`GeneralMA`] — the concrete family covering every adversary used in
//!   the paper: a *pool* of per-round graphs plus an optional [`Liveness`]
//!   condition and an optional *deadline*:
//!   - pool only → **oblivious** adversaries ([8, 21]; compact),
//!   - liveness with deadline `R` → compact approximations ("the liveness
//!     event happens within `R` rounds"),
//!   - liveness without deadline → **non-compact** adversaries like the
//!     eventually-stabilizing ones of [6, 9, 23] (limits that never satisfy
//!     the liveness are excluded);
//! * [`UnionMA`] — finite unions of adversaries;
//! * [`enumerate`] — exhaustive expansion of the depth-`t` prefix space
//!   (inputs × admissible graph prefixes) with views interned, the input to
//!   the topological solvability checker;
//! * [`sample`] — randomized admissible prefixes and lassos;
//! * [`limit`] — excluded-limit analysis for non-compact adversaries
//!   (candidate *fair/unfair* limit sequences, paper Definition 5.16).
//!
//! # Quickstart
//!
//! ```
//! use adversary::{GeneralMA, MessageAdversary};
//! use dyngraph::generators;
//!
//! // The Santoro–Widmayer lossy link: oblivious over {←, ↔, →}.
//! let ma = GeneralMA::oblivious(generators::lossy_link_full());
//! assert!(ma.is_compact());
//! assert_eq!(ma.n(), 2);
//! // Every prefix over the pool is admissible; 3 extensions at every step.
//! let empty = dyngraph::GraphSeq::new();
//! assert_eq!(ma.extensions(&empty).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod catalog;
pub mod concat;
pub mod enumerate;
pub mod fingerprint;
mod general;
pub mod limit;
pub mod predicate;
pub mod sample;
pub mod spec;
mod union;

pub use concat::ConcatMA;
pub use general::{GeneralMA, Liveness};
pub use predicate::{IntersectMA, PredicateMA};
pub use spec::SpecTerm;
pub use union::UnionMA;

use std::borrow::Cow;

use dyngraph::{Digraph, GraphSeq, Lasso};

/// `g` without self-loops, borrowed when it has none: pools and words
/// hold normalized graphs, and so does every prefix the enumeration
/// builds from them.
pub(crate) fn normal_form(g: &Digraph) -> Cow<'_, Digraph> {
    if g.is_normalized() {
        Cow::Borrowed(g)
    } else {
        Cow::Owned(g.normalized())
    }
}

/// A boxed, thread-shareable adversary — the currency of the catalog
/// registry and the lab's scenario grids.
pub type DynMA = Box<dyn MessageAdversary + Send + Sync>;

/// An object-safe message adversary.
///
/// Implementations expose the MA through finite questions. The contract:
///
/// * [`admits_prefix`](Self::admits_prefix) is `true` iff the finite prefix
///   extends to at least one admissible infinite sequence;
/// * [`extensions`](Self::extensions) returns exactly the graphs `g` with
///   `admits_prefix(prefix · g)`, and nothing unless `admits_prefix(prefix)`;
/// * [`admits_lasso`](Self::admits_lasso) decides membership of an
///   ultimately periodic sequence, when the implementation can
///   (`None` = cannot decide);
/// * [`is_compact`](Self::is_compact) reports limit-closedness (paper §6.2):
///   compact ⟺ every convergent sequence of admissible sequences has an
///   admissible limit.
pub trait MessageAdversary {
    /// Number of processes.
    fn n(&self) -> usize;

    /// The graphs that may be played next after `prefix` while staying
    /// admissible: as a set, exactly the graphs `g` with
    /// `admits_prefix(prefix · g)`.
    ///
    /// The result is empty unless `admits_prefix(prefix)`. Combinators rely
    /// on this: [`ConcatMA`] asks its tail for extensions without checking
    /// the shifted prefix first.
    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph>;

    /// Whether `prefix` is the prefix of some admissible infinite sequence.
    fn admits_prefix(&self, prefix: &GraphSeq) -> bool;

    /// Whether the ultimately periodic sequence is admissible, if decidable.
    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool>;

    /// Whether the adversary is limit-closed (compact).
    fn is_compact(&self) -> bool;

    /// A short human-readable description.
    fn describe(&self) -> String;

    /// The per-round graph pool, if the adversary draws each round's graph
    /// from a fixed finite set. Enables pool-based analyses (exact
    /// distance-0 chain certificates, excluded-limit enumeration).
    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        None
    }

    /// A stable structural fingerprint — identical across runs for
    /// identically-structured adversaries; see [`fingerprint`]. Wrapper
    /// adversaries should override this to fold member fingerprints.
    ///
    /// The default hashes only what the trait exposes (`n`, compactness,
    /// `describe`, `pool_hint`). Implementations with behavior that those
    /// don't capture — user closures, external state — **must** override
    /// it (see [`PredicateMA`]'s per-construction nonce), or structurally
    /// different adversaries will collide in fingerprint-keyed caches.
    fn fingerprint(&self) -> u64 {
        fingerprint::structural(
            self.n(),
            self.is_compact(),
            &self.describe(),
            self.pool_hint().map(|pool| pool.iter().map(Digraph::code).collect()),
        )
    }
}

impl<T: MessageAdversary + ?Sized> MessageAdversary for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
        (**self).extensions(prefix)
    }

    fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
        (**self).admits_prefix(prefix)
    }

    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
        (**self).admits_lasso(lasso)
    }

    fn is_compact(&self) -> bool {
        (**self).is_compact()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        (**self).pool_hint()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

impl<T: MessageAdversary + ?Sized> MessageAdversary for &T {
    fn n(&self) -> usize {
        (**self).n()
    }

    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
        (**self).extensions(prefix)
    }

    fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
        (**self).admits_prefix(prefix)
    }

    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
        (**self).admits_lasso(lasso)
    }

    fn is_compact(&self) -> bool {
        (**self).is_compact()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        (**self).pool_hint()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::generators;

    #[test]
    fn trait_is_object_safe() {
        let ma: Box<dyn MessageAdversary> =
            Box::new(GeneralMA::oblivious(generators::lossy_link_reduced()));
        assert_eq!(ma.n(), 2);
        assert!(ma.is_compact());
        assert!(!ma.describe().is_empty());
    }
}
