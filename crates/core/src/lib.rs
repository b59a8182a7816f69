//! **Topological characterization of consensus under general message
//! adversaries** — the executable core of *Nowak, Schmid, Winkler* (PODC
//! 2019, arXiv:1905.09590).
//!
//! The paper proves that consensus under a message adversary is solvable iff
//! the space `PS` of admissible process-time graph sequences can be
//! partitioned into decision sets that are open in the *minimum topology*
//! (Theorem 5.5), equivalently iff no connected component of `PS` contains
//! differently-valent sequences (Corollary 5.6), equivalently iff every
//! component is *broadcastable* (Theorem 5.11). For compact adversaries this
//! reduces to a finite check on ε-approximations (Theorem 6.6).
//!
//! This crate makes those theorems executable:
//!
//! * [`space::PrefixSpace`] — the depth-`t` prefix space of an adversary
//!   with its ε-approximation components (`ε = 2^{−t}`);
//! * [`solvability`] — the three-valued solvability checker and the
//!   meta-procedure of §5.1;
//! * [`universal`] — synthesis of the universal algorithm from the proof of
//!   Theorem 5.5, as a runnable [`simulator::Algorithm`];
//! * [`broadcast`] — broadcastability of components (Theorem 5.11 /
//!   Theorem 6.6);
//! * [`fair`] — fair/unfair limit machinery (Definition 5.16): exact
//!   distance-0 chains over lasso runs (rigorous impossibility
//!   certificates) and per-depth ε-chains (the finite shadows of forever
//!   bivalent runs);
//! * [`bivalence`] — the classic bivalence analysis of §6.1, reconstructed
//!   on top of the topological machinery;
//! * [`certificate`] — portable, independently checkable certificates for
//!   definitive verdicts: the synthesized decision table (solvable) or the
//!   broken ε-chain (unsolvable), re-verifiable in milliseconds without
//!   re-expanding the prefix space;
//! * [`baselines`] — the kernel-based criterion for `n = 2` oblivious
//!   adversaries (\[8\]) and simple sufficient conditions, used as ground
//!   truth in cross-validation;
//! * [`analysis`] — component statistics reports (the data behind the
//!   paper's Figures 4 and 5).
//!
//! # Quickstart
//!
//! ```
//! use consensus_core::solvability::{SolvabilityChecker, Verdict};
//! use adversary::GeneralMA;
//! use dyngraph::generators;
//!
//! // The reduced lossy link {←, →}: solvable (paper §6.1, [8]).
//! let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
//! let verdict = SolvabilityChecker::new(ma).max_depth(4).check();
//! match verdict {
//!     Verdict::Solvable(cert) => {
//!         assert_eq!(cert.depth, 1); // separation already at depth 1
//!     }
//!     other => panic!("expected solvable, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod bivalence;
pub mod broadcast;
pub mod certificate;
pub mod compactness;
pub mod config;
pub mod error;
pub mod fair;
#[cfg(test)]
mod paper_literal;
pub mod solvability;
pub mod space;
pub mod universal;

pub use certificate::{CertError, Certificate};
pub use config::{AnalysisConfig, CacheConfig, ExpandConfig};
pub use error::{Error, SpecError};
pub use solvability::{SolvabilityChecker, Verdict};
pub use space::PrefixSpace;
pub use universal::UniversalAlgorithm;
