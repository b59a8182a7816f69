//! **The consensus lab** — a batch experiment-orchestration layer over the
//! Nowak–Schmid–Winkler machinery (PODC 2019, arXiv:1905.09590).
//!
//! The paper's theorems are exercised one adversary at a time by the
//! `consensus-core` checkers; production workloads ask the opposite
//! question: *run every analysis over every adversary in a family, fast,
//! and store the answers*. This crate treats "check one adversary at one
//! depth with one analysis" as a unit of traffic — a [`scenario::Scenario`]
//! — and provides:
//!
//! * [`session`] — the **unified facade**: a [`session::Session`] owning
//!   the caches and worker pools once (built from typed
//!   [`consensus_core::config`] structs), answering single
//!   [`session::Query`]s and million-scenario batches through one code
//!   path;
//! * [`scenario`] — scenario specs (catalog entries or parsed pools ×
//!   depth × analysis kind) and deterministic grid builders;
//! * [`runner`] — the parallel [`runner::SweepRunner`]: scoped worker
//!   threads pulling from a shared queue, per-scenario step budgets,
//!   grid-ordered (deterministic) results;
//! * [`cache`] — the shared [`cache::SpaceCache`]: prefix spaces memoized
//!   by *(structural adversary fingerprint, input domain, depth)* and
//!   plugged into the core checker through
//!   [`consensus_core::solvability::SpaceSource`], so solvability,
//!   bivalence, broadcastability, component-stats, and simulator checks on
//!   the same cell all pay for **one** expansion (paper operations:
//!   Definition 6.2's ε-approximation is the shared object). Misses with a
//!   cached shallower space for the same *(fingerprint, domain)* are
//!   served by the **depth ladder** — one-round
//!   [`consensus_core::PrefixSpace::extend_from`] extensions instead of
//!   a from-scratch re-expansion;
//! * [`persist`] — the on-disk [`persist::DiskCache`]: deterministic
//!   verdicts (plus compact space digests) journaled to a salted cache
//!   directory, so a second sweep in a *new process* answers warm
//!   scenarios with zero expansions;
//! * [`store`] — the serde-style result store: order-stable JSONL records
//!   plus a CSV summary, with wall-time and state-space telemetry;
//! * [`report`] — aggregation over stored results;
//! * [`json`] — the dependency-free JSON encoder/parser backing the store.
//!
//! The `consensus-lab` binary exposes all of this as `sweep`, `check`,
//! `catalog`, and `report` subcommands.
//!
//! # Quickstart
//!
//! ```
//! use consensus_lab::scenario::{AdversarySpec, AnalysisKind};
//! use consensus_lab::session::{Query, Session};
//!
//! // Solvability × bivalence over one adversary at depths 1..=2.
//! let queries = Query::grid(
//!     &[AdversarySpec::catalog("cgp-reduced-lossy-link")],
//!     2,
//!     &[AnalysisKind::Solvability, AnalysisKind::Bivalence],
//! );
//! let session = Session::new().workers(2);
//! let report = session.check_many(&queries);
//! assert_eq!(report.store.records().len(), 4);
//! // The memoization cache built strictly fewer spaces than scenarios ran.
//! assert!(report.cache.builds < report.scenarios);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod gate;
/// The dependency-free JSON codec backing the store — extracted to the
/// shared `consensus-json` crate (so `consensus-serve` parses request
/// bodies with the same codec) and re-exported here under its long-time
/// path.
pub use json;
pub mod persist;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod session;
pub mod store;
pub mod trace;

pub use cache::SpaceCache;
pub use consensus_core::config::{AnalysisConfig, CacheConfig, ExpandConfig};
pub use consensus_core::error::{Error, SpecError};
pub use persist::DiskCache;
pub use runner::{SweepReport, SweepRunner};
pub use scenario::{AdversarySpec, AnalysisKind, GridBuilder, Scenario, Shard};
pub use session::{Query, QueryResult, Session};
pub use store::{ResultStore, ScenarioRecord};
