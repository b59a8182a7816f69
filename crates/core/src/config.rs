//! Typed configuration for the expansion engine, the analyses, and the
//! caching layers — the `Config` half of the [`Session`]/`Query` facade.
//!
//! A knob is a named field with a documented default, so adding the next
//! one does not change any signature.
//!
//! * [`ExpandConfig`] — how large a prefix space may grow (run budget);
//! * [`AnalysisConfig`] — what the solvability analyses do (depth ladder
//!   ceiling, validity flavor, chain search);
//! * [`CacheConfig`] — where answers are memoized (in-memory spaces,
//!   on-disk verdict journal), consumed by the lab's `Session`.
//!
//! All three are plain `Clone + Debug` data with builder-style setters, so
//! they can be constructed once and shared across a whole batch.
//!
//! [`Session`]: https://docs.rs/consensus-lab

use std::path::PathBuf;

/// Configuration of a prefix-space expansion pass.
///
/// ```
/// use consensus_core::config::ExpandConfig;
///
/// let cfg = ExpandConfig::new().max_runs(500_000);
/// assert_eq!(cfg.max_runs, 500_000);
/// assert_eq!(cfg, ExpandConfig::with_budget(500_000));
/// // Default: the 2·10⁶-run budget.
/// assert_eq!(ExpandConfig::default().max_runs, 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandConfig {
    /// Step budget: the maximum number of admissible runs an expansion may
    /// produce before it fails with [`Error::Budget`](crate::Error::Budget).
    pub max_runs: usize,
}

impl Default for ExpandConfig {
    fn default() -> Self {
        ExpandConfig { max_runs: 2_000_000 }
    }
}

impl ExpandConfig {
    /// The default configuration: 2·10⁶-run budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// A configuration with an explicit run budget.
    pub fn with_budget(max_runs: usize) -> Self {
        ExpandConfig { max_runs }
    }

    /// Set the run budget.
    pub fn max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }
}

/// Configuration of the solvability analysis — the depth ladder the
/// meta-procedure climbs and the flavor of consensus it decides.
///
/// ```
/// use consensus_core::config::AnalysisConfig;
///
/// let cfg = AnalysisConfig::new().max_depth(4).strong_validity(true);
/// assert_eq!(cfg.max_depth, 4);
/// assert!(cfg.strong_validity);
/// assert_eq!(cfg.max_chain_cycle, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Deepest resolution `t` of the ladder (`ε = 2^{−t}`); the checker
    /// sweeps depths `0..=max_depth` until the valences separate.
    ///
    /// Applies to direct `SolvabilityChecker` runs. `Session` queries
    /// carry their own depth, which takes precedence — a solvability
    /// query at depth `d` ladders to `d` regardless of this field.
    pub max_depth: usize,
    /// Require *strong validity* (every decision is some process's input,
    /// the variant the paper notes after Definition 5.1) instead of the
    /// default weak validity.
    pub strong_validity: bool,
    /// Maximum lasso cycle length searched for exact distance-0
    /// impossibility chains (phase 1 of the meta-procedure).
    pub max_chain_cycle: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { max_depth: 6, strong_validity: false, max_chain_cycle: 3 }
    }
}

impl AnalysisConfig {
    /// The default configuration: depth ladder to 6, weak validity,
    /// chain cycles up to 3.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the deepest ladder resolution.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Require strong validity.
    pub fn strong_validity(mut self, enable: bool) -> Self {
        self.strong_validity = enable;
        self
    }

    /// Set the maximum lasso cycle length for exact chains.
    pub fn max_chain_cycle(mut self, cycle: usize) -> Self {
        self.max_chain_cycle = cycle;
        self
    }
}

/// Configuration of the caching layers a batch session holds.
///
/// Consumed by the lab's `Session`: `memory` governs the shared in-memory
/// prefix-space cache, `disk_dir` the persistent verdict journal, and
/// `resume` whether an existing journal may *answer* queries (it is always
/// written to).
///
/// ```
/// use consensus_core::config::CacheConfig;
///
/// let cfg = CacheConfig::new().disk_dir("sweep-cache");
/// assert!(cfg.memory);
/// assert!(cfg.resume);
/// assert_eq!(cfg.disk_dir.as_deref().unwrap().to_str(), Some("sweep-cache"));
/// assert_eq!(CacheConfig::default().disk_dir, None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Memoize prefix spaces in memory across queries of one batch session
    /// (the shared `SpaceCache`). Disabling makes every batch start cold.
    pub memory: bool,
    /// Directory of the persistent verdict journal; `None` disables
    /// persistence.
    pub disk_dir: Option<PathBuf>,
    /// Answer warm queries from an existing journal. When `false` the
    /// journal is still written, but prior entries are not consulted —
    /// every query recomputes.
    pub resume: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { memory: true, disk_dir: None, resume: true }
    }
}

impl CacheConfig {
    /// The default configuration: in-memory memoization, no persistence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable in-memory prefix-space memoization.
    pub fn memory(mut self, enable: bool) -> Self {
        self.memory = enable;
        self
    }

    /// Persist verdicts to (and answer them from) this directory.
    pub fn disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// Allow or forbid answering queries from an existing journal.
    pub fn resume(mut self, enable: bool) -> Self {
        self.resume = enable;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_legacy_constructors() {
        // The defaults `SolvabilityChecker::new` has always used, so
        // config-free sessions reproduce historical outputs.
        assert_eq!(ExpandConfig::default().max_runs, 2_000_000);
        let a = AnalysisConfig::default();
        assert_eq!((a.max_depth, a.strong_validity, a.max_chain_cycle), (6, false, 3));
        let c = CacheConfig::default();
        assert!(c.memory && c.resume && c.disk_dir.is_none());
    }

    #[test]
    fn builders_compose() {
        assert_eq!(ExpandConfig::new().max_runs(10), ExpandConfig::with_budget(10));
        let a = AnalysisConfig::new().max_chain_cycle(5).max_depth(2);
        assert_eq!((a.max_depth, a.max_chain_cycle), (2, 5));
        let c = CacheConfig::new().memory(false).resume(false);
        assert!(!c.memory && !c.resume);
    }
}
