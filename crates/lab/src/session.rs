//! The unified `Session`/`Query` facade — one typed, batch-first entry
//! point over the whole stack.
//!
//! The paper's characterization is, operationally, a query: *is consensus
//! solvable under adversary `A` at resolution `d`?* Production workloads
//! ask it (and its sibling analyses) millions of times over adversary
//! families. Before this module, answering one query meant choosing among
//! five `PrefixSpace` builders, wiring a `SpaceCache`, a `DiskCache`, and
//! a `SweepRunner` by hand, and threading `threads`/`max_runs` knobs
//! positionally through each. A [`Session`] owns all of that once:
//!
//! * the shared in-memory [`SpaceCache`] (prefix spaces memoized by
//!   *(fingerprint, domain, depth)* with depth-laddering),
//! * the optional persistent verdict journal ([`DiskCache`]),
//! * the scenario worker pool and the expansion run budget,
//!
//! and exposes two methods: [`Session::check`] for one [`Query`] and
//! [`Session::check_many`] for a batch. Both route through the *same*
//! sweep machinery ([`SweepRunner`]), so a single check and a
//! million-scenario sweep share one code path — and one cache.
//!
//! ```
//! use consensus_lab::session::{Query, Session};
//! use consensus_lab::scenario::AnalysisKind;
//!
//! let session = Session::new();
//! // One query…
//! let record = session
//!     .check(&Query::catalog("cgp-reduced-lossy-link", 3, AnalysisKind::Solvability))
//!     .unwrap();
//! assert_eq!(record.outcome.verdict, "solvable");
//! // …and a batch over the same session share the space cache.
//! let queries = Query::catalog_grid(2, &AnalysisKind::ALL);
//! let report = session.check_many(&queries);
//! assert_eq!(report.store.records().len(), queries.len());
//! assert!(report.cache.builds < report.scenarios);
//! ```

use std::time::Duration;

use adversary::enumerate::BudgetExceeded;
use consensus_core::config::{AnalysisConfig, CacheConfig, ExpandConfig};
use consensus_core::error::Error;
use consensus_core::{CertError, Certificate};

use crate::cache::SpaceCache;
use crate::persist::DiskCache;
use crate::runner::{SweepReport, SweepRunner};
use crate::scenario::{AdversarySpec, AnalysisKind, GridBuilder, Scenario};
use crate::store::ScenarioRecord;

/// One question for the machinery: *(adversary, resolution depth,
/// analysis)*. Budgets and engine knobs live in the [`Session`]'s configs,
/// not here — a query is pure identity, cheap to clone and grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The adversary under analysis.
    pub spec: AdversarySpec,
    /// The resolution depth `t` (`ε = 2^{−t}`).
    pub depth: usize,
    /// The analysis to run on the `(adversary, depth)` cell.
    pub analysis: AnalysisKind,
    /// Attach the checkable [`Certificate`] to the record's JSON, when the
    /// verdict is definitive (see [`Query::with_certificate`]). Off by
    /// default: certificates are opt-in payload, not part of the byte-stable
    /// baseline record.
    pub certificate: bool,
}

/// The answer to one [`Query`]: the full scenario record (verdict, detail
/// fields, state-space telemetry, ground-truth comparison).
pub type QueryResult = ScenarioRecord;

impl Query {
    /// A query over an explicit spec.
    pub fn new(spec: AdversarySpec, depth: usize, analysis: AnalysisKind) -> Self {
        Query { spec, depth, analysis, certificate: false }
    }

    /// Request the checkable certificate: the record's JSON gains a
    /// `certificate` field carrying the [`Certificate`] artifact whenever
    /// the verdict is definitive (solvable/unsolvable under
    /// [`AnalysisKind::Solvability`]). Verify it offline with
    /// [`verify_certificate`] or `consensus-lab verify-cert`.
    #[must_use]
    pub fn with_certificate(mut self) -> Self {
        self.certificate = true;
        self
    }

    /// A query over a named catalog entry.
    pub fn catalog(name: &str, depth: usize, analysis: AnalysisKind) -> Self {
        Query::new(AdversarySpec::catalog(name), depth, analysis)
    }

    /// A query over a spec-language string (the shared parser of
    /// [`adversary::spec`]): `Query::spec("union(pool(->), pool(<-))", 3,
    /// AnalysisKind::Solvability)`.
    ///
    /// # Errors
    /// Returns [`Error::Spec`] locating the first malformed byte.
    pub fn spec(spec: &str, depth: usize, analysis: AnalysisKind) -> Result<Self, Error> {
        Ok(Query::new(AdversarySpec::parse(spec)?, depth, analysis))
    }

    /// The spec × depth × analysis grid over explicit specs, in the
    /// canonical sweep order (depths `1..=max_depth`, analyses in
    /// [`AnalysisKind::ALL`] order).
    pub fn grid(
        specs: &[AdversarySpec],
        max_depth: usize,
        analyses: &[AnalysisKind],
    ) -> Vec<Query> {
        // Delegate to the scenario GridBuilder so query grids and legacy
        // scenario grids can never drift apart in ordering.
        GridBuilder::new(max_depth, 0)
            .analyses(analyses)
            .over_specs(specs)
            .into_iter()
            .map(|s| Query {
                spec: s.spec,
                depth: s.depth,
                analysis: s.analysis,
                certificate: false,
            })
            .collect()
    }

    /// [`grid`](Self::grid) over the whole built-in catalog.
    pub fn catalog_grid(max_depth: usize, analyses: &[AnalysisKind]) -> Vec<Query> {
        let specs: Vec<AdversarySpec> = adversary::catalog::entries()
            .iter()
            .map(|e| AdversarySpec::catalog(e.name))
            .collect();
        Self::grid(&specs, max_depth, analyses)
    }

    /// A human-readable one-liner.
    pub fn label(&self) -> String {
        format!("{}@{}/{}", self.spec.label(), self.depth, self.analysis)
    }

    fn to_scenario(&self, max_runs: usize) -> Scenario {
        Scenario {
            spec: self.spec.clone(),
            depth: self.depth,
            analysis: self.analysis,
            max_runs,
            certificate: self.certificate,
        }
    }
}

/// Re-check a certificate against the adversary a [`Query`] denotes,
/// without expanding any prefix space — the offline trust anchor behind
/// `consensus-lab verify-cert` and the `/v1/check` `"certificate"` flag.
///
/// # Errors
/// Returns the typed [`CertError`] explaining the rejection;
/// [`CertError::Adversary`] when the query's spec itself cannot be built.
pub fn verify_certificate(cert: &Certificate, query: &Query) -> Result<(), CertError> {
    let ma = query.spec.build().map_err(|e| CertError::Adversary { reason: e.to_string() })?;
    consensus_core::certificate::verify(cert, ma.as_ref())
}

/// Build the adversary a certificate's `adversary` label denotes: a bare
/// catalog name, or a term of the shared spec language.
///
/// # Errors
/// Returns [`CertError::Adversary`] if the label is neither.
pub fn certificate_adversary(label: &str) -> Result<adversary::DynMA, CertError> {
    let spec = if adversary::catalog::by_name(label).is_some() {
        AdversarySpec::catalog(label)
    } else {
        AdversarySpec::parse(label).map_err(|e| CertError::Adversary { reason: e.to_string() })?
    };
    spec.build().map_err(|e| CertError::Adversary { reason: e.to_string() })
}

/// The batch-first facade over the expansion engine, caches, and sweep
/// machinery; see the module docs.
#[derive(Debug)]
pub struct Session {
    expand: ExpandConfig,
    analysis: AnalysisConfig,
    cache_cfg: CacheConfig,
    /// Scenario-level worker threads (`0` = available parallelism).
    workers: usize,
    time_limit: Option<Duration>,
    spaces: SpaceCache,
    disk: Option<DiskCache>,
}

// The `consensus-serve` HTTP server shares one `Session` across its worker
// threads behind an `Arc`, calling `check`/`check_many` through `&self`
// concurrently. Guard that contract at compile time: losing `Send + Sync`
// (say, by an `Rc` or `RefCell` slipping into the cache layer) must fail
// the build here, not at the server's use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>()
};

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session with all-default configs: 2·10⁶-run budget, weak
    /// validity, in-memory memoization, no persistence.
    pub fn new() -> Self {
        Self::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            CacheConfig::default(),
        )
        .expect("no disk dir configured, so opening cannot fail")
    }

    /// A session from explicit configs. Opens the persistent verdict
    /// journal when [`CacheConfig::disk_dir`] is set.
    ///
    /// # Errors
    /// Returns [`Error::Io`] if the cache directory cannot be opened.
    pub fn with_configs(
        expand: ExpandConfig,
        analysis: AnalysisConfig,
        cache: CacheConfig,
    ) -> Result<Self, Error> {
        let disk = DiskCache::from_config(&cache)?;
        Ok(Session {
            spaces: SpaceCache::new(),
            expand,
            analysis,
            cache_cfg: cache,
            workers: 0,
            time_limit: None,
            disk,
        })
    }

    /// Set the scenario-level worker-thread count (`0` = available
    /// parallelism, the default).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the soft per-scenario wall-clock limit (exceeding it flags the
    /// record; step budgets, not preemption, bound the actual work).
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// The expansion configuration in effect.
    pub fn expand_config(&self) -> &ExpandConfig {
        &self.expand
    }

    /// The analysis configuration in effect.
    pub fn analysis_config(&self) -> &AnalysisConfig {
        &self.analysis
    }

    /// The cache configuration in effect.
    pub fn cache_config(&self) -> &CacheConfig {
        &self.cache_cfg
    }

    /// The session's shared in-memory space cache (live counters
    /// included). Under [`CacheConfig::memory`]` = false` batches run on
    /// private per-batch caches instead, so this handle's counters stay
    /// at zero — read the per-batch [`SweepReport::cache`] stats there.
    pub fn space_cache(&self) -> &SpaceCache {
        &self.spaces
    }

    /// The session's persistent verdict cache, when configured.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Answer one query.
    ///
    /// Routed through the same sweep machinery as [`check_many`]
    /// (a batch of one), so warm caches and journals behave identically.
    ///
    /// # Errors
    /// * [`Error::Spec`] if the query's adversary spec is unbuildable;
    /// * [`Error::Budget`] if the expansion exceeded
    ///   [`ExpandConfig::max_runs`].
    ///
    /// Budget-*contingent* solvability verdicts (an `undecided` whose
    /// sweep was cut short) are not errors: the record carries the
    /// evidence and its `budget_hit` flag.
    ///
    /// [`check_many`]: Self::check_many
    pub fn check(&self, query: &Query) -> Result<QueryResult, Error> {
        let report = self.check_many(std::slice::from_ref(query));
        let record = report.store.into_records().pop().expect("one query in, one record out");
        if record.outcome.verdict == "error" {
            // Re-derive the typed spec error (the record only carries its
            // message); spec construction is cheap and this is the cold
            // path — the happy path builds the adversary exactly once.
            query.spec.build()?;
        }
        if record.outcome.verdict == "budget-exceeded" {
            // `needed_runs` is part of the outcome's stable JSONL contract;
            // if a future outcome shape drops it, still honor the
            // `needed > max_runs` invariant rather than reporting 0.
            let needed = record
                .outcome
                .details
                .iter()
                .find(|(k, _)| k == "needed_runs")
                .and_then(|(_, v)| v.as_i64())
                .map(|n| n as usize)
                .unwrap_or_else(|| self.expand.max_runs.saturating_add(1));
            return Err(Error::Budget(BudgetExceeded { max_runs: self.expand.max_runs, needed }));
        }
        Ok(record)
    }

    /// Answer a batch of queries in parallel; records come back in query
    /// order regardless of scheduling, with full engine telemetry.
    pub fn check_many(&self, queries: &[Query]) -> SweepReport {
        self.run_scenarios(
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| (i, q.to_scenario(self.expand.max_runs)))
                .collect(),
        )
    }

    /// [`check_many`](Self::check_many) over explicitly indexed queries —
    /// the shard/resume entry point: each `(index, query)` pair carries its
    /// *global grid index*, so partial batches (a shard of a grid, or a
    /// resumed remainder) produce records that merge back byte-stably.
    pub fn check_many_indexed(&self, entries: &[(usize, Query)]) -> SweepReport {
        self.run_scenarios(
            entries.iter().map(|(i, q)| (*i, q.to_scenario(self.expand.max_runs))).collect(),
        )
    }

    fn run_scenarios(&self, scenarios: Vec<(usize, Scenario)>) -> SweepReport {
        let mut span = consensus_obs::trace::tracer()
            .span("sweep")
            .with_attr("scenarios", scenarios.len());
        let mut runner = SweepRunner { analysis: self.analysis, ..SweepRunner::new() };
        if self.workers > 0 {
            runner = runner.workers(self.workers);
        }
        if let Some(limit) = self.time_limit {
            runner = runner.time_limit(limit);
        }
        runner.consult_disk = self.cache_cfg.resume;
        // `memory: false` gives each batch a cold private cache instead of
        // the session-lived one (within a batch, sharing is inherent to
        // the sweep machinery — that is the point of a batch).
        let fresh;
        let spaces = if self.cache_cfg.memory {
            &self.spaces
        } else {
            fresh = SpaceCache::new();
            &fresh
        };
        let report = runner.run_indexed(&scenarios, spaces, self.disk.as_ref());
        span.set_attr("builds", report.cache.builds);
        span.set_attr("cache_hits", report.cache.hits);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TIMING_FIELDS;

    fn strip(report: &SweepReport) -> Vec<String> {
        report
            .store
            .records()
            .iter()
            .map(|r| r.to_json().without_keys(TIMING_FIELDS).to_string())
            .collect()
    }

    #[test]
    fn single_check_matches_batch_record() {
        let session = Session::new();
        let query = Query::catalog("sw-lossy-link", 2, AnalysisKind::Bivalence);
        let single = session.check(&query).unwrap();
        let batch = session.check_many(std::slice::from_ref(&query));
        assert_eq!(
            single.to_json().without_keys(TIMING_FIELDS),
            batch.store.records()[0].to_json().without_keys(TIMING_FIELDS)
        );
    }

    #[test]
    fn concurrent_checks_on_one_session_match_serial() {
        // The serving contract: worker threads hammering one shared
        // `Session` through `&self` — racing on cold cache slots included —
        // must answer every query exactly as a serial session does.
        let queries = Query::catalog_grid(2, &AnalysisKind::ALL);
        let serial_session = Session::new();
        let serial: Vec<String> = queries
            .iter()
            .map(|q| {
                let record = serial_session.check(q).unwrap();
                record.to_json().without_keys(TIMING_FIELDS).to_string()
            })
            .collect();
        let shared = Session::new();
        std::thread::scope(|scope| {
            for offset in 0..4usize {
                let (shared, queries, serial) = (&shared, &queries, &serial);
                scope.spawn(move || {
                    // Each worker walks the whole grid from its own offset,
                    // so cold cells are contended from the start.
                    for k in 0..queries.len() {
                        let i = (offset + k) % queries.len();
                        let record = shared.check(&queries[i]).unwrap();
                        assert_eq!(
                            record.to_json().without_keys(TIMING_FIELDS).to_string(),
                            serial[i],
                            "{}",
                            queries[i].label()
                        );
                    }
                });
            }
        });
        // All four workers were answered from one shared cache: the space
        // census matches the serial session's, not four times it.
        assert_eq!(shared.space_cache().len(), serial_session.space_cache().len());
    }

    #[test]
    fn spec_and_budget_errors_are_typed() {
        let session = Session::new();
        let bad = Query::catalog("no-such-entry", 2, AnalysisKind::Solvability);
        assert!(matches!(session.check(&bad).unwrap_err(), Error::Spec(_)));

        let tiny = Session::with_configs(
            ExpandConfig::with_budget(10),
            AnalysisConfig::default(),
            CacheConfig::default(),
        )
        .unwrap();
        let starved = Query::catalog("sw-lossy-link", 4, AnalysisKind::ComponentStats);
        match tiny.check(&starved).unwrap_err() {
            Error::Budget(b) => {
                assert_eq!(b.max_runs, 10);
                assert!(b.needed > 10);
            }
            other => panic!("expected budget error, got {other}"),
        }
    }

    #[test]
    fn query_grid_matches_scenario_grid_order() {
        let queries = Query::catalog_grid(2, &[AnalysisKind::Solvability, AnalysisKind::SimCheck]);
        let scenarios = GridBuilder::new(2, 123)
            .analyses(&[AnalysisKind::Solvability, AnalysisKind::SimCheck])
            .over_catalog();
        assert_eq!(queries.len(), scenarios.len());
        for (q, s) in queries.iter().zip(&scenarios) {
            assert_eq!((&q.spec, q.depth, q.analysis), (&s.spec, s.depth, s.analysis));
            assert_eq!(q.label(), s.label());
        }
    }

    #[test]
    fn session_cache_is_warm_across_batches() {
        let session = Session::new();
        let queries = Query::catalog_grid(2, &[AnalysisKind::ComponentStats]);
        let cold = session.check_many(&queries);
        assert!(cold.cache.builds > 0);
        let builds_after_cold = session.space_cache().stats().builds;
        session.check_many(&queries);
        assert_eq!(
            session.space_cache().stats().builds,
            builds_after_cold,
            "second batch must be answered from the session cache"
        );
    }

    #[test]
    fn memoryless_sessions_start_every_batch_cold() {
        let session = Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            CacheConfig::new().memory(false),
        )
        .unwrap();
        let queries = vec![Query::catalog("sw-lossy-link", 2, AnalysisKind::ComponentStats)];
        let a = session.check_many(&queries);
        let b = session.check_many(&queries);
        assert_eq!(a.cache.builds, b.cache.builds, "no sharing across batches");
        assert!(b.cache.builds > 0);
        // Records are still identical — caching is transparent.
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn strong_validity_config_reaches_sweeps() {
        // all-to-all n=2: solvable under both flavors, but the configured
        // session must actually run the strong checker (same verdict here;
        // the flavor is observable on ternary domains via core tests).
        let weak = Session::new();
        let strong = Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::new().strong_validity(true),
            CacheConfig::default(),
        )
        .unwrap();
        let q = Query::catalog("cgp-reduced-lossy-link", 3, AnalysisKind::Solvability);
        assert_eq!(weak.check(&q).unwrap().outcome.verdict, "solvable");
        assert_eq!(strong.check(&q).unwrap().outcome.verdict, "solvable");
    }

    #[test]
    fn differently_configured_sessions_do_not_share_journal_entries() {
        // The journal is keyed on the analysis-params code, so a session
        // whose AnalysisConfig changes solvability answers (strong
        // validity, chain-cycle bound) must recompute rather than be
        // answered by a default session's journaled verdicts.
        let dir = std::env::temp_dir()
            .join(format!("consensus-lab-session-params-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queries = Query::catalog_grid(2, &[AnalysisKind::Solvability]);
        let weak = Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            CacheConfig::new().disk_dir(&dir),
        )
        .unwrap();
        weak.check_many(&queries);
        drop(weak);
        let strong = Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::new().strong_validity(true),
            CacheConfig::new().disk_dir(&dir),
        )
        .unwrap();
        let report = strong.check_many(&queries);
        // Intra-session hits between structurally aliased catalog entries
        // are fine (same fingerprint, same params); what must NOT happen
        // is a fully warm pass off the weak session's journal — the
        // strong session has to expand spaces for its own verdicts.
        assert!(
            report.cache.builds > 0,
            "a strong-validity session must recompute, not consume weak-validity verdicts: {:?}",
            report.cache
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_session_resumes_across_instances() {
        let dir =
            std::env::temp_dir().join(format!("consensus-lab-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let queries = Query::catalog_grid(2, &[AnalysisKind::Bivalence]);
        let cfg = CacheConfig::new().disk_dir(&dir);
        let cold =
            Session::with_configs(ExpandConfig::default(), AnalysisConfig::default(), cfg.clone())
                .unwrap();
        let first = cold.check_many(&queries);
        assert!(first.cache.builds > 0);
        // A second session (≈ a second process) answers from the journal:
        // zero expansions.
        let warm =
            Session::with_configs(ExpandConfig::default(), AnalysisConfig::default(), cfg.clone())
                .unwrap();
        let second = warm.check_many(&queries);
        assert_eq!(second.cache.builds, 0, "warm session must not expand");
        assert!(second.cache.disk_hits > 0);
        assert_eq!(strip(&first), strip(&second));
        // resume=false must recompute despite the journal.
        let no_resume = Session::with_configs(
            ExpandConfig::default(),
            AnalysisConfig::default(),
            cfg.resume(false),
        )
        .unwrap();
        let third = no_resume.check_many(&queries);
        assert!(third.cache.builds > 0, "resume=false must not consult the journal");
        assert_eq!(strip(&first), strip(&third));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
