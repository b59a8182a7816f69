//! The parallel scenario-sweep engine.
//!
//! [`SweepRunner`] executes a scenario grid on a pool of scoped worker
//! threads pulling indices from a shared atomic queue (the work-stealing
//! shape of a rayon `par_iter`, built on `std` because the build
//! environment is registry-less — see `crates/compat/README.md`). Results
//! land in per-index slots, so the output order is the grid order no matter
//! how the scheduling interleaves: identical grids produce identical result
//! files (modulo wall-clock fields). A batch with one worker runs on the
//! caller's thread.
//!
//! Each distinct adversary spec of a batch is built once, before the
//! workers start, and every scenario of that spec borrows the build. All
//! space-hungry analyses pull their [`consensus_core::PrefixSpace`]s
//! through the shared
//! [`SpaceCache`], so one *(adversary, depth)* expansion serves every
//! analysis that needs it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use adversary::catalog::ExpectedOutcome;
use adversary::{DynMA, MessageAdversary};
use consensus_core::config::{AnalysisConfig, ExpandConfig};
use consensus_core::solvability::{SolvabilityChecker, UnsolvableCert, Verdict};
use consensus_core::{analysis, broadcast, fair, Certificate, UniversalAlgorithm};
use consensus_obs::metrics::{registry, Histogram};
use consensus_obs::trace::tracer;
use dyngraph::{Digraph, GraphSeq, Lasso};
use ptgraph::Value;
use simulator::algorithms::FloodMin;
use simulator::checker;

use crate::cache::{CacheStats, ExpandTotals, SpaceCache};
use crate::json::Value as Json;
use crate::persist::{persistable, DiskCache, DiskEntry};
use crate::scenario::{AdversarySpec, AnalysisKind, Scenario};
use crate::store::{Outcome, ResultStore, ScenarioRecord};

/// The input domain used by sweeps (binary consensus, as throughout the
/// paper's examples).
pub const SWEEP_VALUES: &[Value] = &[0, 1];

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    pub(crate) threads: usize,
    /// Soft per-scenario wall-clock limit; exceeding it flags the record
    /// (step budgets, not preemption, bound the actual work).
    pub(crate) time_limit: Option<Duration>,
    /// Analysis configuration applied to every solvability scenario
    /// (validity flavor, exact-chain search depth; the depth ladder ceiling
    /// comes from each scenario's own depth).
    pub(crate) analysis: AnalysisConfig,
    /// Whether a supplied disk cache may *answer* scenarios (it is always
    /// journaled to); the `Session` resume knob.
    pub(crate) consult_disk: bool,
}

/// A finished sweep: records in grid order plus engine telemetry.
#[derive(Debug)]
pub struct SweepReport {
    /// The result store (records in grid order).
    pub store: ResultStore,
    /// Cache counters accumulated over the sweep.
    pub cache: CacheStats,
    /// Expansion-engine telemetry accumulated over the sweep (passes,
    /// arena footprint).
    pub expand: ExpandTotals,
    /// Number of scenarios executed.
    pub scenarios: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall time.
    pub wall: Duration,
}

impl SweepReport {
    /// Scenarios whose solvability verdict contradicted the catalog ground
    /// truth.
    pub fn mismatches(&self) -> Vec<&ScenarioRecord> {
        self.store
            .records()
            .iter()
            .filter(|r| r.matches_expected == Some(false))
            .collect()
    }

    /// One-paragraph human summary (the sweep's stdout footer).
    pub fn summary(&self) -> String {
        let stats = self.cache;
        format!(
            "{} scenarios on {} threads in {:.2?}; prefix-space constructions: {} \
             (cache hits: {}, ladder extensions: {}, disk hits: {}, budget misses: {}); \
             ground-truth mismatches: {}",
            self.scenarios,
            self.threads,
            self.wall,
            stats.builds,
            stats.hits,
            stats.ladder_hits,
            stats.disk_hits,
            stats.budget_misses,
            self.mismatches().len(),
        )
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner {
            threads: default_threads(),
            time_limit: None,
            analysis: AnalysisConfig::default(),
            consult_disk: true,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

impl SweepRunner {
    /// A runner with the default thread count (available parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn workers(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the soft per-scenario time limit.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Execute `scenarios` against the shared `cache`; results come back in
    /// grid order regardless of scheduling.
    pub fn run(&self, scenarios: &[Scenario], cache: &SpaceCache) -> SweepReport {
        let entries: Vec<(usize, Scenario)> = scenarios.iter().cloned().enumerate().collect();
        self.run_indexed(&entries, cache, None)
    }

    /// Execute explicitly indexed scenarios — the shard/resume entry point:
    /// each `(index, scenario)` pair carries its *global grid index*, so
    /// records from partial runs (a shard of the grid, or the not-yet-done
    /// remainder of a resumed sweep) land with the indices the merged
    /// report needs. Outcomes are additionally answered from / journaled to
    /// `disk` when one is given.
    pub fn run_indexed(
        &self,
        entries: &[(usize, Scenario)],
        cache: &SpaceCache,
        disk: Option<&DiskCache>,
    ) -> SweepReport {
        let start = Instant::now();
        // Each distinct spec is built once; its scenarios borrow the build.
        let mut distinct: HashMap<&AdversarySpec, usize> = HashMap::new();
        let mut builds: Vec<Result<BuiltAdversary, String>> = Vec::new();
        let build_of: Vec<usize> = entries
            .iter()
            .map(|(_, scenario)| {
                *distinct.entry(&scenario.spec).or_insert_with(|| {
                    builds.push(BuiltAdversary::build(&scenario.spec));
                    builds.len() - 1
                })
            })
            .collect();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<ScenarioRecord>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();

        // Workers on their own threads parent their analysis spans to the
        // caller's innermost span (the session's `sweep`), as does a lone
        // worker on the caller's thread.
        let span_parent = tracer().current_id();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((index, scenario)) = entries.get(i) else {
                break;
            };
            let mut span = tracer().span_under(analysis_span_name(scenario.analysis), span_parent);
            let record = execute_built(*index, scenario, &builds[build_of[i]], cache, disk, self);
            span.set_attr("index", *index);
            span.set_attr("adversary", record.adversary.as_str());
            span.set_attr("depth", scenario.depth);
            span.set_attr("verdict", record.outcome.verdict.as_str());
            *slots[i].lock().expect("slot lock poisoned") = Some(record);
        };
        let workers = self.threads.min(entries.len().max(1));
        if workers == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(work);
                }
            });
        }

        let records: Vec<ScenarioRecord> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("every index was claimed by a worker")
            })
            .collect();
        let mut stats = cache.stats();
        if let Some(disk) = disk {
            stats.disk_hits = disk.hits();
        }
        SweepReport {
            store: ResultStore::new(records),
            cache: stats,
            expand: cache.expand_totals(),
            scenarios: entries.len(),
            threads: self.threads,
            wall: start.elapsed(),
        }
    }
}

/// Whether a solvability `outcome` agrees with the catalog's pinned ground
/// truth `expected`. Three-valued: `expected` pins the verdict at
/// *sufficient* depth, so an `undecided` at a shallow depth does not
/// contradict an eventually-solvable (or exactly-unsolvable) entry — only
/// a verdict of the opposite certainty does, and the flag is `None`
/// (inconclusive) there. Likewise an `undecided` that carries no evidence
/// (budget-starved, no mixing observed) confirms nothing for an
/// expected-mixed entry.
///
/// Works on the serialized outcome rather than the checker's `Verdict` so
/// the disk-cache path can re-derive the flag against the *current*
/// catalog at lookup time (journaled records must not freeze a stale
/// ground truth past a catalog change).
pub fn solvability_matches(
    expected: adversary::catalog::ExpectedOutcome,
    outcome: &Outcome,
    budget_hit: bool,
) -> Option<bool> {
    match (expected, outcome.verdict.as_str()) {
        (Some(true), "solvable") | (Some(false), "unsolvable") => Some(true),
        (Some(true), "unsolvable") | (Some(false), "solvable") => Some(false),
        (Some(_), "undecided") => None,
        (None, "undecided") => {
            let mixed = outcome
                .details
                .iter()
                .find(|(k, _)| k == "mixed_components")
                .and_then(|(_, v)| v.as_i64());
            if budget_hit || mixed == Some(0) {
                None
            } else {
                Some(true)
            }
        }
        (None, "solvable" | "unsolvable") => Some(false),
        // Not a solvability verdict tag: nothing to compare.
        _ => None,
    }
}

/// The static span name for one analysis kind (span names are `&'static
/// str` so the disabled tracer path stays allocation-free).
fn analysis_span_name(kind: AnalysisKind) -> &'static str {
    match kind {
        AnalysisKind::Solvability => "analysis.solvability",
        AnalysisKind::Bivalence => "analysis.bivalence",
        AnalysisKind::Broadcastability => "analysis.broadcastability",
        AnalysisKind::ComponentStats => "analysis.component-stats",
        AnalysisKind::SimCheck => "analysis.sim-check",
    }
}

/// The analysis-params code journaled with (and required from) each
/// persisted verdict: the `AnalysisConfig` dimensions that change
/// answers. Only solvability depends on the config — validity flavor and
/// the exact-chain cycle bound; every other analysis is
/// config-independent and codes as the empty string. Sessions whose
/// params differ never answer each other's journal entries.
pub fn scenario_params(analysis: AnalysisKind, cfg: &AnalysisConfig) -> String {
    match analysis {
        AnalysisKind::Solvability => {
            format!("{}c{}", if cfg.strong_validity { "s" } else { "w" }, cfg.max_chain_cycle)
        }
        _ => String::new(),
    }
}

/// Execute one scenario (also the `check` CLI path, with `index` 0).
pub fn execute_scenario(
    index: usize,
    scenario: &Scenario,
    cache: &SpaceCache,
    time_limit: Option<Duration>,
) -> ScenarioRecord {
    execute_scenario_with(index, scenario, cache, None, time_limit)
}

/// [`execute_scenario`] with an optional persistent verdict cache: a
/// journaled outcome for this `(fingerprint, domain, depth, analysis)`
/// cell is returned without touching a prefix space, and freshly computed
/// budget-independent outcomes are journaled for the next process.
pub fn execute_scenario_with(
    index: usize,
    scenario: &Scenario,
    cache: &SpaceCache,
    disk: Option<&DiskCache>,
    time_limit: Option<Duration>,
) -> ScenarioRecord {
    let runner = SweepRunner {
        threads: 1,
        time_limit,
        analysis: AnalysisConfig::default(),
        consult_disk: true,
    };
    execute_built(index, scenario, &BuiltAdversary::build(&scenario.spec), cache, disk, &runner)
}

/// Registry histogram of per-scenario analysis wall time (nanoseconds);
/// the handle is cached so a sweep pays no registry lock per scenario.
fn stage_analysis() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("stage.analysis"))
}

/// A scenario's adversary, built once per batch from its spec, with the
/// record fields derived from it. The scenarios of one spec borrow it, and
/// its [`fingerprint`](MessageAdversary::fingerprint) is the stored one,
/// so cache lookups, ladder rungs and the solvability depth sweep do not
/// hash the adversary again. Every other method forwards.
struct BuiltAdversary {
    ma: DynMA,
    fingerprint: u64,
    label: String,
    describe: String,
    n: usize,
    compact: bool,
    expected: Option<ExpectedOutcome>,
    /// Encoded certificates, keyed `Some(depth)` for a solvable verdict
    /// certified at `depth` and `None` for an unsolvable one; see
    /// [`certificate`](Self::certificate).
    certificates: Mutex<HashMap<Option<usize>, Option<Arc<Json>>>>,
}

impl BuiltAdversary {
    /// Build `spec`, or the message of its build error.
    fn build(spec: &AdversarySpec) -> Result<Self, String> {
        let ma = spec.build().map_err(|e| e.to_string())?;
        Ok(BuiltAdversary {
            fingerprint: ma.fingerprint(),
            label: spec.label(),
            describe: ma.describe(),
            n: ma.n(),
            compact: ma.is_compact(),
            expected: spec.expected(),
            ma,
            certificates: Mutex::default(),
        })
    }

    /// The encoded certificate under `key`: `extract`ed and encoded on the
    /// first request, shared by every later one. A fresh extraction would
    /// build the same certificate: the build fixes its label, fingerprint,
    /// `n` and domain, the runner fixes the analysis config, a solvable
    /// certificate is read off the cached space at its certified depth,
    /// and an unsolvable one off the chain the cache memoizes per
    /// fingerprint.
    fn certificate(
        &self,
        key: Option<usize>,
        extract: impl FnOnce() -> Option<Certificate>,
    ) -> Option<Arc<Json>> {
        // Extracted under the lock, so racing workers wait for the one
        // extraction instead of repeating it.
        let mut memo = self.certificates.lock().expect("certificate memo lock poisoned");
        memo.entry(key)
            .or_insert_with(|| extract().map(|c| Arc::new(c.to_json())))
            .clone()
    }
}

impl MessageAdversary for BuiltAdversary {
    fn n(&self) -> usize {
        self.ma.n()
    }

    fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
        self.ma.extensions(prefix)
    }

    fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
        self.ma.admits_prefix(prefix)
    }

    fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
        self.ma.admits_lasso(lasso)
    }

    fn is_compact(&self) -> bool {
        self.ma.is_compact()
    }

    fn describe(&self) -> String {
        self.ma.describe()
    }

    fn pool_hint(&self) -> Option<Vec<Digraph>> {
        self.ma.pool_hint()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Execute one scenario on its spec's batch build, under `runner`'s
/// settings: `consult_disk` gates *answering* from the journal (stores
/// always happen), and `analysis` configures every solvability checker
/// spawned.
fn execute_built(
    index: usize,
    scenario: &Scenario,
    built: &Result<BuiltAdversary, String>,
    cache: &SpaceCache,
    disk: Option<&DiskCache>,
    runner: &SweepRunner,
) -> ScenarioRecord {
    let start = Instant::now();
    let ma = match built {
        Ok(ma) => ma,
        Err(e) => {
            return ScenarioRecord {
                index,
                adversary: scenario.spec.label(),
                describe: String::new(),
                fingerprint: 0,
                n: 0,
                compact: false,
                depth: scenario.depth,
                analysis: scenario.analysis,
                outcome: Outcome::tag("error").with("error", Json::Str(e.clone())),
                expected: None,
                matches_expected: None,
                certificate: None,
                space: None,
                cached_space: None,
                budget_hit: false,
                wall_ms: ms(start.elapsed()),
            }
        }
    };

    let mut record = ScenarioRecord {
        index,
        adversary: ma.label.clone(),
        describe: ma.describe.clone(),
        fingerprint: ma.fingerprint,
        n: ma.n,
        compact: ma.compact,
        depth: scenario.depth,
        analysis: scenario.analysis,
        outcome: Outcome::tag("error"),
        expected: ma.expected,
        matches_expected: None,
        certificate: None,
        space: None,
        cached_space: None,
        budget_hit: false,
        wall_ms: 0.0,
    };

    let params = scenario_params(scenario.analysis, &runner.analysis);
    if let Some(disk) = disk.filter(|_| runner.consult_disk) {
        if let Some(entry) = disk.lookup(
            record.fingerprint,
            SWEEP_VALUES,
            scenario.depth,
            scenario.analysis,
            &params,
        ) {
            record.outcome = entry.outcome;
            record.space = entry.space;
            record.cached_space = entry.space.map(|_| true);
            if scenario.certificate {
                // The journaled certificate is handed out as-is: a warm
                // process serves checkable answers with zero re-expansions.
                record.certificate = entry.certificate;
            }
            if scenario.analysis == AnalysisKind::Solvability {
                if let Some(expected) = record.expected {
                    // Journaled entries are never budget-contingent.
                    record.matches_expected = solvability_matches(expected, &record.outcome, false);
                }
            }
            record.wall_ms = ms(start.elapsed());
            return record;
        }
    }

    // Extracted alongside every definitive solvability verdict (and always
    // journaled); attached to the record only when the scenario opted in.
    let mut extracted_cert: Option<Arc<Json>> = None;
    match scenario.analysis {
        AnalysisKind::Solvability => {
            let checker = SolvabilityChecker::with_config(
                ma,
                runner.analysis.max_depth(scenario.depth),
                ExpandConfig::with_budget(scenario.max_runs),
            );
            let verdict = checker.check_via(cache);
            extracted_cert = match &verdict {
                // The decision space at the certified depth is already in
                // the shared cache (the checker just expanded it), so this
                // lookup is a pure hit — extraction never re-expands. It
                // runs whether or not the memo answers, so the cache
                // counters do not depend on the memo.
                Verdict::Solvable(cert) => cache
                    .space_with_meta(
                        checker.adversary(),
                        SWEEP_VALUES,
                        cert.depth,
                        scenario.max_runs,
                    )
                    .ok()
                    .and_then(|(space, _)| {
                        ma.certificate(Some(cert.depth), || {
                            Certificate::from_solvable(cert, &space, &ma.label, ma.fingerprint)
                        })
                    }),
                Verdict::Unsolvable(UnsolvableCert::ZeroChain(chain)) => {
                    ma.certificate(None, || {
                        Certificate::from_unsolvable(
                            chain,
                            &ma.label,
                            ma.fingerprint,
                            ma.n,
                            SWEEP_VALUES,
                        )
                    })
                }
                Verdict::Undecided(_) => None,
            };
            record.outcome = solvability_outcome(&verdict);
            record.budget_hit = matches!(&verdict, Verdict::Undecided(rep) if rep.budget_hit);
            if let Some(expected) = record.expected {
                record.matches_expected =
                    solvability_matches(expected, &record.outcome, record.budget_hit);
            }
        }
        space_analysis => {
            match cache.space_with_meta(ma, SWEEP_VALUES, scenario.depth, scenario.max_runs) {
                Err(err) => {
                    record.outcome = Outcome::tag("budget-exceeded")
                        .with("needed_runs", Json::Int(err.needed as i64));
                    record.budget_hit = true;
                }
                Ok((space, cached)) => {
                    record.space = Some(space.stats());
                    record.cached_space = Some(cached);
                    record.outcome = match space_analysis {
                        AnalysisKind::Bivalence => bivalence_outcome(&space),
                        AnalysisKind::Broadcastability => broadcast_outcome(&space),
                        AnalysisKind::ComponentStats => stats_outcome(&space),
                        AnalysisKind::SimCheck => sim_check_outcome(&space, scenario.max_runs),
                        AnalysisKind::Solvability => unreachable!("handled above"),
                    };
                }
            }
        }
    }

    let elapsed = start.elapsed();
    stage_analysis().record_duration(elapsed);
    if let Some(limit) = runner.time_limit {
        if elapsed > limit {
            record.outcome.details.push(("timed_out".into(), Json::Bool(true)));
        }
    }
    record.wall_ms = ms(elapsed);
    if scenario.certificate {
        record.certificate = extracted_cert.clone();
    }
    if let Some(disk) = disk {
        if persistable(&record) {
            // Best-effort: a full cache disk or permission error degrades
            // to a cold cache, never fails the sweep.
            let _ = disk.store(
                record.fingerprint,
                SWEEP_VALUES,
                scenario.depth,
                scenario.analysis,
                &params,
                DiskEntry {
                    outcome: record.outcome.clone(),
                    space: record.space,
                    certificate: extracted_cert,
                },
            );
        }
    }
    record
}

fn ms(d: Duration) -> f64 {
    // Rounded to ns precision so the JSON stays readable.
    (d.as_secs_f64() * 1e9).round() / 1e6
}

fn solvability_outcome(verdict: &Verdict) -> Outcome {
    match verdict {
        Verdict::Solvable(cert) => Outcome::tag("solvable")
            .with("solvable_depth", Json::Int(cert.depth as i64))
            .with("components", Json::Int(cert.component_count as i64))
            .with("all_broadcastable", Json::Bool(cert.broadcast.all_broadcastable()))
            .with("verified_runs", Json::Int(cert.verification.runs_checked as i64))
            .with("decision_round", Json::Int(cert.verification.max_decision_round as i64)),
        Verdict::Unsolvable(consensus_core::solvability::UnsolvableCert::ZeroChain(chain)) => {
            Outcome::tag("unsolvable")
                .with("chain_runs", Json::Int(chain.runs.len() as i64))
                .with(
                    "valences",
                    Json::Arr(vec![
                        Json::Int(chain.valences.0 as i64),
                        Json::Int(chain.valences.1 as i64),
                    ]),
                )
        }
        Verdict::Undecided(rep) => Outcome::tag("undecided")
            .with("mixed_components", Json::Int(rep.mixed_components as i64))
            .with("chain_found", Json::Bool(rep.chain.is_some())),
    }
}

fn bivalence_outcome(space: &consensus_core::PrefixSpace) -> Outcome {
    let rep = space.separation();
    if rep.is_separated() {
        return Outcome::tag("separated").with("mixed_components", Json::Int(0));
    }
    // The finite shadow of the forever-bivalent run: a valence-connecting
    // ε-chain inside a mixed component (Definition 5.16 / §6.1).
    let chain = fair::valence_chain(space, SWEEP_VALUES[0], SWEEP_VALUES[1]);
    let mut outcome = Outcome::tag("mixed")
        .with("mixed_components", Json::Int(rep.mixed_components.len() as i64));
    match chain {
        Some(chain) => {
            outcome = outcome
                .with("chain_found", Json::Bool(true))
                .with("chain_links", Json::Int(chain.links.len() as i64));
        }
        None => outcome = outcome.with("chain_found", Json::Bool(false)),
    }
    outcome
}

fn broadcast_outcome(space: &consensus_core::PrefixSpace) -> Outcome {
    let rep = broadcast::broadcast_report(space);
    let failing = rep.failing_components();
    let worst_round = rep
        .components
        .iter()
        .filter_map(|c| c.best().map(|(_, t)| t))
        .max()
        .unwrap_or(0);
    Outcome::tag(if rep.all_broadcastable() {
        "broadcastable"
    } else {
        "obstructed"
    })
    .with("components", Json::Int(rep.components.len() as i64))
    .with("failing_components", Json::Int(failing.len() as i64))
    .with("worst_completion_round", Json::Int(worst_round as i64))
}

fn stats_outcome(space: &consensus_core::PrefixSpace) -> Outcome {
    let rep = analysis::report(space);
    let largest = rep.components.iter().map(|c| c.size).max().unwrap_or(0);
    let mut outcome = Outcome::tag(if rep.separated { "separated" } else { "mixed" })
        .with("runs", Json::Int(rep.run_count as i64))
        .with("views", Json::Int(rep.view_count as i64))
        .with("components", Json::Int(rep.components.len() as i64))
        .with("mixed_components", Json::Int(rep.mixed_count() as i64))
        .with("largest_component", Json::Int(largest as i64));
    if let Some(d) = rep.min_class_distance {
        outcome = outcome.with("min_class_distance", Json::Float(d.as_f64()));
    }
    outcome
}

fn sim_check_outcome(space: &consensus_core::PrefixSpace, max_runs: usize) -> Outcome {
    // On a separated space, the universal algorithm synthesized from it
    // (verified once per space, shared with solvability); on a mixed one,
    // where no algorithm can exist (Corollary 5.6), the obstruction shown
    // on the reference flooding algorithm.
    let universal = space.separation().is_separated();
    let algorithm = Json::Str(if universal { "universal" } else { "floodmin" }.into());
    // The request's budget applies even to a cached space built under a
    // larger one, ahead of the memoized verification.
    if space.runs().len() > max_runs {
        return Outcome::tag("budget-exceeded")
            .with("algorithm", algorithm)
            .with("needed_runs", Json::Int(space.runs().len() as i64));
    }
    let outcome = |rep: &checker::CheckReport| {
        Outcome::tag(if rep.passed() { "passed" } else { "failed" })
            .with("algorithm", algorithm.clone())
            .with("runs_checked", Json::Int(rep.runs_checked as i64))
            .with("violations", Json::Int(rep.violations.len() as i64))
    };
    if universal {
        let rep =
            UniversalAlgorithm::weak_verification(space).expect("separated space must synthesize");
        outcome(rep).with("decision_round", Json::Int(rep.max_decision_round as i64))
    } else {
        let cfg = checker::CheckConfig::at_depth(space.depth()).max_runs(max_runs);
        let alg = FloodMin::new(space.depth());
        let rep =
            checker::check_sequences(&alg, space.n(), space.values(), space.sequences(), &cfg)
                .expect("runs within budget");
        outcome(&rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversarySpec, GridBuilder};

    fn catalog_scenario(name: &str, depth: usize, analysis: AnalysisKind) -> Scenario {
        Scenario {
            spec: AdversarySpec::catalog(name),
            depth,
            analysis,
            max_runs: 2_000_000,
            certificate: false,
        }
    }

    #[test]
    fn solvable_entry_reports_solvable() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("cgp-reduced-lossy-link", 3, AnalysisKind::Solvability),
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "solvable");
        assert_eq!(rec.matches_expected, Some(true));
    }

    #[test]
    fn exact_unsolvable_entry_reports_unsolvable() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("message-loss-2-2", 3, AnalysisKind::Solvability),
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "unsolvable");
        assert_eq!(rec.matches_expected, Some(true));
    }

    #[test]
    fn mixed_entry_reports_undecided_with_chain() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("sw-lossy-link", 3, AnalysisKind::Solvability),
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "undecided");
        assert_eq!(rec.matches_expected, Some(true));
        let chain = rec
            .outcome
            .details
            .iter()
            .find(|(k, _)| *k == "chain_found")
            .map(|(_, v)| v.clone());
        assert_eq!(chain, Some(Json::Bool(true)));
    }

    #[test]
    fn analyses_share_one_space_per_depth() {
        let cache = SpaceCache::new();
        for analysis in [
            AnalysisKind::Bivalence,
            AnalysisKind::Broadcastability,
            AnalysisKind::ComponentStats,
            AnalysisKind::SimCheck,
        ] {
            let rec =
                execute_scenario(0, &catalog_scenario("sw-lossy-link", 2, analysis), &cache, None);
            assert_ne!(rec.outcome.verdict, "error", "{analysis}: {rec:?}");
        }
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "four analyses, one expansion: {stats:?}");
        assert_eq!(stats.hits, 3);
    }

    /// One worker runs inline and eight run on threads, both on one build
    /// per spec; `execute_scenario` builds per call. All three agree, also
    /// for a spec that fails to build and for two catalog entries that
    /// share a fingerprint (`all-rooted-2` aliases `sw-lossy-link`).
    #[test]
    fn sweep_results_in_grid_order_any_thread_count() {
        let grid = GridBuilder::new(2, 2_000_000).over_specs(&[
            AdversarySpec::catalog("cgp-reduced-lossy-link"),
            AdversarySpec::catalog("sw-lossy-link"),
            AdversarySpec::catalog("no-such-entry"),
            AdversarySpec::catalog("all-rooted-2"),
        ]);
        let single = SweepRunner::new().workers(1).run(&grid, &SpaceCache::new());
        let multi = SweepRunner::new().workers(8).run(&grid, &SpaceCache::new());
        let strip = |records: &[ScenarioRecord]| {
            records
                .iter()
                .map(|rec| rec.to_json().without_keys(crate::store::TIMING_FIELDS))
                .collect::<Vec<_>>()
        };
        let cache = SpaceCache::new();
        let per_scenario: Vec<ScenarioRecord> = grid
            .iter()
            .enumerate()
            .map(|(i, scenario)| execute_scenario(i, scenario, &cache, None))
            .collect();
        assert_eq!(strip(single.store.records()), strip(&per_scenario));
        assert_eq!(strip(multi.store.records()), strip(&per_scenario));
        for (i, rec) in multi.store.records().iter().enumerate() {
            assert_eq!(rec.index, i);
        }
        let errors = per_scenario.iter().filter(|r| r.outcome.verdict == "error").count();
        assert_eq!(errors, 2 * AnalysisKind::ALL.len(), "every no-such-entry scenario errs");
        let fingerprint = |name: &str| {
            per_scenario
                .iter()
                .find(|r| r.adversary == name)
                .map(|r| r.fingerprint)
                .unwrap()
        };
        assert_eq!(fingerprint("sw-lossy-link"), fingerprint("all-rooted-2"));
    }

    #[test]
    fn sim_check_verifies_universal_on_separated_space() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("cgp-reduced-lossy-link", 2, AnalysisKind::SimCheck),
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "passed");
    }

    #[test]
    fn sim_check_exhibits_floodmin_failure_on_mixed_space() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("sw-lossy-link", 2, AnalysisKind::SimCheck),
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "failed");
    }

    /// Sim-check compares the request's budget with the space before it
    /// verifies: a cached space larger than the budget still answers
    /// `budget-exceeded` with the runs the check would need.
    #[test]
    fn sim_check_applies_the_request_budget_to_a_cached_space() {
        let cache = SpaceCache::new();
        let scenario = catalog_scenario("cgp-reduced-lossy-link", 1, AnalysisKind::SimCheck);
        let ma = scenario.spec.build().unwrap();
        for depth in [0, 1] {
            cache.space_with_meta(&*ma, SWEEP_VALUES, depth, 1_000_000).unwrap();
        }
        let rec = execute_scenario(0, &Scenario { max_runs: 5, ..scenario }, &cache, None);
        assert_eq!(rec.outcome.verdict, "budget-exceeded");
        assert_eq!(
            rec.outcome.details,
            vec![
                ("algorithm".into(), Json::Str("universal".into())),
                ("needed_runs".into(), Json::Int(8)),
            ]
        );
        assert_eq!(rec.cached_space, Some(true));
    }

    #[test]
    fn bad_spec_is_an_error_record_not_a_panic() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            7,
            &Scenario {
                spec: AdversarySpec::catalog("no-such-entry"),
                depth: 2,
                analysis: AnalysisKind::Solvability,
                max_runs: 1000,
                certificate: false,
            },
            &cache,
            None,
        );
        assert_eq!(rec.outcome.verdict, "error");
        assert_eq!(rec.index, 7);
    }

    #[test]
    fn budget_exhaustion_is_reported_per_scenario() {
        let cache = SpaceCache::new();
        let rec = execute_scenario(
            0,
            &catalog_scenario("sw-lossy-link", 6, AnalysisKind::ComponentStats),
            &cache,
            None,
        );
        // 3^6 sequences × 4 inputs = 2916 runs fits; shrink the budget (on
        // a cold cache — a warm one would rightly serve the cached space).
        let tiny = Scenario {
            max_runs: 10,
            ..catalog_scenario("sw-lossy-link", 6, AnalysisKind::ComponentStats)
        };
        let rec2 = execute_scenario(1, &tiny, &SpaceCache::new(), None);
        assert_ne!(rec.outcome.verdict, "budget-exceeded");
        assert_eq!(rec2.outcome.verdict, "budget-exceeded");
        assert!(rec2.budget_hit);
    }
}
