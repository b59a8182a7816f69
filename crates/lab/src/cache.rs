//! The shared prefix-space memoization cache.
//!
//! Sweeps ask the same *(adversary, depth)* question through several
//! analyses — solvability, bivalence, broadcastability, component stats,
//! simulator checks all start from the same [`PrefixSpace`]. The cache keys
//! spaces by *(structural fingerprint, input domain, depth)* so each
//! expansion is computed once per sweep, across analyses, across scenarios,
//! and across structurally identical catalog entries (e.g. `all-rooted-2`
//! aliases `sw-lossy-link`).
//!
//! Implements [`consensus_core::solvability::SpaceSource`], so the core
//! checker's depth sweep transparently reuses cached spaces too, and its
//! depth-independent exact-chain search runs once per adversary.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use adversary::{enumerate, MessageAdversary};
use consensus_core::config::ExpandConfig;
use consensus_core::fair::{self, ZeroChain};
use consensus_core::solvability::SpaceSource;
use consensus_core::PrefixSpace;
use consensus_obs::metrics::{registry, Counter, Gauge};
use consensus_obs::trace::tracer;
use ptgraph::Value;

/// Process-global registry mirrors of the cache counters: every
/// [`SpaceCache`] instance (sessions build fresh ones per batch) feeds
/// the same named series, so `/v1/stats` and Prometheus expose lifetime
/// cache effectiveness without holding any particular cache alive.
struct CacheCounters {
    hits: Arc<Counter>,
    builds: Arc<Counter>,
    ladder_hits: Arc<Counter>,
    budget_misses: Arc<Counter>,
    hit_rate_pct: Arc<Gauge>,
}

fn cache_counters() -> &'static CacheCounters {
    static COUNTERS: OnceLock<CacheCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| CacheCounters {
        hits: registry().counter("cache.hits"),
        builds: registry().counter("cache.builds"),
        ladder_hits: registry().counter("cache.ladder_hits"),
        budget_misses: registry().counter("cache.budget_misses"),
        hit_rate_pct: registry().gauge("cache.hit_rate_pct"),
    })
}

impl CacheCounters {
    /// Bump the counter for one lookup outcome and refresh the hit-rate
    /// gauge (hits + ladder climbs, as a percentage of all requests).
    fn note(&self, outcome: &'static str) {
        match outcome {
            "hit" => self.hits.inc(),
            "build" => self.builds.inc(),
            "ladder" => self.ladder_hits.inc(),
            _ => self.budget_misses.inc(),
        }
        let avoided = self.hits.get() + self.ladder_hits.get();
        let total = avoided + self.builds.get() + self.budget_misses.get();
        if let Some(pct) = (avoided * 100).checked_div(total) {
            self.hit_rate_pct.set(pct);
        }
    }
}

/// Cache key: structural adversary fingerprint × input domain × depth.
type Key = (u64, Vec<Value>, usize);

/// Failure key: a [`Key`] plus the budget the expansion exceeded.
type FailKey = (u64, Vec<Value>, usize, usize);

/// Exact-chain key: fingerprint × the two valences × the lasso cycle
/// bound.
type ChainKey = (u64, Value, Value, usize);

/// Counters describing cache effectiveness over a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: usize,
    /// Requests that triggered a full from-scratch [`PrefixSpace`]
    /// expansion.
    pub builds: usize,
    /// Requests served by *laddering* — extending the deepest cached
    /// ancestor space round-by-round via [`PrefixSpace::extend_from`]
    /// instead of re-expanding from scratch.
    pub ladder_hits: usize,
    /// Scenario outcomes answered from the on-disk verdict journal
    /// ([`crate::persist::DiskCache`]). Always zero for a bare
    /// [`SpaceCache`]; the sweep runner fills it in so one stats struct
    /// carries the whole cache hierarchy.
    pub disk_hits: usize,
    /// Requests that exceeded the step budget (not cached).
    pub budget_misses: usize,
}

impl CacheStats {
    /// Total space requests served (disk hits are scenario-level, not
    /// space-level, and are excluded).
    pub fn requests(&self) -> usize {
        self.hits + self.builds + self.ladder_hits + self.budget_misses
    }

    /// Prefix-space expansions avoided entirely (pure hits plus ladder
    /// extensions plus whole scenarios answered from disk).
    pub fn avoided(&self) -> usize {
        self.hits + self.ladder_hits + self.disk_hits
    }
}

/// Accumulated expansion-engine telemetry over a sweep, across every
/// build and ladder extension the cache performed (see
/// [`enumerate::ExpandStats`] for the per-pass datum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpandTotals {
    /// Engine passes (builds + ladder rungs) that reported stats.
    pub passes: usize,
    /// Peak approximate arena footprint of any single pass, in bytes.
    pub arena_bytes_peak: usize,
}

/// A thread-safe memoizing [`SpaceSource`]; see the module docs.
///
/// Budget-exceeded outcomes are memoized separately (keyed with the budget)
/// so a sweep does not re-attempt a hopeless expansion per analysis.
/// Exact-chain searches are memoized per fingerprint too; a memoized chain
/// is re-verified against the asking adversary before it is served.
#[derive(Debug, Default)]
pub struct SpaceCache {
    spaces: Mutex<HashMap<Key, Arc<PrefixSpace>>>,
    failures: Mutex<HashMap<FailKey, enumerate::BudgetExceeded>>,
    zero_chains: Mutex<HashMap<ChainKey, Option<ZeroChain>>>,
    hits: AtomicUsize,
    builds: AtomicUsize,
    ladder_hits: AtomicUsize,
    budget_misses: AtomicUsize,
    expand_passes: AtomicUsize,
    expand_arena_peak: AtomicUsize,
}

impl SpaceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache, the same as [`new`](Self::new): `cfg` is ignored,
    /// because the budget is per request. Kept for callers that construct
    /// a cache from a session's [`ExpandConfig`].
    pub fn with_config(_cfg: &ExpandConfig) -> Self {
        Self::new()
    }

    fn record_expand(&self, stats: enumerate::ExpandStats) {
        self.expand_passes.fetch_add(1, Ordering::Relaxed);
        self.expand_arena_peak.fetch_max(stats.arena_bytes, Ordering::Relaxed);
    }

    /// Accumulated expansion telemetry (see [`ExpandTotals`]).
    pub fn expand_totals(&self) -> ExpandTotals {
        ExpandTotals {
            passes: self.expand_passes.load(Ordering::Relaxed),
            arena_bytes_peak: self.expand_arena_peak.load(Ordering::Relaxed),
        }
    }

    /// Current counters (`disk_hits` is always zero here; see
    /// [`CacheStats::disk_hits`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            ladder_hits: self.ladder_hits.load(Ordering::Relaxed),
            disk_hits: 0,
            budget_misses: self.budget_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached spaces.
    pub fn len(&self) -> usize {
        self.spaces.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`SpaceSource::space`] plus a flag: `true` if served from the cache.
    ///
    /// # Errors
    /// Returns [`enumerate::BudgetExceeded`] if the expansion exceeds
    /// `max_runs` (the failure is memoized per budget).
    pub fn space_with_meta(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<(Arc<PrefixSpace>, bool), enumerate::BudgetExceeded> {
        let mut span = tracer().span("cache.lookup").with_attr("depth", depth);
        let key: Key = (ma.fingerprint(), values.to_vec(), depth);
        if let Some(space) = self.spaces.lock().expect("cache lock poisoned").get(&key) {
            // A hit may carry a space built under a *larger* budget than
            // this request's; that is fine — budgets bound work, not
            // results, and the cached space is exact.
            self.hits.fetch_add(1, Ordering::Relaxed);
            span.set_attr("outcome", "hit");
            cache_counters().note("hit");
            return Ok((Arc::clone(space), true));
        }
        let fail_key = (key.0, key.1.clone(), key.2, max_runs);
        if let Some(err) = self.failures.lock().expect("cache lock poisoned").get(&fail_key) {
            self.budget_misses.fetch_add(1, Ordering::Relaxed);
            span.set_attr("outcome", "budget-miss");
            cache_counters().note("budget-miss");
            return Err(err.clone());
        }
        // Depth ladder: the deepest cached space for the same
        // (fingerprint, domain) strictly below the requested depth is an
        // exact ancestor — extend it up round-by-round instead of
        // re-expanding from scratch. The per-round budget check of
        // `Expansion::extend` counts the same quantity (runs at the next
        // depth) as the from-scratch pre-count, so budget accounting is
        // preserved.
        let ancestor = {
            let cached = self.spaces.lock().expect("cache lock poisoned");
            (0..depth)
                .rev()
                .find_map(|d| cached.get(&(key.0, key.1.clone(), d)).map(Arc::clone))
        };
        // Build or ladder outside the locks: expansions dominate and must
        // overlap across worker threads. Two workers racing on one key
        // build twice; the loser's space is dropped (counted either way, so
        // the "constructions < scenarios" telemetry stays honest).
        // A ladder budget failure falls through to the from-scratch
        // pre-count below: `extend` reports `needed` at per-run
        // granularity, `expand` at per-sequence-level granularity, and
        // which path a request takes depends on scheduling — so the
        // *canonical* (from-scratch) error is the one recorded and
        // memoized, keeping budget-exceeded JSONL rows deterministic. The
        // pre-count aborts early and interns nothing, so the fallback is
        // cheap.
        let laddered =
            ancestor.and_then(|base| self.ladder(base, ma, values, depth, max_runs).ok());
        match laddered {
            Some(space) => {
                self.ladder_hits.fetch_add(1, Ordering::Relaxed);
                span.set_attr("outcome", "ladder");
                cache_counters().note("ladder");
                Ok((space, false))
            }
            None => {
                let cfg = ExpandConfig::with_budget(max_runs);
                match PrefixSpace::expand_budgeted(ma, values, depth, &cfg) {
                    Ok(space) => {
                        self.builds.fetch_add(1, Ordering::Relaxed);
                        span.set_attr("outcome", "build");
                        cache_counters().note("build");
                        self.record_expand(space.expand_stats());
                        let space = Arc::new(space);
                        let mut cached = self.spaces.lock().expect("cache lock poisoned");
                        let entry = cached.entry(key).or_insert_with(|| Arc::clone(&space));
                        Ok((Arc::clone(entry), false))
                    }
                    Err(err) => {
                        self.budget_misses.fetch_add(1, Ordering::Relaxed);
                        span.set_attr("outcome", "budget-miss");
                        cache_counters().note("budget-miss");
                        self.failures
                            .lock()
                            .expect("cache lock poisoned")
                            .insert(fail_key, err.clone());
                        Err(err)
                    }
                }
            }
        }
    }

    /// Extend `base` up to `depth` one round at a time (the ladder leg of
    /// a miss). `base` stays cached and intact throughout, and every rung
    /// — intermediate depths included — is inserted into the cache, so a
    /// later request for a shallower depth is a pure hit instead of a
    /// repeat climb. If another worker already cached a rung, its copy
    /// wins and the climb continues from the shared `Arc`.
    fn ladder(
        &self,
        base: Arc<PrefixSpace>,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, enumerate::BudgetExceeded> {
        debug_assert!(base.depth() < depth);
        let cfg = ExpandConfig::with_budget(max_runs);
        let mut current = base;
        while current.depth() < depth {
            let next = Arc::new(current.extend_from_budgeted(ma, &cfg)?);
            self.record_expand(next.expand_stats());
            let rung: Key = (ma.fingerprint(), values.to_vec(), next.depth());
            let mut cached = self.spaces.lock().expect("cache lock poisoned");
            let entry = cached.entry(rung).or_insert_with(|| Arc::clone(&next));
            current = Arc::clone(entry);
        }
        Ok(current)
    }
}

impl SpaceSource for SpaceCache {
    fn space(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, enumerate::BudgetExceeded> {
        self.space_with_meta(ma, values, depth, max_runs).map(|(space, _)| space)
    }

    /// The memoized search result for `ma`'s fingerprint, else a fresh
    /// search, memoized. A 64-bit fingerprint is not a proof, so a
    /// memoized chain is served only if it verifies against `ma`, and is
    /// searched again for `ma` otherwise. A memoized absence is served as
    /// is, as the cached spaces are.
    fn zero_chain(
        &self,
        ma: &dyn MessageAdversary,
        v: Value,
        w: Value,
        max_cycle: usize,
    ) -> Option<ZeroChain> {
        let key: ChainKey = (ma.fingerprint(), v, w, max_cycle);
        let memo = self.zero_chains.lock().expect("cache lock poisoned").get(&key).cloned();
        match memo {
            Some(Some(chain)) if chain.verify(ma) => return Some(chain),
            Some(None) => return None,
            _ => {}
        }
        let chain = fair::exact_zero_chain(ma, v, w, max_cycle);
        self.zero_chains.lock().expect("cache lock poisoned").insert(key, chain.clone());
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adversary::GeneralMA;
    use consensus_core::solvability::SolvabilityChecker;
    use dyngraph::{generators, Digraph, GraphSeq, Lasso};

    /// An adversary that counts the lassos it is asked about — every
    /// lasso the exact-chain search tries and every run a chain's
    /// verification re-checks — under a fingerprint of the test's choice.
    struct LassoCounting {
        inner: GeneralMA,
        fingerprint: u64,
        lassos: AtomicUsize,
    }

    impl LassoCounting {
        fn new(pool: Vec<Digraph>, fingerprint: u64) -> Self {
            LassoCounting {
                inner: GeneralMA::oblivious(pool),
                fingerprint,
                lassos: AtomicUsize::new(0),
            }
        }

        fn lassos(&self) -> usize {
            self.lassos.load(Ordering::Relaxed)
        }
    }

    impl MessageAdversary for LassoCounting {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
            self.inner.extensions(prefix)
        }
        fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
            self.inner.admits_prefix(prefix)
        }
        fn admits_lasso(&self, lasso: &Lasso) -> Option<bool> {
            self.lassos.fetch_add(1, Ordering::Relaxed);
            self.inner.admits_lasso(lasso)
        }
        fn is_compact(&self) -> bool {
            self.inner.is_compact()
        }
        fn describe(&self) -> String {
            self.inner.describe()
        }
        fn pool_hint(&self) -> Option<Vec<Digraph>> {
            self.inner.pool_hint()
        }
        fn fingerprint(&self) -> u64 {
            self.fingerprint
        }
    }

    #[test]
    fn zero_chain_matches_the_search_for_every_catalog_adversary() {
        let cache = SpaceCache::new();
        let mut chains = 0;
        for entry in adversary::catalog::entries() {
            let ma = entry.build();
            let direct = fair::exact_zero_chain(&*ma, 0, 1, 3);
            // A miss, or a hit on a structurally equal alias; then a hit.
            assert_eq!(cache.zero_chain(&*ma, 0, 1, 3), direct, "{}", entry.name);
            assert_eq!(cache.zero_chain(&*ma, 0, 1, 3), direct, "{}", entry.name);
            chains += usize::from(direct.is_some());
        }
        assert!(chains > 0, "some catalog entry must be exactly unsolvable");
    }

    /// The exact-chain search depends on the adversary alone: a second
    /// check through the same cache, at another depth, searches nothing.
    /// Without a chain it asks about no lasso at all; with one it only
    /// re-verifies the memoized chain.
    #[test]
    fn zero_chain_search_runs_once_per_adversary() {
        for pool in [generators::lossy_link_full(), vec![Digraph::empty(2)]] {
            let fingerprint = GeneralMA::oblivious(pool.clone()).fingerprint();
            let cache = SpaceCache::new();
            let first =
                SolvabilityChecker::new(LassoCounting::new(pool.clone(), fingerprint)).max_depth(2);
            let first_verdict = first.check_via(&cache);
            let searched = first.adversary().lassos();
            assert!(searched > 0);
            let second =
                SolvabilityChecker::new(LassoCounting::new(pool, fingerprint)).max_depth(3);
            let second_verdict = second.check_via(&cache);
            assert_eq!(first_verdict.is_unsolvable(), second_verdict.is_unsolvable());
            if second_verdict.is_unsolvable() {
                assert!(second.adversary().lassos() < searched);
            } else {
                assert_eq!(second.adversary().lassos(), 0, "the search ran again");
            }
        }
    }

    /// A fingerprint is not a proof: a memoized chain that does not verify
    /// for the asking adversary, here one sharing its fingerprint by
    /// construction, is searched again instead of served.
    #[test]
    fn memoized_chain_failing_verification_is_recomputed() {
        let cache = SpaceCache::new();
        let silent = LassoCounting::new(vec![Digraph::empty(2)], 7);
        let memoized = cache.zero_chain(&silent, 0, 1, 3).expect("the empty pool chains");
        let unrooted = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let other = LassoCounting::new(vec![unrooted, generators::star_out(3, 0)], 7);
        assert!(!memoized.verify(&other));
        let served = cache.zero_chain(&other, 0, 1, 3).expect("an unrooted graph chains");
        assert!(served.verify(&other));
        let verified_runs = served.runs.len();
        assert_eq!(Some(served), fair::exact_zero_chain(&other.inner, 0, 1, 3));
        let rooted = LassoCounting::new(generators::lossy_link_full(), 7);
        assert_eq!(cache.zero_chain(&rooted, 0, 1, 3), None);
        assert!(rooted.lassos() > verified_runs, "the search must run for the rooted pool");
    }

    #[test]
    fn second_request_hits() {
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let (a, cached_a) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        let (b, cached_b) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        assert!(!cached_a);
        assert!(cached_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, builds: 1, ..CacheStats::default() });
    }

    #[test]
    fn structurally_equal_adversaries_share() {
        let cache = SpaceCache::new();
        let mut pool = generators::lossy_link_full();
        let a = GeneralMA::oblivious(pool.clone());
        pool.reverse();
        let b = GeneralMA::oblivious(pool);
        cache.space_with_meta(&a, &[0, 1], 1, 1_000_000).unwrap();
        let (_, cached) = cache.space_with_meta(&b, &[0, 1], 1, 1_000_000).unwrap();
        assert!(cached, "same structure must share one slot");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_depths_and_domains_do_not_collide() {
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let (d1, _) = cache.space_with_meta(&ma, &[0, 1], 1, 1_000_000).unwrap();
        let (d2, _) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        let (t1, _) = cache.space_with_meta(&ma, &[0, 1, 2], 1, 1_000_000).unwrap();
        assert_eq!(d1.depth(), 1);
        assert_eq!(d2.depth(), 2);
        assert_eq!(t1.values().len(), 3);
        // The depth-2 request ladders off the cached depth-1 space; the
        // ternary domain is a separate key family and builds from scratch.
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.ladder_hits, 1);
    }

    #[test]
    fn miss_with_cached_ancestor_ladders_instead_of_rebuilding() {
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        assert_eq!(cache.stats(), CacheStats { builds: 1, ..CacheStats::default() });
        // Depth 3 has a depth-2 ancestor: one ladder extension, no build.
        let (s3, cached) = cache.space_with_meta(&ma, &[0, 1], 3, 1_000_000).unwrap();
        assert!(!cached);
        assert_eq!(s3.depth(), 3);
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.ladder_hits), (1, 1));
        // The laddered space is exact: identical stats to a scratch build.
        let direct =
            PrefixSpace::expand(&ma, &[0, 1], 3, &ExpandConfig::with_budget(1_000_000)).unwrap();
        assert_eq!(s3.stats(), direct.stats());
        // Depth 5 ladders two rounds off the cached depth 3 — still one
        // ladder hit, and the ancestor entry survives.
        let (s5, _) = cache.space_with_meta(&ma, &[0, 1], 5, 10_000_000).unwrap();
        assert_eq!(s5.depth(), 5);
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.ladder_hits), (1, 2));
        let (again, cached) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        assert!(cached);
        assert_eq!(again.depth(), 2);
    }

    #[test]
    fn ladder_budget_failure_memoized_and_ancestor_kept() {
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let (base, _) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        let runs_before = base.runs().len();
        // A depth-4 ladder overruns a tiny budget: budget miss, memoized.
        assert!(cache.space_with_meta(&ma, &[0, 1], 4, 50).is_err());
        assert!(cache.space_with_meta(&ma, &[0, 1], 4, 50).is_err());
        let stats = cache.stats();
        assert_eq!(stats.budget_misses, 2);
        assert_eq!(stats.ladder_hits, 0);
        assert_eq!(stats.builds, 1);
        // The cached ancestor is untouched and still serves hits.
        let (b2, cached) = cache.space_with_meta(&ma, &[0, 1], 2, 1_000_000).unwrap();
        assert!(cached);
        assert_eq!(b2.runs().len(), runs_before);
    }

    #[test]
    fn budget_failures_memoized_per_budget() {
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        assert!(cache.space_with_meta(&ma, &[0, 1], 5, 10).is_err());
        assert!(cache.space_with_meta(&ma, &[0, 1], 5, 10).is_err());
        let stats = cache.stats();
        assert_eq!(stats.budget_misses, 2);
        assert_eq!(stats.builds, 0);
        // A larger budget is a fresh attempt.
        assert!(cache.space_with_meta(&ma, &[0, 1], 5, 10_000_000).is_ok());
        assert_eq!(cache.stats().builds, 1);
    }

    /// Budgets bound work, not results: certification verifies the cached
    /// space it is handed even when that space holds more runs than the
    /// checker's budget (the depth-1 hit here holds 8 runs, the budget is
    /// 5), instead of applying the budget a second time and panicking.
    #[test]
    fn certification_verifies_a_cached_space_over_the_request_budget() {
        use consensus_core::solvability::{SolvabilityChecker, Verdict};
        let cache = SpaceCache::new();
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        for depth in [0, 1] {
            cache.space_with_meta(&ma, &[0, 1], depth, 1_000_000).unwrap();
        }
        match SolvabilityChecker::new(ma).max_depth(3).max_runs(5).check_via(&cache) {
            Verdict::Solvable(cert) => {
                assert_eq!(cert.depth, 1);
                assert!(cert.verification.passed());
                assert_eq!(cert.verification.runs_checked, 8);
            }
            other => panic!("expected solvable: {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.ladder_hits, stats.hits), (1, 1, 2));
    }

    #[test]
    fn core_checker_pulls_through_the_cache() {
        use consensus_core::solvability::SolvabilityChecker;
        let cache = SpaceCache::new();
        let checker =
            SolvabilityChecker::new(GeneralMA::oblivious(generators::lossy_link_reduced()))
                .max_depth(3);
        let first = checker.check_via(&cache);
        assert!(first.is_solvable());
        let builds_after_first = cache.stats().builds;
        let second = checker.check_via(&cache);
        assert!(second.is_solvable());
        assert_eq!(cache.stats().builds, builds_after_first, "warm re-check must build nothing");
    }
}
