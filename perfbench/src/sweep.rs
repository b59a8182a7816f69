//! The library door: `stats-d5` and `expand-d6`.
//!
//! Each timed pass builds a fresh `Session` with one scenario worker and
//! runs `check_many` over catalog ∪ family × depths × analyses, then
//! `ResultStore::to_jsonl`. One worker keeps the pass deterministic (two
//! workers race on one space key and both build it) and makes a pass the
//! sum of its scenarios, so a layer's traced share bounds what fixing it
//! can save.
//!
//! The traced run replays the same grid scenario by scenario through the
//! public layer calls, in the runner's order, with spans around each call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adversary::enumerate::{self, BudgetExceeded};
use adversary::MessageAdversary;
use consensus_core::certificate::Certificate;
use consensus_core::solvability::{SolvabilityChecker, SpaceSource, UnsolvableCert, Verdict};
use consensus_core::{analysis, broadcast, fair, PrefixSpace, UniversalAlgorithm};
use consensus_lab::runner::SWEEP_VALUES;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind};
use consensus_lab::session::{verify_certificate, Query, Session};
use consensus_lab::store::{ScenarioRecord, TIMING_FIELDS};
use consensus_lab::{AnalysisConfig, CacheConfig, ExpandConfig, SpaceCache};
use ptgraph::Value;
use simulator::algorithms::FloodMin;
use simulator::checker;

use crate::gen::{self, Family, Rng};
use crate::span::{Recorder, Summary};
use crate::stats::{median, quantile};
use crate::{Metrics, RunResult};

/// One sweep workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    pub max_depth: usize,
    pub analyses: &'static [AnalysisKind],
    /// Family strata: `(lo, hi, count)` terms whose admissible run count
    /// at `max_depth` lies in `lo..hi`.
    pub strata: &'static [(usize, usize, usize)],
    /// Records digest for [`gen::DEFAULT_SEED`] (stripped of timing fields).
    pub pinned_digest: u64,
}

pub const STATS_D5: SweepShape = SweepShape {
    max_depth: 5,
    analyses: &AnalysisKind::ALL,
    strata: &[(8, 32, 15), (32, 64, 15), (64, 128, 15), (128, 257, 15)],
    pinned_digest: 0xce4e_3c7a_cb99_1fa8,
};

pub const EXPAND_D6: SweepShape = SweepShape {
    max_depth: 6,
    analyses: &[
        AnalysisKind::Solvability,
        AnalysisKind::Bivalence,
        AnalysisKind::Broadcastability,
        AnalysisKind::SimCheck,
    ],
    strata: &[(8, 32, 40), (32, 64, 40), (64, 129, 40)],
    pinned_digest: 0x812f_6017_63a3_d21c,
};

/// Set-ups before each pass of an untraced run; `setup_s` is the median
/// over those of the timed passes.
const SETUPS_PER_PASS: usize = 5;
const MIN_PASSES: usize = 3;
/// Traced runs alternate untraced and traced passes, at least this many
/// pairs.
const MIN_PAIRS: usize = 2;
/// The traced run is not `correct` when its layer spans miss more than
/// this share of the reported replay pass's wall.
const SPAN_TOLERANCE: f64 = 0.1;

/// The seeded inputs as a caller hands them to the library: the spec
/// texts of the catalog entries and of the generated family.
fn texts(shape: &SweepShape, seed: u64) -> (Vec<String>, Family) {
    let mut rng = Rng::new(seed);
    let mut seen = gen::catalog_fingerprints();
    let family = gen::family(&mut rng, shape.strata, shape.max_depth, &mut seen);
    let texts = adversary::catalog::entries()
        .iter()
        .map(|e| format!("catalog({})", e.name))
        .chain(family.terms.iter().map(|t| t.text.clone()))
        .collect();
    (texts, family)
}

/// The program work before the first pass: every spec text parsed and
/// lowered (`AdversarySpec::parse`, then `build`, which validates it), the
/// query grid, and the session. Every solvability query asks for its
/// certificate, so the oracle can verify it.
fn setup(texts: &[String], shape: &SweepShape) -> (Vec<AdversarySpec>, Vec<Query>, Session) {
    let specs: Vec<AdversarySpec> = texts
        .iter()
        .map(|text| {
            let spec = AdversarySpec::parse(text).expect("generated specs parse");
            std::hint::black_box(spec.build().expect("generated specs build"));
            spec
        })
        .collect();
    let queries = grid(&specs, shape);
    (specs, queries, session())
}

fn grid(specs: &[AdversarySpec], shape: &SweepShape) -> Vec<Query> {
    Query::grid(specs, shape.max_depth, shape.analyses)
        .into_iter()
        .map(|q| match q.analysis {
            AnalysisKind::Solvability => q.with_certificate(),
            _ => q,
        })
        .collect()
}

fn session() -> Session {
    Session::with_configs(
        ExpandConfig::default(),
        AnalysisConfig::default(),
        CacheConfig::default(),
    )
    .expect("a memory-only session cannot fail to open")
    .workers(1)
}

/// FNV-1a over bytes (digests of stripped records).
fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A record without its timing fields, as a stable string.
pub fn stripped(record: &ScenarioRecord) -> String {
    record.to_json().without_keys(TIMING_FIELDS).to_string()
}

/// The semantic oracle for one record: no error or budget verdict, no
/// catalog ground-truth contradiction, and every definitive solvability
/// certificate present and accepted by `certificate::verify`.
fn record_ok(record: &ScenarioRecord, query: &Query, verified: &mut usize) -> Result<(), String> {
    let verdict = record.outcome.verdict.as_str();
    if matches!(verdict, "error" | "budget-exceeded") || record.budget_hit {
        return Err(format!("{}: verdict {verdict}", query.label()));
    }
    if record.matches_expected == Some(false) {
        return Err(format!("{}: contradicts catalog ground truth", query.label()));
    }
    if query.analysis == AnalysisKind::Solvability && matches!(verdict, "solvable" | "unsolvable") {
        let cert = record
            .certificate
            .as_ref()
            .ok_or_else(|| format!("{}: definitive verdict without certificate", query.label()))?;
        let cert = Certificate::from_json(cert).map_err(|e| format!("{}: {e}", query.label()))?;
        verify_certificate(&cert, query).map_err(|e| format!("{}: {e}", query.label()))?;
        *verified += 1;
    }
    Ok(())
}

/// The untraced run: set-up, timed cold passes, oracle.
pub fn run(shape: &SweepShape, seed: u64, seconds: f64) -> RunResult {
    let (texts, family) = texts(shape, seed);
    let mut notes = vec![format!("family: {}", family.census_line())];

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    // Pass 0's record hashes, whether each record passed the oracle, and
    // its cache counters: later passes must repeat them exactly.
    let mut reference: Vec<(u64, bool)> = Vec::new();
    let mut digest = 0u64;
    let mut cache_counts = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut correct = true;
    // Pass 0 warms the process (allocator, page faults) and is the oracle's
    // reference; it and its set-ups are checked but not timed.
    let started = Instant::now();
    let mut warm_up = true;
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        // Every pass is preceded by SETUPS_PER_PASS set-ups, each timed on
        // its own (they take milliseconds), so that set-up is sampled across
        // the whole run like the passes. The pass runs on the last one's
        // grid and fresh session, so caches start cold.
        let mut ready = None;
        for _ in 0..SETUPS_PER_PASS {
            drop(ready.take());
            let start = Instant::now();
            let out = setup(std::hint::black_box(&texts), shape);
            if !warm_up {
                setups.push(start.elapsed().as_secs_f64());
            }
            ready = Some(out);
        }
        let (_, queries, session) = ready.expect("at least one set-up per pass");
        let start = Instant::now();
        let report = session.check_many(std::hint::black_box(&queries));
        let jsonl = report.store.to_jsonl();
        let wall = start.elapsed();
        std::hint::black_box(&jsonl);
        if !std::mem::take(&mut warm_up) {
            walls.push(wall.as_secs_f64());
        }

        let records = report.store.records();
        attempted += queries.len() as u64;
        if records.len() != queries.len() {
            failed += queries.len() as u64;
            notes.push(format!(
                "pass returned {} records for {} queries",
                records.len(),
                queries.len()
            ));
            continue;
        }
        let hashes = records.iter().map(|r| fnv(stripped(r).as_bytes(), FNV_SEED));
        if reference.is_empty() {
            let mut verified = 0;
            for ((record, query), hash) in records.iter().zip(&queries).zip(hashes.clone()) {
                let ok =
                    record_ok(record, query, &mut verified).map_err(|why| notes.push(why)).is_ok();
                reference.push((hash, ok));
            }
            digest = reference.iter().fold(FNV_SEED, |h, (x, _)| fnv(&x.to_le_bytes(), h));
            notes
                .push(format!("records digest {digest:#018x}; {verified} certificate(s) verified"));
            cache_counts = Some(report.cache);
        }
        let bad = hashes.zip(&reference).filter(|(hash, (want, ok))| hash != want || !ok).count();
        failed += bad as u64;
        if bad > 0 {
            notes.push(format!("{bad} record(s) failed the oracle or differ from pass 0"));
        }
        if Some(report.cache) != cache_counts {
            correct = false;
            notes.push(format!("cache counters moved between passes: {:?}", report.cache));
        }
    }
    if seed == gen::DEFAULT_SEED && digest != shape.pinned_digest {
        failed = attempted;
        notes
            .push(format!("records digest {digest:#018x} != pinned {:#018x}", shape.pinned_digest));
    }
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert("sweep_s", median(&walls));
    notes.push(format!(
        "set-up {:.3}–{:.3} ms; {} passes ({:?} s)",
        quantile(&setups, 0.0) * 1e3,
        quantile(&setups, 1.0) * 1e3,
        walls.len(),
        walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>(),
    ));
    RunResult { correct: correct && failed == 0, attempted, failed, metrics: m, notes }
}

/// A space request seen by the timing wrapper.
#[derive(Debug, Clone, Copy)]
struct SpaceEvent {
    spec: usize,
    depth: usize,
    class: &'static str,
    dur_ns: u64,
}

/// Times every space request and classes it as hit / build / ladder by
/// the cache's own counter deltas.
struct TimedCache<'a> {
    cache: &'a SpaceCache,
    rec: &'a Recorder,
    spec: std::cell::Cell<usize>,
    events: RefCell<Vec<SpaceEvent>>,
}

impl TimedCache<'_> {
    fn space_with_meta(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<(Arc<PrefixSpace>, bool), BudgetExceeded> {
        let before = self.cache.stats();
        let start = Instant::now();
        let out = self.cache.space_with_meta(ma, values, depth, max_runs);
        let dur_ns = start.elapsed().as_nanos() as u64;
        let after = self.cache.stats();
        let class = if after.builds > before.builds {
            "cache.build"
        } else if after.ladder_hits > before.ladder_hits {
            "cache.ladder"
        } else if after.hits > before.hits {
            "cache.hit"
        } else {
            "cache.budget"
        };
        self.rec.leaf(class, dur_ns);
        self.events
            .borrow_mut()
            .push(SpaceEvent { spec: self.spec.get(), depth, class, dur_ns });
        out
    }
}

impl SpaceSource for TimedCache<'_> {
    fn space(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, BudgetExceeded> {
        self.space_with_meta(ma, values, depth, max_runs).map(|(space, _)| space)
    }
}

/// One traced replay pass: its wall, spans, space events, cache counters,
/// verdict tags and summed simulator runs.
struct TracedPass {
    wall: Duration,
    summary: Summary,
    events: Vec<SpaceEvent>,
    cache: consensus_lab::cache::CacheStats,
    verdicts: Vec<String>,
    sim_runs: usize,
}

/// Drive one scenario the way the runner does, with a span around each
/// public layer call. Returns the verdict tag.
fn replay_scenario(
    query: &Query,
    reference: &ScenarioRecord,
    source: &TimedCache<'_>,
    rec: &Recorder,
    sim_runs: &mut usize,
) -> String {
    let max_runs = ExpandConfig::default().max_runs;
    let ma = {
        let _s = rec.span("spec");
        let Ok(ma) = query.spec.build() else {
            return "error".into();
        };
        std::hint::black_box((
            ma.describe(),
            ma.fingerprint(),
            query.spec.label(),
            query.spec.expected(),
        ));
        ma
    };
    let verdict = match query.analysis {
        AnalysisKind::Solvability => {
            let checker = SolvabilityChecker::with_config(
                ma,
                AnalysisConfig::default().max_depth(query.depth),
                ExpandConfig::with_budget(max_runs),
            );
            let verdict = {
                let _s = rec.span("solvability");
                checker.check_via(source)
            };
            let _s = rec.span("cert.extract");
            let (label, fingerprint, n) =
                (&reference.adversary, reference.fingerprint, reference.n);
            let cert = match &verdict {
                Verdict::Solvable(cert) => source
                    .space_with_meta(checker.adversary(), SWEEP_VALUES, cert.depth, max_runs)
                    .ok()
                    .and_then(|(space, _)| {
                        Certificate::from_solvable(cert, &space, label, fingerprint)
                    }),
                Verdict::Unsolvable(UnsolvableCert::ZeroChain(chain)) => {
                    Certificate::from_unsolvable(chain, label, fingerprint, n, SWEEP_VALUES)
                }
                Verdict::Undecided(_) => None,
            };
            std::hint::black_box(cert.map(|c| c.to_json()));
            match verdict {
                Verdict::Solvable(_) => "solvable",
                Verdict::Unsolvable(_) => "unsolvable",
                Verdict::Undecided(_) => "undecided",
            }
            .to_string()
        }
        kind => {
            let Ok((space, _)) =
                source.space_with_meta(ma.as_ref(), SWEEP_VALUES, query.depth, max_runs)
            else {
                return "budget-exceeded".into();
            };
            std::hint::black_box(space.stats());
            match kind {
                AnalysisKind::Bivalence => {
                    let _s = rec.span("bivalence");
                    let separated = space.separation().is_separated();
                    if !separated {
                        std::hint::black_box(fair::valence_chain(
                            &space,
                            SWEEP_VALUES[0],
                            SWEEP_VALUES[1],
                        ));
                    }
                    if separated { "separated" } else { "mixed" }.to_string()
                }
                AnalysisKind::Broadcastability => {
                    let _s = rec.span("broadcast");
                    let report = broadcast::broadcast_report(&space);
                    std::hint::black_box(report.failing_components());
                    if report.all_broadcastable() {
                        "broadcastable"
                    } else {
                        "obstructed"
                    }
                    .to_string()
                }
                AnalysisKind::ComponentStats => {
                    let _s = rec.span("component_stats");
                    let report = analysis::report(&space);
                    if report.separated {
                        "separated"
                    } else {
                        "mixed"
                    }
                    .to_string()
                }
                AnalysisKind::SimCheck => {
                    let _s = rec.span("sim_check");
                    let cfg = checker::CheckConfig::at_depth(space.depth()).max_runs(max_runs);
                    let report = if space.separation().is_separated() {
                        let alg = UniversalAlgorithm::synthesize(&space)
                            .expect("separated space synthesizes");
                        checker::check(&alg, ma.as_ref(), SWEEP_VALUES, &cfg)
                    } else {
                        checker::check(
                            &FloodMin::new(space.depth()),
                            ma.as_ref(),
                            SWEEP_VALUES,
                            &cfg,
                        )
                    };
                    match report {
                        Ok(report) => {
                            *sim_runs += report.runs_checked;
                            if report.passed() { "passed" } else { "failed" }.to_string()
                        }
                        Err(_) => "budget-exceeded".into(),
                    }
                }
                AnalysisKind::Solvability => unreachable!("handled above"),
            }
        }
    };
    let _s = rec.span("record.encode");
    std::hint::black_box(reference.to_json().to_string());
    verdict
}

fn traced_pass(
    specs: &[AdversarySpec],
    queries: &[Query],
    reference: &[ScenarioRecord],
) -> (TracedPass, Recorder) {
    let rec = Recorder::default();
    let cache = SpaceCache::with_config(&ExpandConfig::default());
    let source = TimedCache {
        cache: &cache,
        rec: &rec,
        spec: std::cell::Cell::new(0),
        events: RefCell::new(Vec::new()),
    };
    let spec_index: HashMap<String, usize> =
        specs.iter().enumerate().map(|(i, s)| (s.label(), i)).collect();
    let mut verdicts = Vec::with_capacity(queries.len());
    let mut sim_runs = 0;
    let start = Instant::now();
    for (i, (query, reference)) in queries.iter().zip(reference).enumerate() {
        rec.set_op(i as u64);
        source.spec.set(spec_index[&query.spec.label()]);
        verdicts.push(replay_scenario(query, reference, &source, &rec, &mut sim_runs));
    }
    let wall = start.elapsed();
    let pass = TracedPass {
        wall,
        summary: rec.summary(),
        events: source.events.into_inner(),
        cache: cache.stats(),
        verdicts,
        sim_runs,
    };
    (pass, rec)
}

/// Library-layer attribution of one query grid.
struct Layers {
    metrics: Metrics,
    /// The first untraced pass's records (the replay's reference).
    records: Vec<ScenarioRecord>,
    /// False when the replay's cache counters or verdicts differ from the
    /// untraced pass's, or its layer spans miss more than
    /// [`SPAN_TOLERANCE`] of its wall.
    consistent: bool,
    notes: Vec<String>,
}

/// Expansion and components of the spaces a replay pass built or
/// laddered.
#[derive(Debug, Default, Clone, Copy)]
struct Built {
    expand_ms: f64,
    comp_ms: f64,
    runs: usize,
    views: usize,
    calls: usize,
}

/// Each (spec, depth) space the replay built or laddered, replayed from
/// scratch — `expand_with`, then `PrefixSpace::from_expansion` — as
/// (expand ns, components ns, runs, views).
type Shares = BTreeMap<(usize, usize), (f64, f64, usize, usize)>;

fn is_built(e: &&SpaceEvent) -> bool {
    e.class == "cache.build" || e.class == "cache.ladder"
}

fn shares(specs: &[AdversarySpec], events: &[SpaceEvent]) -> Shares {
    let max_runs = ExpandConfig::default().max_runs;
    let mut shares = Shares::new();
    for event in events.iter().filter(is_built) {
        shares.entry((event.spec, event.depth)).or_insert_with(|| {
            let ma = specs[event.spec].build().expect("grid specs build");
            let start = Instant::now();
            let expansion =
                enumerate::expand_with(ma.as_ref(), SWEEP_VALUES, event.depth, max_runs, 1)
                    .expect("the session expanded this space within budget");
            let expand_ns = start.elapsed().as_nanos() as f64;
            let (runs, views) = (expansion.runs.len(), expansion.table.len());
            let start = Instant::now();
            std::hint::black_box(PrefixSpace::from_expansion(expansion));
            let comp_ns = start.elapsed().as_nanos() as f64;
            (expand_ns, comp_ns, runs, views)
        });
    }
    shares
}

/// Split each build or ladder request's time into expansion and components
/// in the ratio of its from-scratch replay.
fn built(events: &[SpaceEvent], shares: &Shares) -> Built {
    let mut b = Built::default();
    for event in events.iter().filter(is_built) {
        let (e, c, r, v) = shares[&(event.spec, event.depth)];
        let t = event.dur_ns as f64 / 1e6;
        b.expand_ms += t * e / (e + c);
        b.comp_ms += t * c / (e + c);
        b.runs += r;
        b.views += v;
        b.calls += 1;
    }
    b
}

/// What a replay pass leaves for the report. Passes keep no bulk data,
/// and each untraced session is dropped before its replay: with both held,
/// the replays slowed steadily, by up to 40% over a 45-second run.
struct PassFigures {
    wall: Duration,
    summary: Summary,
    built: Built,
    sim_runs: usize,
}

/// Untraced `Session` passes alternate with traced replays (all cold)
/// until `seconds` have passed and at least [`MIN_PAIRS`] pairs ran. Each
/// replay's spans are written to `trace_out`, so the last pass's remain.
fn library_layers(
    specs: &[AdversarySpec],
    queries: &[Query],
    seconds: f64,
    trace_out: &std::path::Path,
) -> Layers {
    let mut notes = Vec::new();
    let mut consistent = true;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<(Vec<ScenarioRecord>, consensus_lab::cache::CacheStats)> = None;
    let mut split: Option<Shares> = None;
    let mut write_error = None;
    let started = Instant::now();
    while traced.len() < MIN_PAIRS || started.elapsed().as_secs_f64() < seconds {
        let session = session();
        let start = Instant::now();
        let report = session.check_many(queries);
        std::hint::black_box(report.store.to_jsonl());
        untraced.push(start.elapsed().as_secs_f64());
        drop(session);
        let (records, cache) =
            reference.get_or_insert_with(|| (report.store.into_records(), report.cache));
        let (pass, rec) = traced_pass(specs, queries, records);
        if pass.cache != *cache {
            consistent = false;
            notes.push(format!("traced cache counters {:?} != untraced {:?}", pass.cache, cache));
        }
        let wrong = pass
            .verdicts
            .iter()
            .zip(records.iter())
            .filter(|(v, r)| **v != r.outcome.verdict)
            .count();
        if wrong > 0 {
            consistent = false;
            notes.push(format!("{wrong} replayed verdict(s) differ from the session's"));
        }
        write_error = rec.write_jsonl(trace_out).err();
        drop(rec);
        let split = split.get_or_insert_with(|| shares(specs, &pass.events));
        traced.push(PassFigures {
            wall: pass.wall,
            summary: pass.summary,
            built: built(&pass.events, split),
            sim_runs: pass.sim_runs,
        });
    }
    if let Some(e) = write_error {
        notes.push(format!("could not write spans to {}: {e}", trace_out.display()));
    }
    let (records, cache) = reference.expect("at least one pass ran");
    let split = split.expect("at least one pass ran");

    // The first pair warms the process; drop it when there are enough.
    let skip = usize::from(traced.len() > 2);
    let untraced = untraced.split_off(skip);
    let traced = traced.split_off(skip);
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|a, b| traced[*a].wall.cmp(&traced[*b].wall));
    let pass = &traced[order[(order.len() - 1) / 2]];
    let s = &pass.summary;
    let Built { expand_ms, comp_ms, runs, views, calls } = pass.built;
    let per_view: Vec<f64> = split.values().map(|(e, _, _, v)| e / (*v).max(1) as f64).collect();

    let w_u = median(&untraced) * 1e3;
    let w_t = median(&traced.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>()) * 1e3;
    // Tracing cost per pair of adjacent passes, which share the machine's
    // state of the moment.
    let ratios: Vec<f64> = traced
        .iter()
        .zip(&untraced)
        .map(|(t, u)| t.wall.as_secs_f64() / u - 1.0)
        .collect();
    let trace_overhead = median(&ratios);
    let cache_ms = s.self_ms("cache.hit") + s.self_ms("cache.budget");
    let layers = s.self_ms("spec")
        + cache_ms
        + expand_ms
        + comp_ms
        + [
            "solvability",
            "bivalence",
            "broadcast",
            "component_stats",
            "sim_check",
            "cert.extract",
            "record.encode",
        ]
        .iter()
        .map(|name| s.self_ms(name))
        .sum::<f64>();

    // The store's read path: each JSONL line parsed back.
    let parse_us: Vec<f64> = records
        .iter()
        .map(|r| {
            let line = r.to_json().to_string();
            let start = Instant::now();
            std::hint::black_box(json::parse(&line).ok());
            crate::stats::us(start.elapsed())
        })
        .collect();

    let mut m = Metrics::new();
    m.insert("spec.calls", s.calls("spec") as f64);
    m.insert("spec.us", s.median_us("spec"));
    m.insert("expand.calls", calls as f64);
    m.insert("expand.ms", expand_ms);
    m.insert("expand.runs", runs as f64);
    m.insert("expand.views", views as f64);
    m.insert("expand.ns_per_view", median(&per_view));
    m.insert("components.ms", comp_ms);
    m.insert("cache.hits", cache.hits as f64);
    m.insert("cache.builds", cache.builds as f64);
    m.insert("cache.ladder_hits", cache.ladder_hits as f64);
    m.insert("cache.avoided_ratio", cache.avoided() as f64 / cache.requests().max(1) as f64);
    m.insert("cache.ms", cache_ms);
    m.insert("solvability.ms", s.self_ms("solvability"));
    m.insert("bivalence.ms", s.self_ms("bivalence"));
    m.insert("broadcast.ms", s.self_ms("broadcast"));
    m.insert("component_stats.ms", s.self_ms("component_stats"));
    m.insert("sim_check.ms", s.self_ms("sim_check"));
    m.insert("sim_check.runs_checked", pass.sim_runs as f64);
    m.insert("cert.extract.ms", s.self_ms("cert.extract"));
    m.insert("record.encode.us", s.median_us("record.encode"));
    m.insert("json.parse.us", median(&parse_us));
    m.insert("session.overhead.ms", w_u - layers);
    m.insert("bench.trace_overhead_ratio", trace_overhead);

    // The layer self times must cover the reported replay pass's own wall.
    // The gap between the traced and untraced walls is reported, not
    // checked: it is mostly `session.overhead.ms` (what `Session` and the
    // runner add around the layer calls) plus pass-to-pass noise.
    let pass_ms = pass.wall.as_secs_f64() * 1e3;
    notes.push(format!(
        "untraced pass {w_u:.1} ms, traced {w_t:.1} ms; in the reported replay pass the \
         layer self times cover {layers:.1} of {pass_ms:.1} ms"
    ));
    notes.push(format!(
        "pass walls, untraced/traced (ms): {:?}",
        untraced
            .iter()
            .zip(&traced)
            .map(|(u, t)| ((u * 1e3).round(), (t.wall.as_secs_f64() * 1e3).round()))
            .collect::<Vec<_>>()
    ));
    if (pass_ms - layers).abs() > SPAN_TOLERANCE * pass_ms {
        consistent = false;
        notes.push(format!("layer spans miss {:.1} of {pass_ms:.1} ms", pass_ms - layers));
    }
    Layers { metrics: m, records, consistent, notes }
}

/// The traced run: [`library_layers`] over the workload's grid and the
/// certificate oracle, then the other doors on the same inputs — the
/// journal on its records, the HTTP request path on a sixth of its
/// queries, the cluster on its catalog part.
pub fn run_traced(
    shape: &SweepShape,
    seed: u64,
    seconds: f64,
    root: &std::path::Path,
    trace_out: &std::path::Path,
) -> RunResult {
    let (texts, _) = texts(shape, seed);
    let (specs, queries, _) = setup(&texts, shape);
    let layers = library_layers(&specs, &queries, seconds, trace_out);
    let (mut m, mut notes, mut correct) = (layers.metrics, layers.notes, layers.consistent);
    let records = layers.records;
    let mut verified = 0usize;
    let mut verify_us = Vec::new();
    for (record, query) in records.iter().zip(&queries) {
        let start = Instant::now();
        let outcome = record_ok(record, query, &mut verified);
        if query.analysis == AnalysisKind::Solvability && record.certificate.is_some() {
            verify_us.push(crate::stats::us(start.elapsed()));
        }
        if let Err(why) = outcome {
            correct = false;
            notes.push(why);
        }
    }
    let jsonl_bytes = records.iter().map(|r| r.to_json().to_string().len() + 1).sum::<usize>();
    m.insert("cert.verify.us", median(&verify_us));
    m.insert("cert.verified", verified as f64);
    m.insert("response.kb", jsonl_bytes as f64 / records.len().max(1) as f64 / 1024.0);

    let sample: Vec<Query> = queries.iter().step_by(6).cloned().collect();
    let grid = crate::cluster::Grid { max_depth: shape.max_depth, analyses: shape.analyses };
    let cluster = crate::cluster::layers(grid, root);
    correct &= cluster.correct;
    notes.extend(cluster.notes.into_iter().map(|n| format!("cluster: {n}")));
    let (journal, journal_failures) = crate::serve::journal_layers(&records, root);
    let (http, http_failures) = crate::serve::http_layers(&sample, root);
    for (door, failures) in [("journal", journal_failures), ("HTTP door", http_failures)] {
        if !failures.is_empty() {
            correct = false;
            notes.push(format!("{door}: {} failure(s)", failures.len()));
            notes.extend(failures.into_iter().take(20));
        }
    }
    // Each door reports metrics of its own layers only.
    m.extend(journal.into_iter().chain(http).chain(cluster.metrics));
    let failed = u64::from(!correct);
    RunResult { correct, attempted: queries.len() as u64, failed, metrics: m, notes }
}
