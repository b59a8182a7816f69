//! Incremental-equivalence properties of the depth ladder (ISSUE 2): a
//! space reached by `extend()`/`extend_from()` laddering is
//! indistinguishable — stats, verdicts, JSONL rows — from one built from
//! scratch at the target depth, across the full catalog at depths 1..=4.

use adversary::catalog;
use consensus_core::config::ExpandConfig;
use consensus_core::PrefixSpace;
use consensus_lab::cache::SpaceCache;
use consensus_lab::runner::execute_scenario;
use consensus_lab::scenario::{AnalysisKind, GridBuilder};
use consensus_lab::session::{Query, Session};
use consensus_lab::store::TIMING_FIELDS;

const MAX_DEPTH: usize = 4;
const BUDGET: usize = 2_000_000;
const VALUES: &[ptgraph::Value] = &[0, 1];
const CFG: ExpandConfig = ExpandConfig { max_runs: BUDGET };

/// Laddered spaces match from-scratch builds exactly: same stats, same
/// separation verdict, same run enumeration order, for every catalog entry
/// at every depth 1..=4.
#[test]
fn laddered_spaces_match_scratch_builds_across_catalog() {
    for entry in catalog::entries() {
        let ma = entry.build();
        let mut laddered = PrefixSpace::expand(&ma, VALUES, 0, &CFG)
            .unwrap_or_else(|e| panic!("{}: depth-0 build failed: {e}", entry.name));
        for depth in 1..=MAX_DEPTH {
            // `extend_from` leaves the ancestor intact (the cache's leg);
            // use it for the step so both seams are exercised.
            laddered = laddered
                .extend_from(&ma, &CFG)
                .unwrap_or_else(|e| panic!("{}@{depth}: extension failed: {e}", entry.name));
            let scratch = PrefixSpace::expand(&ma, VALUES, depth, &CFG)
                .unwrap_or_else(|e| panic!("{}@{depth}: build failed: {e}", entry.name));
            assert_eq!(
                laddered.stats(),
                scratch.stats(),
                "{}@{depth}: stats diverge between ladder and scratch",
                entry.name
            );
            assert_eq!(
                laddered.separation().is_separated(),
                scratch.separation().is_separated(),
                "{}@{depth}: separation verdict diverges",
                entry.name
            );
            assert_eq!(
                laddered.component_assignment(),
                scratch.component_assignment(),
                "{}@{depth}: component assignment diverges",
                entry.name
            );
            // Run enumeration order is identical, which is what makes every
            // downstream artifact (chains, assignments, JSONL) comparable.
            assert_eq!(laddered.runs().len(), scratch.runs().len());
            for (a, b) in laddered.runs().iter().zip(scratch.runs()) {
                assert_eq!(a.inputs(), b.inputs(), "{}@{depth}", entry.name);
                assert_eq!(a.seq(), b.seq(), "{}@{depth}", entry.name);
            }
        }
    }
}

/// Each sequence and each input assignment is stored once: every run
/// points at the same sequence allocation as the run over that sequence
/// under the first input assignment, and at the same inputs as the first
/// run of its assignment. This holds after a build, an in-place extension
/// and a ladder rung.
#[test]
fn runs_share_sequences_and_inputs() {
    for entry in catalog::entries() {
        let ma = entry.build();
        let built = PrefixSpace::expand(&ma, VALUES, 2, &CFG).unwrap();
        let shallow = PrefixSpace::expand(&ma, VALUES, 1, &CFG).unwrap();
        let extended = shallow.extend(&ma, &CFG).unwrap();
        let laddered = built.extend_from(&ma, &CFG).unwrap();
        for (how, space) in [("build", &built), ("extend", &extended), ("rung", &laddered)] {
            let (runs, k) = (space.runs(), space.sequence_count());
            let at = format!("{}@{} {how}", entry.name, space.depth());
            assert!(runs.len() > k, "{at}: a single input assignment shares nothing");
            for (i, run) in runs.iter().enumerate() {
                assert!(std::ptr::eq(run.seq(), runs[i % k].seq()), "{at}: run {i} sequence");
                let first = &runs[i - i % k];
                assert!(std::ptr::eq(run.inputs(), first.inputs()), "{at}: run {i} inputs");
            }
        }
    }
}

/// Sweeping through a shared (laddering) cache produces byte-identical
/// JSONL rows, modulo timing fields, to sweeping every scenario against
/// its own fresh cache (where every space is built from scratch).
#[test]
fn laddered_sweep_rows_match_scratch_sweep_rows() {
    let grid = GridBuilder::new(MAX_DEPTH, BUDGET).over_catalog();

    // Scratch: a fresh cache per scenario — no ancestor ever available, so
    // every space request is a full expansion.
    let scratch_rows: Vec<String> = grid
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let lone = SpaceCache::new();
            execute_scenario(i, scenario, &lone, None)
                .to_json()
                .without_keys(TIMING_FIELDS)
                .to_string()
        })
        .collect();

    // Laddered: one session (one shared cache) across the whole grid.
    let session = Session::new().workers(2);
    let queries = Query::catalog_grid(MAX_DEPTH, &AnalysisKind::ALL);
    let report = session.check_many(&queries);
    let ladder_rows: Vec<String> = report
        .store
        .records()
        .iter()
        .map(|r| r.to_json().without_keys(TIMING_FIELDS).to_string())
        .collect();

    assert_eq!(scratch_rows, ladder_rows, "ladder must be invisible in the results");
    let stats = session.space_cache().stats();
    assert!(stats.ladder_hits > 0, "a catalog sweep must exercise the ladder: {stats:?}");
    assert!(
        stats.builds < grid.len() / 2,
        "laddering must replace most full expansions: {stats:?}"
    );
}

/// The acceptance shape: a depth-`d` miss with a cached depth-`d-1`
/// ancestor goes through `extended()` (a ladder hit), not a rebuild.
#[test]
fn depth_miss_with_ancestor_ladders_not_rebuilds() {
    let cache = SpaceCache::new();
    let ma = catalog::by_name("sw-lossy-link").expect("catalog entry").build();
    for depth in 0..=MAX_DEPTH {
        cache
            .space_with_meta(&ma, VALUES, depth, BUDGET)
            .unwrap_or_else(|e| panic!("depth {depth}: {e}"));
    }
    let stats = cache.stats();
    assert_eq!(stats.builds, 1, "only depth 0 may build from scratch: {stats:?}");
    assert_eq!(stats.ladder_hits, MAX_DEPTH, "each deeper depth ladders once: {stats:?}");
    assert_eq!(stats.hits, 0, "{stats:?}");
}
