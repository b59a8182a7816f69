//! Parallel/serial expansion-engine equivalence over the full catalog.
//!
//! The determinism contract of the sharded engine: for ANY worker count,
//! the expanded space is **byte-identical** to the serial one — same run
//! order, same interned `ViewId` assignment, same view-table contents,
//! same ε-component ids — so fingerprint-keyed caches, the depth ladder,
//! and persisted verdicts can never observe which engine ran.
//!
//! The worker counts exercised default to {1, 2, 8}; CI narrows a job to
//! one count via the `EXPAND_THREADS` env var (e.g. `EXPAND_THREADS=2`).

use adversary::catalog;
use adversary::enumerate::{expand, expand_with};
use consensus_core::config::ExpandConfig;
use consensus_core::PrefixSpace;
use consensus_lab::cache::SpaceCache;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use consensus_lab::store::TIMING_FIELDS;

const BUDGET: usize = 2_000_000;
const VALUES: &[u32] = &[0, 1];
const DEPTHS: std::ops::RangeInclusive<usize> = 1..=4;
const CFG: ExpandConfig = ExpandConfig { threads: 1, max_runs: BUDGET };

/// Worker counts under test: `EXPAND_THREADS` (comma-separated) or 1, 2, 8.
fn thread_counts() -> Vec<usize> {
    match std::env::var("EXPAND_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("EXPAND_THREADS must be comma-separated numbers"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

#[test]
fn expansions_byte_identical_across_worker_counts() {
    for entry in catalog::entries() {
        let ma = entry.build();
        for depth in DEPTHS {
            let serial = match expand(&ma, VALUES, depth, BUDGET) {
                Ok(e) => e,
                Err(serial_err) => {
                    // Over budget: every engine must report the same error.
                    for threads in thread_counts() {
                        let err = expand_with(&ma, VALUES, depth, BUDGET, threads)
                            .expect_err("serial exceeded the budget");
                        assert_eq!(err, serial_err, "{}@{depth} threads={threads}", entry.name);
                    }
                    continue;
                }
            };
            for threads in thread_counts() {
                let par = expand_with(&ma, VALUES, depth, BUDGET, threads)
                    .expect("serial fit the budget");
                assert_eq!(
                    par.runs, serial.runs,
                    "{}@{depth} threads={threads}: run list diverged",
                    entry.name
                );
                assert_eq!(
                    par.table, serial.table,
                    "{}@{depth} threads={threads}: view table diverged",
                    entry.name
                );
                assert_eq!(par.depth, serial.depth);
                assert_eq!(par.values, serial.values);
            }
        }
    }
}

/// Each sequence and each input assignment is stored once: every run
/// points at the same sequence allocation as the run over that sequence
/// under the first input assignment, and at the same inputs as the first
/// run of its assignment. This holds after a build, an in-place extension
/// and a ladder rung, serial or sharded.
#[test]
fn runs_share_sequences_and_inputs_across_worker_counts() {
    for entry in catalog::entries() {
        let ma = entry.build();
        for threads in thread_counts() {
            let cfg = CFG.threads(threads);
            let built = PrefixSpace::expand(&ma, VALUES, 2, &cfg).unwrap();
            let shallow = PrefixSpace::expand(&ma, VALUES, 1, &cfg).unwrap();
            let extended = shallow.extend(&ma, &cfg).unwrap();
            let laddered = built.extend_from(&ma, &cfg).unwrap();
            for (how, space) in [("build", &built), ("extend", &extended), ("rung", &laddered)] {
                let (runs, k) = (space.runs(), space.sequence_count());
                let at = format!("{}@{} {how} threads={threads}", entry.name, space.depth());
                assert!(runs.len() > k, "{at}: a single input assignment shares nothing");
                for (i, run) in runs.iter().enumerate() {
                    assert!(std::ptr::eq(run.seq(), runs[i % k].seq()), "{at}: run {i} sequence");
                    let first = &runs[i - i % k];
                    assert!(std::ptr::eq(run.inputs(), first.inputs()), "{at}: run {i} inputs");
                }
            }
        }
    }
}

#[test]
fn spaces_and_components_identical_across_worker_counts() {
    for entry in catalog::entries() {
        let ma = entry.build();
        for depth in DEPTHS {
            let Ok(serial) = PrefixSpace::expand(&ma, VALUES, depth, &CFG) else {
                continue;
            };
            for threads in thread_counts() {
                let par = PrefixSpace::expand(&ma, VALUES, depth, &CFG.threads(threads))
                    .expect("serial fit the budget");
                assert_eq!(par.runs(), serial.runs(), "{}@{depth}", entry.name);
                assert_eq!(par.table(), serial.table(), "{}@{depth}", entry.name);
                assert_eq!(par.components(), serial.components(), "{}@{depth}", entry.name);
                assert_eq!(par.stats(), serial.stats(), "{}@{depth}", entry.name);
            }
        }
    }
}

#[test]
fn ladder_rungs_identical_across_worker_counts() {
    for entry in catalog::entries() {
        let ma = entry.build();
        let Ok(mut serial) = PrefixSpace::expand(&ma, VALUES, 1, &CFG) else {
            continue;
        };
        let mut parallel: Vec<(usize, PrefixSpace)> =
            thread_counts().into_iter().map(|t| (t, serial.clone())).collect();
        for depth in 2..=4 {
            let Ok(next) = serial.extend_from(&ma, &CFG) else {
                break;
            };
            serial = next;
            for (threads, space) in &mut parallel {
                *space = space
                    .extend_from(&ma, &CFG.threads(*threads))
                    .expect("serial extension fit the budget");
                assert_eq!(space.runs(), serial.runs(), "{}@{depth} t={threads}", entry.name);
                assert_eq!(space.table(), serial.table(), "{}@{depth} t={threads}", entry.name);
                assert_eq!(
                    space.components(),
                    serial.components(),
                    "{}@{depth} t={threads}",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn fingerprint_cache_trajectory_identical_across_worker_counts() {
    // The cache keyed by structural adversary fingerprints must follow the
    // exact same hit/build/ladder trajectory whichever engine fills it, and
    // serve identical spaces.
    let serial = SpaceCache::new();
    let request = |cache: &SpaceCache| {
        let mut spaces = Vec::new();
        for entry in catalog::entries() {
            let ma = entry.build();
            for depth in DEPTHS {
                if let Ok((space, cached)) = cache.space_with_meta(&ma, VALUES, depth, BUDGET) {
                    spaces.push((entry.name, depth, space, cached));
                }
            }
        }
        spaces
    };
    let baseline = request(&serial);
    let serial_stats = serial.stats();
    assert!(serial_stats.hits > 0, "catalog aliases must produce fingerprint-cache hits");
    assert!(serial_stats.ladder_hits > 0, "ascending depths must ladder");

    for threads in thread_counts() {
        let cache = SpaceCache::with_config(&ExpandConfig::new().threads(threads));
        let spaces = request(&cache);
        assert_eq!(cache.stats(), serial_stats, "threads={threads}: cache trajectory diverged");
        assert_eq!(spaces.len(), baseline.len());
        for ((name, depth, a, ca), (_, _, b, cb)) in baseline.iter().zip(&spaces) {
            assert_eq!(ca, cb, "{name}@{depth} threads={threads}: hit/miss diverged");
            assert_eq!(a.runs(), b.runs(), "{name}@{depth} threads={threads}");
            assert_eq!(a.table(), b.table(), "{name}@{depth} threads={threads}");
            assert_eq!(a.components(), b.components(), "{name}@{depth} threads={threads}");
        }
    }
}

#[test]
fn sweep_records_byte_identical_across_worker_counts() {
    // End-to-end: full-catalog sweep records (verdicts, fingerprints,
    // space stats) are byte-identical modulo wall-clock fields whichever
    // expansion engine the shared cache uses.
    let queries =
        Query::catalog_grid(3, &[AnalysisKind::Solvability, AnalysisKind::ComponentStats]);
    let strip = |report: &consensus_lab::SweepReport| -> Vec<String> {
        report
            .store
            .records()
            .iter()
            .map(|r| r.to_json().without_keys(TIMING_FIELDS).to_string())
            .collect()
    };
    let serial = Session::new().workers(2).check_many(&queries);
    let baseline = strip(&serial);
    for threads in thread_counts() {
        let session = Session::with_configs(
            ExpandConfig::new().threads(threads),
            consensus_lab::AnalysisConfig::default(),
            consensus_lab::CacheConfig::default(),
        )
        .unwrap()
        .workers(2);
        let report = session.check_many(&queries);
        assert_eq!(strip(&report), baseline, "threads={threads}: sweep records diverged");
        // Raw hit/build splits are scheduling-dependent (two sweep workers
        // racing one key both build; the loser's space is dropped), but
        // the total request count is not.
        assert_eq!(
            report.cache.requests(),
            serial.cache.requests(),
            "threads={threads}: cache request count diverged"
        );
        if threads > 1 {
            assert!(
                report.expand.shards > report.expand.passes,
                "threads={threads}: expected sharded passes"
            );
        }
    }
}
