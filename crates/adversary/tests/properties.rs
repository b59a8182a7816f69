//! Property-style tests for the adversary machinery.
//!
//! Driven by a seeded deterministic generator (the offline stand-in for
//! proptest; see `crates/compat/README.md`): each test replays a fixed
//! number of pseudo-random cases, so failures are reproducible from the
//! printed case data alone.

use std::collections::BTreeSet;

use adversary::{enumerate, ConcatMA, GeneralMA, Liveness, MessageAdversary, SpecTerm};
use dyngraph::{Digraph, GraphSeq, Lasso};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 48;

/// A random nonempty pool of up to `max_graphs` normalized graphs on `n`
/// processes (distinct codes; normalization may merge some).
fn arb_pool(rng: &mut StdRng, n: usize, max_graphs: usize) -> Vec<Digraph> {
    let max_code: u64 = 1 << (n * n);
    let count = rng.random_range(1..=max_graphs);
    let mut codes = BTreeSet::new();
    while codes.len() < count {
        codes.insert(rng.random_range(0..max_code));
    }
    codes.into_iter().map(|c| Digraph::from_code(n, c).normalized()).collect()
}

fn arb_word(rng: &mut StdRng, max_index: usize, max_len: usize) -> Vec<usize> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| rng.random_range(0..max_index)).collect()
}

/// Oblivious adversaries: the sequence tree is the full |pool|^t product.
#[test]
fn oblivious_tree_is_product() {
    let mut rng = StdRng::seed_from_u64(0xAD01);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let depth = rng.random_range(0..4usize);
        let distinct = {
            let mut p = pool.clone();
            p.sort();
            p.dedup();
            p.len()
        };
        let ma = GeneralMA::oblivious(pool);
        let seqs = enumerate::admissible_sequences(&ma, depth);
        assert_eq!(seqs.len(), distinct.pow(depth as u32));
    }
}

/// Every normalized graph on `n` processes, in code order.
fn all_graphs(n: usize) -> Vec<Digraph> {
    let graphs: BTreeSet<Digraph> =
        (0..1u64 << (n * n)).map(|c| Digraph::from_code(n, c)).collect();
    graphs.into_iter().collect()
}

/// Every word over `graphs` of at most `depth` rounds, the empty one
/// included.
fn all_words(graphs: &[Digraph], depth: usize) -> Vec<GraphSeq> {
    let mut words = vec![GraphSeq::new()];
    let mut layer = words.clone();
    for _ in 0..depth {
        layer = layer
            .iter()
            .flat_map(|w| graphs.iter().map(|g| w.extended(g.clone())))
            .collect();
        words.extend(layer.iter().cloned());
    }
    words
}

/// The extension contract, on every word of at most `depth` rounds over
/// all normalized graphs: `extensions(p)` lists exactly
/// `{g : admits_prefix(p · g)}`, each graph once, and it is empty unless
/// `admits_prefix(p)`. The oracle reads only `admits_prefix`, never
/// `extensions`.
fn assert_extension_contract(label: &str, ma: &dyn MessageAdversary, depth: usize) {
    let graphs = all_graphs(ma.n());
    for prefix in all_words(&graphs, depth) {
        let exts = ma.extensions(&prefix);
        if !ma.admits_prefix(&prefix) {
            assert!(exts.is_empty(), "{label}: {prefix} is not admitted but extends by {exts:?}");
        }
        let got: BTreeSet<Digraph> = exts.iter().cloned().collect();
        assert_eq!(got.len(), exts.len(), "{label}: duplicate extensions of {prefix}");
        let admitted: BTreeSet<Digraph> = graphs
            .iter()
            .filter(|g| ma.admits_prefix(&prefix.extended((*g).clone())))
            .cloned()
            .collect();
        assert_eq!(got, admitted, "{label}: extensions of {prefix}");
    }
}

/// The contract's word depth for `n` processes: 4 for n = 2 (341 words),
/// 1 for n = 3 (65 words over 64 graphs).
fn contract_depth(n: usize) -> usize {
    if n <= 2 {
        4
    } else {
        1
    }
}

const ARROWS: [&str; 4] = [".", "->", "<-", "<->"];
const CATALOG_LEAVES: [&str; 4] = [
    "sw-lossy-link",
    "cgp-reduced-lossy-link",
    "vssc-2-1-by-2",
    "eventually-bidirectional",
];

/// A random n = 2 spec term, nested at most `nest` deep, over all seven
/// combinators; `eventually` and `window` come with and without a
/// deadline. Each construct used is added to `used`.
fn arb_term(rng: &mut StdRng, nest: usize, used: &mut BTreeSet<&'static str>) -> String {
    let pool_word = |rng: &mut StdRng| -> Vec<&'static str> {
        let mask = rng.random_range(1..16usize);
        (0..4).filter(|b| mask & (1 << b) != 0).map(|b| ARROWS[b]).collect()
    };
    let pick = if nest == 0 {
        rng.random_range(0..4usize)
    } else {
        rng.random_range(0..7usize)
    };
    match pick {
        0 => {
            used.insert("pool");
            format!("pool({})", pool_word(rng).join(" "))
        }
        1 => {
            let word = pool_word(rng);
            let target = word[rng.random_range(0..word.len())];
            if rng.random_bool(0.5) {
                used.insert("eventually-by");
                format!(
                    "eventually({}, {target}, by={})",
                    word.join(" "),
                    rng.random_range(1..5usize)
                )
            } else {
                used.insert("eventually");
                format!("eventually({}, {target})", word.join(" "))
            }
        }
        2 => {
            let window = rng.random_range(1..3usize);
            let word = pool_word(rng).join(" ");
            if rng.random_bool(0.5) {
                used.insert("window-by");
                format!("window({word}, {window}, by={})", window + rng.random_range(0..3usize))
            } else {
                used.insert("window");
                format!("window({word}, {window})")
            }
        }
        3 => {
            used.insert("catalog");
            format!("catalog({})", CATALOG_LEAVES[rng.random_range(0..CATALOG_LEAVES.len())])
        }
        4 => {
            used.insert("union");
            let members: Vec<String> = (0..rng.random_range(2..4usize))
                .map(|_| arb_term(rng, nest - 1, used))
                .collect();
            format!("union({})", members.join(", "))
        }
        5 => {
            used.insert("intersect");
            format!(
                "intersect({}, {})",
                arb_term(rng, nest - 1, used),
                arb_term(rng, nest - 1, used)
            )
        }
        _ => {
            used.insert("prefix");
            let word: Vec<&str> = (0..rng.random_range(1..3usize))
                .map(|_| ARROWS[rng.random_range(0..4usize)])
                .collect();
            format!("prefix({}, {})", word.join(" "), arb_term(rng, nest - 1, used))
        }
    }
}

/// Extension contract (see [`assert_extension_contract`]) for every
/// catalog entry, a word before a dead tail, random deadline pools, and a
/// seeded family of 150 composed spec terms that lower.
#[test]
fn extensions_match_admissibility() {
    for entry in adversary::catalog::entries() {
        let ma = entry.build();
        assert_extension_contract(entry.name, &ma, contract_depth(ma.n()));
    }
    // A forced word before a tail that admits no sequence at all (its
    // liveness target is outside its pool), which no spec term lowers to.
    let right = Digraph::parse2("->").unwrap();
    let dead = GeneralMA::eventually_graph(vec![right], Digraph::parse2("<-").unwrap(), None);
    let ma = ConcatMA::new(GraphSeq::parse2("<-> ->").unwrap(), Box::new(dead));
    assert_extension_contract(&ma.describe(), &ma, contract_depth(2));

    let mut rng = StdRng::seed_from_u64(0xAD02);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 4);
        let deadline = rng.random_range(1..4usize);
        let target = pool[0].clone();
        let ma = GeneralMA::eventually_graph(pool, target, Some(deadline));
        assert_extension_contract(&ma.describe(), &ma, contract_depth(2));
    }

    let mut covered = BTreeSet::new();
    let mut kept = 0;
    while kept < 150 {
        let mut used = BTreeSet::new();
        let text = arb_term(&mut rng, 2, &mut used);
        let term = SpecTerm::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let Ok(ma) = term.lower() else { continue };
        assert_extension_contract(&text, &ma, contract_depth(ma.n()));
        covered.extend(used);
        kept += 1;
    }
    let all = [
        "catalog",
        "pool",
        "eventually",
        "eventually-by",
        "window",
        "window-by",
        "union",
        "intersect",
        "prefix",
    ];
    assert_eq!(covered, all.into_iter().collect(), "the family covers every construct");
}

/// Deadline monotonicity: admissibility under deadline R implies
/// admissibility under R + 1 (the compact approximations grow).
#[test]
fn deadline_monotone() {
    let mut rng = StdRng::seed_from_u64(0xAD03);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let word = arb_word(&mut rng, 3, 5);
        let r = rng.random_range(1..4usize);
        let target = pool[0].clone();
        let ma_r = GeneralMA::eventually_graph(pool.clone(), target.clone(), Some(r));
        let ma_r1 = GeneralMA::eventually_graph(pool.clone(), target, Some(r + 1));
        let prefix: GraphSeq = word.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        if ma_r.admits_prefix(&prefix) {
            assert!(ma_r1.admits_prefix(&prefix), "prefix {prefix} lost at R+1");
        }
    }
}

/// Lasso admissibility for the non-compact variant is implied by any
/// deadline variant (union of approximations).
#[test]
fn lasso_deadline_implies_eventual() {
    let mut rng = StdRng::seed_from_u64(0xAD04);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let pre = arb_word(&mut rng, 3, 3);
        let cyc_len = rng.random_range(1..3usize);
        let cyc: Vec<usize> = (0..cyc_len).map(|_| rng.random_range(0..3usize)).collect();
        let r = rng.random_range(1..5usize);
        let target = pool[0].clone();
        let with_deadline = GeneralMA::eventually_graph(pool.clone(), target.clone(), Some(r));
        let eventual = GeneralMA::eventually_graph(pool.clone(), target, None);
        let pick = |idx: &Vec<usize>| -> GraphSeq {
            idx.iter().map(|&i| pool[i % pool.len()].clone()).collect()
        };
        let lasso = Lasso::new(pick(&pre), pick(&cyc));
        if with_deadline.admits_lasso(&lasso) == Some(true) {
            assert_eq!(eventual.admits_lasso(&lasso), Some(true));
        }
    }
}

/// Stable windows: whenever the liveness says satisfied, a literal scan
/// finds a window of identical rooted-source masks.
#[test]
fn stable_window_scan_agrees() {
    let mut rng = StdRng::seed_from_u64(0xAD05);
    for _ in 0..CASES {
        let word: Vec<u64> = {
            let len = rng.random_range(0..6usize);
            (0..len).map(|_| rng.random_range(0..16u64)).collect()
        };
        let window = rng.random_range(1..3usize);
        let seq: GraphSeq = word.iter().map(|&c| Digraph::from_code(2, c).normalized()).collect();
        let satisfied = Liveness::StableWindow { window }.satisfied(&seq);
        // Literal re-scan.
        let masks: Vec<Option<dyngraph::PidMask>> =
            seq.iter().map(dyngraph::scc::rooted_source).collect();
        let mut found = false;
        if masks.len() >= window {
            for s in 0..=(masks.len() - window) {
                if masks[s].is_some() && masks[s..s + window].iter().all(|m| *m == masks[s]) {
                    found = true;
                }
            }
        }
        assert_eq!(satisfied, found, "word {word:?}, window {window}");
    }
}

/// Enumerated prefix spaces have runs only over admissible sequences.
#[test]
fn expansion_runs_admissible() {
    let mut rng = StdRng::seed_from_u64(0xAD06);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let depth = rng.random_range(0..3usize);
        let ma = GeneralMA::oblivious(pool);
        let e = enumerate::expand_binary(&ma, depth, 100_000).unwrap();
        for run in &e.runs {
            assert!(ma.admits_prefix(run.seq()));
        }
    }
}
