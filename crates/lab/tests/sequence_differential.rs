//! Seeded, deterministic differential test of the sequence list that the
//! checker and the expansion share (CI fast lane).
//!
//! A prefix space is the only source of its admissible sequences: the
//! universal algorithm's verification and the lab's sim-check walk
//! `PrefixSpace::sequences()`, and the space's runs are laid out over the
//! same list. An enumeration bug would hide in an input both read, so the
//! list is held against two enumerations that never touch a space:
//! `enumerate::admissible_sequences` and a depth-first walk of
//! `MessageAdversary::extensions` written here. Both must equal it, in
//! order, for spaces from a fresh build, from in-place `extend`, from
//! `extend_from` and from `SpaceCache` ladders, over the catalog and a
//! seeded family of composed spec terms at depths 0..=6.

use std::collections::BTreeSet;

use adversary::enumerate::admissible_sequences;
use adversary::{MessageAdversary, SpecTerm};
use consensus_core::config::ExpandConfig;
use consensus_core::PrefixSpace;
use consensus_lab::cache::SpaceCache;
use dyngraph::GraphSeq;
use ptgraph::{all_inputs, Value};

const MAX_DEPTH: usize = 6;
const VALUES: &[Value] = &[0, 1];
const BUDGET: usize = 1_000_000;

/// xorshift64*: seedable and stable across toolchains.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const GRAPHS: [&str; 4] = [".", "->", "<-", "<->"];
const LEAVES: [&str; 4] = [
    "sw-lossy-link",
    "cgp-reduced-lossy-link",
    "vssc-2-2-by-3",
    "forever-directional",
];

/// A non-empty pool word.
fn pool_word(rng: &mut Rng) -> Vec<&'static str> {
    let mask = 1 + rng.below(15);
    (0..4).filter(|b| mask & (1 << b) != 0).map(|b| GRAPHS[b]).collect()
}

/// A random n = 2 spec term over the combinators the language composes.
fn term(rng: &mut Rng, nest: usize) -> String {
    let pick = if nest == 0 {
        rng.below(4)
    } else {
        rng.below(7)
    };
    match pick {
        0 => format!("pool({})", pool_word(rng).join(" ")),
        1 => {
            let word = pool_word(rng);
            let target = rng.pick(&word);
            match rng.below(2) {
                0 => format!("eventually({}, {target}, by={})", word.join(" "), 1 + rng.below(4)),
                _ => format!("eventually({}, {target})", word.join(" ")),
            }
        }
        2 => {
            let window = 1 + rng.below(2);
            let by = window + rng.below(3);
            format!("window({}, {window}, by={by})", pool_word(rng).join(" "))
        }
        3 => format!("catalog({})", rng.pick(&LEAVES)),
        4 => {
            let members: Vec<String> = (0..2 + rng.below(2)).map(|_| term(rng, nest - 1)).collect();
            format!("union({})", members.join(", "))
        }
        5 => format!("intersect({}, {})", term(rng, nest - 1), term(rng, nest - 1)),
        _ => {
            let word: Vec<&str> = (0..1 + rng.below(2)).map(|_| rng.pick(&GRAPHS)).collect();
            format!("prefix({}, {})", word.join(" "), term(rng, nest - 1))
        }
    }
}

/// The top-level combinator of a parsed term.
fn combinator(term: &SpecTerm) -> &'static str {
    match term {
        SpecTerm::Catalog(_) => "catalog",
        SpecTerm::Pool(_) => "pool",
        SpecTerm::Eventually { .. } => "eventually",
        SpecTerm::Window { .. } => "window",
        SpecTerm::Union(_) => "union",
        SpecTerm::Intersect(_) => "intersect",
        SpecTerm::Prefix { .. } => "prefix",
    }
}

/// The catalog plus `count` seeded composed terms that lower, labeled.
fn adversaries(seed: u64, count: usize) -> Vec<(String, adversary::DynMA)> {
    let mut out: Vec<(String, adversary::DynMA)> = adversary::catalog::entries()
        .iter()
        .map(|e| (e.name.to_string(), e.build()))
        .collect();
    let mut rng = Rng(seed);
    let mut combinators = BTreeSet::new();
    let mut kept = 0;
    while kept < count {
        let text = term(&mut rng, 2);
        let parsed = SpecTerm::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let Ok(ma) = parsed.lower() else { continue };
        combinators.insert(combinator(&parsed));
        out.push((text, ma));
        kept += 1;
    }
    let all = ["catalog", "eventually", "intersect", "pool", "prefix", "union", "window"];
    assert_eq!(combinators.into_iter().collect::<Vec<_>>(), all, "seed {seed}");
    out
}

/// Depth-first enumeration straight from `extensions`: children in the
/// order the adversary lists them, which is the breadth-first arena's
/// order at every depth.
fn depth_first(
    ma: &dyn MessageAdversary,
    prefix: &GraphSeq,
    depth: usize,
    out: &mut Vec<GraphSeq>,
) {
    if prefix.rounds() == depth {
        out.push(prefix.clone());
        return;
    }
    for g in ma.extensions(prefix) {
        depth_first(ma, &prefix.extended(g), depth, out);
    }
}

/// The space's list equals both enumerations, in order, and its runs are
/// every input assignment under that list, input-major.
fn assert_list(space: &PrefixSpace, ma: &dyn MessageAdversary, oracle: &[GraphSeq], at: &str) {
    let list: Vec<&GraphSeq> = space.sequences().collect();
    assert_eq!(list.len(), space.sequence_count(), "{at}");
    assert!(list.iter().copied().eq(oracle), "{at}: sequence list differs from the oracle");
    let inputs = all_inputs(ma.n(), VALUES);
    assert_eq!(space.runs().len(), inputs.len() * oracle.len(), "{at}");
    for (i, run) in space.runs().iter().enumerate() {
        let k = oracle.len();
        assert_eq!((run.inputs(), run.seq()), (&inputs[i / k][..], &oracle[i % k]), "{at} run {i}");
    }
}

#[test]
fn space_sequences_equal_enumeration_on_catalog_and_spec_family() {
    let mut checked = 0usize;
    for (name, ma) in adversaries(0x5EED_5EED, 40) {
        let ma = ma.as_ref();
        let oracles: Vec<Vec<GraphSeq>> = (0..=MAX_DEPTH)
            .map(|d| {
                let listed = admissible_sequences(ma, d);
                let mut walked = Vec::new();
                depth_first(ma, &GraphSeq::new(), d, &mut walked);
                assert_eq!(listed, walked, "{name}@{d}: arena and depth-first enumeration differ");
                listed
            })
            .collect();
        let cfg = ExpandConfig::with_budget(BUDGET);

        // A fresh build at every depth.
        for (d, oracle) in oracles.iter().enumerate() {
            let space = PrefixSpace::expand(ma, VALUES, d, &cfg).unwrap();
            assert_list(&space, ma, oracle, &format!("{name}@{d} build"));
        }
        // In-place extension from depth 0 up.
        let mut space = PrefixSpace::expand(ma, VALUES, 0, &cfg).unwrap();
        for (d, oracle) in oracles.iter().enumerate().skip(1) {
            space = space.extend(ma, &cfg).unwrap();
            assert_list(&space, ma, oracle, &format!("{name}@{d} extend"));
        }
        // `extend_from` rungs, each base checked again after its rung.
        let mut base = PrefixSpace::expand(ma, VALUES, 0, &cfg).unwrap();
        for (d, oracle) in oracles.iter().enumerate().skip(1) {
            let next = base.extend_from(ma, &cfg).unwrap();
            assert_list(&base, ma, &oracles[d - 1], &format!("{name}@{} base", d - 1));
            assert_list(&next, ma, oracle, &format!("{name}@{d} extend_from"));
            base = next;
        }
        // Cache ladders: a cache climbs from a seeded starting depth, then
        // serves the shallower depths by building.
        let cache = SpaceCache::new();
        let start = name.len() % 3;
        for d in (start..=MAX_DEPTH).chain(0..start) {
            let (space, _) = cache.space_with_meta(ma, VALUES, d, BUDGET).unwrap();
            assert_list(&space, ma, &oracles[d], &format!("{name}@{d} cache"));
        }
        // Every climb step ladders, and so does depth 1 below a start of 2.
        let ladders = MAX_DEPTH - start + start.saturating_sub(1);
        assert_eq!(cache.stats().ladder_hits, ladders, "{name}");
        checked += 1;
    }
    assert_eq!(checked, adversary::catalog::entries().len() + 40);
}
