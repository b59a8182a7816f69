//! Seeded inputs: the composed-spec family of the sweeps.
//!
//! Everything the program is asked comes from here, from one `--seed`.
//! Terms are composed n = 2 spec-language strings over the four 2-process
//! graphs and the catalog's n = 2 leaves. A term is kept only if it builds,
//! its fingerprint is new (against the catalog and every term kept before
//! it), and its admissible run count at the workload depth lies in the
//! requested band — the family adds breadth, not a second
//! `message-loss-2-2`.

use std::collections::{BTreeMap, HashSet};

use adversary::enumerate::admissible_sequences;
use adversary::spec::SpecTerm;
use consensus_lab::scenario::AdversarySpec;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A small deterministic generator (xorshift64* over a splitmix64-mixed
/// seed), so inputs repeat exactly for one seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const GRAPHS: [&str; 4] = [".", "->", "<-", "<->"];
const ROOTED: [&str; 3] = ["->", "<-", "<->"];

/// Catalog entries with n = 2 (usable as leaves of composed terms).
fn catalog_leaves() -> Vec<&'static str> {
    adversary::catalog::entries()
        .iter()
        .filter(|e| e.build().n() == 2)
        .map(|e| e.name)
        .collect()
}

/// A non-empty pool word (a set of graphs).
fn pool_word(rng: &mut Rng) -> Vec<&'static str> {
    let mask = 1 + rng.below(15);
    (0..4).filter(|b| mask & (1 << b) != 0).map(|b| GRAPHS[b]).collect()
}

fn leaf(rng: &mut Rng, leaves: &[&str], horizon: usize) -> String {
    match rng.below(4) {
        0 => format!("pool({})", pool_word(rng).join(" ")),
        1 => {
            let word = pool_word(rng);
            let target = rng.pick(&word);
            match rng.chance(50) {
                true => format!(
                    "eventually({}, {target}, by={})",
                    word.join(" "),
                    1 + rng.below(horizon)
                ),
                false => format!("eventually({}, {target})", word.join(" ")),
            }
        }
        2 => {
            let mut word = pool_word(rng);
            if !word.iter().any(|g| ROOTED.contains(g)) {
                word.push(*rng.pick(&ROOTED));
            }
            let window = 1 + rng.below(2);
            match rng.chance(50) {
                true => {
                    let by = window + rng.below(horizon.saturating_sub(window) + 1);
                    format!("window({}, {window}, by={by})", word.join(" "))
                }
                false => format!("window({}, {window})", word.join(" ")),
            }
        }
        _ => format!("catalog({})", rng.pick(leaves)),
    }
}

fn term(rng: &mut Rng, leaves: &[&str], horizon: usize, nest: usize) -> String {
    if nest == 0 || rng.chance(35) {
        return leaf(rng, leaves, horizon);
    }
    match rng.below(3) {
        0 => {
            let arity = 2 + rng.below(2);
            let members: Vec<String> =
                (0..arity).map(|_| term(rng, leaves, horizon, nest - 1)).collect();
            format!("union({})", members.join(", "))
        }
        1 => {
            let a = term(rng, leaves, horizon, nest - 1);
            let b = term(rng, leaves, horizon, nest - 1);
            format!("intersect({a}, {b})")
        }
        _ => {
            let word: Vec<&str> = (0..1 + rng.below(2)).map(|_| *rng.pick(&GRAPHS)).collect();
            format!("prefix({}, {})", word.join(" "), term(rng, leaves, horizon, nest - 1))
        }
    }
}

/// The top-level combinator of a normalized term (the per-seed census key).
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

/// One kept term.
#[derive(Debug, Clone)]
pub struct Term {
    /// The canonical spec string.
    pub text: String,
}

/// A generated family plus its per-combinator census.
#[derive(Debug, Clone, Default)]
pub struct Family {
    pub terms: Vec<Term>,
    pub census: BTreeMap<&'static str, usize>,
}

impl Family {
    pub fn census_line(&self) -> String {
        let parts: Vec<String> = self.census.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{} terms ({})", self.census.values().sum::<usize>(), parts.join(", "))
    }
}

/// Fingerprints of every catalog entry (terms must differ from all).
pub fn catalog_fingerprints() -> HashSet<u64> {
    adversary::catalog::entries().iter().map(|e| e.build().fingerprint()).collect()
}

/// Draw distinct terms, `count` of them per run-count stratum: a term
/// lands in stratum `(lo, hi, count)` when its admissible run count at
/// `depth` lies in `lo..hi`. Stratifying keeps the family's cost alike from
/// seed to seed. Fingerprints in `seen` are skipped (and `seen` grows).
///
/// # Panics
/// When the generator cannot fill the strata — a benchmark configuration
/// error, not a run-to-run event.
pub fn family(
    rng: &mut Rng,
    strata: &[(usize, usize, usize)],
    depth: usize,
    seen: &mut HashSet<u64>,
) -> Family {
    let leaves = catalog_leaves();
    let mut out = Family::default();
    let mut filled = vec![0usize; strata.len()];
    let wanted: usize = strata.iter().map(|s| s.2).sum();
    let mut attempts = 0usize;
    while out.terms.len() < wanted {
        attempts += 1;
        assert!(attempts < 2000 * wanted + 10_000, "generator exhausted after {attempts} draws");
        let text = term(rng, &leaves, depth, 2);
        let Ok(spec) = AdversarySpec::parse(&text) else {
            continue;
        };
        let Ok(ma) = spec.build() else { continue };
        if ma.n() != 2 || seen.contains(&ma.fingerprint()) {
            continue;
        }
        let runs = 4 * admissible_sequences(ma.as_ref(), depth).len();
        let Some(k) = strata.iter().position(|&(lo, hi, _)| (lo..hi).contains(&runs)) else {
            continue;
        };
        if filled[k] == strata[k].2 {
            continue;
        }
        let AdversarySpec::Term(canonical) = &spec else {
            continue;
        };
        seen.insert(ma.fingerprint());
        filled[k] += 1;
        *out.census.entry(combinator(canonical)).or_insert(0) += 1;
        out.terms.push(Term { text: canonical.to_string() });
    }
    out
}
