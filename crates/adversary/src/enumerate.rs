//! Exhaustive expansion of the depth-`t` prefix space.
//!
//! The paper's ε-approximation machinery (Definition 6.2, Theorem 6.6) is
//! computed on the finite set of *admissible runs at depth `t`*: every input
//! assignment crossed with every admissible graph-sequence prefix of length
//! `t`, with all process views interned in one shared [`ViewTable`]. This
//! module produces that set.
//!
//! # Engine shape
//!
//! Admissible sequences are enumerated into a dense-ID [`SeqArena`] (one
//! `(parent, graph)` node per prefix, flat round-offset table), so sequence
//! identity is an index, never a hashed [`GraphSeq`]. Run computation —
//! the dominant cost: interning `O(runs × n × depth)` views — is one pass
//! over the runs in canonical order, so each [`ViewId`] is the view's
//! first-intern position in that order. Fingerprint-keyed caches, the
//! depth ladder and persisted verdicts all rely on that order.
//!
//! Each admissible sequence is stored once, behind an `Arc` that every run
//! over it shares; runs with equal inputs share one inputs slice too. The
//! first [`Expansion::sequence_count`] runs therefore list the admissible
//! sequences in enumeration order ([`Expansion::sequences`]), the same list
//! [`admissible_sequences`] returns.
//!
//! [`ViewId`]: ptgraph::ViewId

use std::fmt;
use std::sync::Arc;

use dyngraph::{Digraph, GraphSeq};
use ptgraph::{all_inputs, PrefixRun, Value, ViewTable};

use crate::arena::SeqArena;
use crate::MessageAdversary;

/// Telemetry of the engine pass that produced (or last extended) an
/// [`Expansion`] — surfaced through sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpandStats {
    /// Approximate bytes held by the sequence arena / extension tables.
    pub arena_bytes: usize,
}

/// The expanded prefix space at a fixed depth.
///
/// Cloning copies the view table and each run's views, but not the
/// sequences or inputs, which the clone shares. Laddering to a deeper
/// expansion does not clone at all: [`Expansion::extended`] reads these
/// runs and copies only the view table.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// All admissible runs: `inputs × admissible sequences`, in
    /// deterministic order (inputs lexicographic, sequences in expansion
    /// order).
    pub runs: Vec<PrefixRun>,
    /// The shared view interner; run views reference it.
    pub table: ViewTable,
    /// The expansion depth `t` (every run has exactly `t` rounds).
    pub depth: usize,
    /// The input domain used.
    pub values: Vec<Value>,
    /// Engine telemetry of the pass that built or last extended this
    /// expansion.
    pub stats: ExpandStats,
}

impl Expansion {
    /// Number of admissible graph sequences (runs per input assignment).
    /// Saturates (to 0 sequences) when the input count itself overflows
    /// `usize` — wide domains must not panic here.
    pub fn sequence_count(&self) -> usize {
        let inputs = self.values.len().checked_pow(self.n() as u32).unwrap_or(usize::MAX);
        self.runs.len().checked_div(inputs).unwrap_or(0)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.table.n()
    }

    /// The admissible depth-`t` sequences in enumeration order: those of
    /// the first [`sequence_count`](Self::sequence_count) runs. They equal
    /// [`admissible_sequences`] at this depth.
    ///
    /// # Panics
    /// Panics unless the runs are laid out input-major (run `i` under the
    /// sequence of run `i mod sequence_count()`), as every expansion built
    /// or extended here is.
    pub fn sequences(&self) -> impl ExactSizeIterator<Item = &GraphSeq> + Clone {
        let k = self.sequence_count();
        assert!(self.is_input_major(k), "runs are not laid out input-major");
        self.runs[..k].iter().map(PrefixRun::seq)
    }

    /// Whether the runs are `k` sequences under each input assignment, in
    /// the same order every time. Runs of one expansion share their
    /// sequences, so this is a pointer comparison per run.
    fn is_input_major(&self, k: usize) -> bool {
        let inputs = inputs_count(&self.values, self.n());
        k.checked_mul(inputs) == Some(self.runs.len())
            && self.runs.iter().enumerate().all(|(i, run)| run.same_seq(&self.runs[i % k]))
    }

    /// The runs an extension treats as sharing sequences: the sequence
    /// count when the layout is input-major, else one slot per run.
    fn extension_slots(&self) -> usize {
        let k = self.sequence_count();
        if k > 0 && self.is_input_major(k) {
            k
        } else {
            self.runs.len()
        }
    }

    /// Indices of the `v`-valent runs (all processes start with `v`).
    pub fn valent_runs(&self, v: Value) -> Vec<usize> {
        self.runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_valent(v))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Error: the expansion would exceed the run budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exceeded.
    pub max_runs: usize,
    /// A lower bound on the number of runs the expansion would produce.
    pub needed: usize,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prefix-space expansion needs ≥ {} runs, budget is {}",
            self.needed, self.max_runs
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// All admissible graph-sequence prefixes of length `depth`.
pub fn admissible_sequences(ma: &dyn MessageAdversary, depth: usize) -> Vec<GraphSeq> {
    let mut arena = SeqArena::new();
    for _ in 0..depth {
        arena.grow(ma, None).expect("growth without a budget cannot fail");
    }
    arena.into_frontier_seqs()
}

/// The number of input assignments `|values|^n`, saturated — the budget
/// comparisons treat an overflowing count as "over any budget".
pub fn inputs_count(values: &[Value], n: usize) -> usize {
    values.len().checked_pow(n as u32).unwrap_or(usize::MAX)
}

/// Expand the full prefix space: every input assignment over `values`
/// crossed with every admissible depth-`depth` sequence.
///
/// # Errors
/// Returns [`BudgetExceeded`] if more than `max_runs` runs would be
/// produced (the sequence tree is counted before any views are interned, so
/// failing is cheap).
pub fn expand(
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    max_runs: usize,
) -> Result<Expansion, BudgetExceeded> {
    let n = ma.n();
    let inputs_count = inputs_count(values, n);
    let mut arena = SeqArena::new();
    for _ in 0..depth {
        arena
            .grow(ma, Some((inputs_count, max_runs)))
            .map_err(|e| BudgetExceeded { max_runs, needed: e.needed })?;
    }
    let arena_bytes = arena.approx_bytes();
    let inputs = all_inputs(n, values);
    let seqs: Vec<Arc<GraphSeq>> = arena.into_frontier_seqs().into_iter().map(Arc::new).collect();
    // Input-major: run `t` is inputs `t / k` under sequence `t % k`, and
    // every run shares its sequence's and its inputs' `Arc`.
    let mut table = ViewTable::new(n);
    let mut runs = Vec::with_capacity(inputs.len() * seqs.len());
    for x in inputs {
        let x: Arc<[Value]> = Arc::from(x);
        for seq in &seqs {
            runs.push(PrefixRun::compute(Arc::clone(&x), Arc::clone(seq), &mut table));
        }
    }
    Ok(Expansion {
        runs,
        table,
        depth,
        values: values.to_vec(),
        stats: ExpandStats { arena_bytes },
    })
}

/// [`expand`] under its former signature, kept for callers that still
/// pass a worker count: `threads` is ignored, and the result is
/// [`expand`]'s.
///
/// # Errors
/// Returns [`BudgetExceeded`] exactly as [`expand`] does.
pub fn expand_with(
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    max_runs: usize,
    _threads: usize,
) -> Result<Expansion, BudgetExceeded> {
    expand(ma, values, depth, max_runs)
}

/// Convenience: binary inputs `{0, 1}`.
///
/// # Errors
/// See [`expand`].
pub fn expand_binary(
    ma: &dyn MessageAdversary,
    depth: usize,
    max_runs: usize,
) -> Result<Expansion, BudgetExceeded> {
    expand(ma, &[0, 1], depth, max_runs)
}

impl Expansion {
    /// Extend the expansion by one round in place: every run is replaced by
    /// its admissible one-round extensions, reusing the interned views of
    /// the shorter runs (the incremental path of the checker's depth
    /// sweep — each view is interned exactly once across the whole sweep).
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the extended space would exceed
    /// `max_runs`; the expansion is left unchanged in that case.
    pub fn extend(
        &mut self,
        ma: &dyn MessageAdversary,
        max_runs: usize,
    ) -> Result<(), BudgetExceeded> {
        let next = Extension::plan(&self.runs, self.extension_slots(), ma, max_runs)?;
        let (runs, stats) = next.compute(&mut self.table);
        self.runs = runs;
        self.depth += 1;
        self.stats = stats;
        Ok(())
    }

    /// The expansion one round deeper, leaving `self` intact: the new runs
    /// are computed from these runs into a copy of the view table, the
    /// only state copied. Identical to [`extend`](Self::extend) on a
    /// clone.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the extension would exceed
    /// `max_runs`, before the table is copied.
    pub fn extended(
        &self,
        ma: &dyn MessageAdversary,
        max_runs: usize,
    ) -> Result<Expansion, BudgetExceeded> {
        let next = Extension::plan(&self.runs, self.extension_slots(), ma, max_runs)?;
        let mut table = self.table.clone();
        let (runs, stats) = next.compute(&mut table);
        Ok(Expansion { runs, table, depth: self.depth + 1, values: self.values.clone(), stats })
    }
}

/// The runs one round deeper than `base`.
///
/// Extensions are computed **once per distinct sequence**: canonical
/// expansions lay runs out input-major, so the first `k` runs carry the
/// `k` distinct sequences. Each (sequence, extension) pair becomes one
/// next-depth sequence, built once and shared by every input assignment's
/// run over it; no `GraphSeq` is hashed. Non-canonical layouts (hand-built
/// expansions) are handled per run, as if every run had its own sequence.
struct Extension<'a> {
    base: &'a [PrefixRun],
    /// Distinct sequences of `base` per input assignment.
    k: usize,
    /// The next depth's sequences, grouped by parent in parent order.
    seqs: Vec<Arc<GraphSeq>>,
    /// `parents[j]`: the slot in `0..k` that `seqs[j]` extends.
    parents: Vec<usize>,
}

impl<'a> Extension<'a> {
    /// Enumerate the extensions of `runs` laid out in `k` slots, one
    /// `ma.extensions` call per slot in first-encounter order, with the
    /// budget accounting of a per-run walk: `needed` grows run by run and
    /// the first excess aborts.
    fn plan(
        runs: &'a [PrefixRun],
        k: usize,
        ma: &dyn MessageAdversary,
        max_runs: usize,
    ) -> Result<Self, BudgetExceeded> {
        let (mut seqs, mut parents) = (Vec::new(), Vec::new());
        // Slot `si` extends to `seqs[bounds[si]..bounds[si + 1]]`.
        let mut bounds = vec![0];
        let mut needed = 0usize;
        for (i, run) in runs.iter().enumerate() {
            let si = i % k;
            if si + 1 == bounds.len() {
                for g in ma.extensions(run.seq()) {
                    seqs.push(Arc::new(run.seq().extended(g)));
                    parents.push(si);
                }
                bounds.push(seqs.len());
            }
            needed += bounds[si + 1] - bounds[si];
            if needed > max_runs {
                return Err(BudgetExceeded { max_runs, needed });
            }
        }
        Ok(Extension { base: runs, k, seqs, parents })
    }

    /// Compute the runs into `table`, with the telemetry of this pass.
    /// Under each input assignment (one block of `k` base runs), each next
    /// sequence in order extends its parent's run: the order a per-run
    /// walk appends them in.
    fn compute(&self, table: &mut ViewTable) -> (Vec<PrefixRun>, ExpandStats) {
        let blocks = self.base.len().checked_div(self.k).unwrap_or(0);
        let mut runs = Vec::with_capacity(blocks * self.seqs.len());
        for block in self.base.chunks_exact(self.k.max(1)) {
            for (seq, &parent) in self.seqs.iter().zip(&self.parents) {
                runs.push(block[parent].extended(Arc::clone(seq), table));
            }
        }
        let arena_bytes = self.seqs.len() * std::mem::size_of::<Digraph>();
        (runs, ExpandStats { arena_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneralMA;
    use dyngraph::generators;

    #[test]
    fn oblivious_counts() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        for depth in 0..4 {
            let seqs = admissible_sequences(&ma, depth);
            assert_eq!(seqs.len(), 3usize.pow(depth as u32));
        }
        let e = expand_binary(&ma, 2, 10_000).unwrap();
        assert_eq!(e.runs.len(), 4 * 9);
        assert_eq!(e.sequence_count(), 9);
        assert_eq!(e.depth, 2);
    }

    #[test]
    fn expansion_runs_have_uniform_depth() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 3, 10_000).unwrap();
        assert!(e.runs.iter().all(|r| r.rounds() == 3));
    }

    #[test]
    fn valent_runs_found() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 2, 10_000).unwrap();
        let z0 = e.valent_runs(0);
        let z1 = e.valent_runs(1);
        assert_eq!(z0.len(), 4); // 2^2 sequences with inputs (0,0)
        assert_eq!(z1.len(), 4);
        assert!(e.runs[z0[0]].is_valent(0));
    }

    #[test]
    fn budget_enforced() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let err = expand_binary(&ma, 8, 100).unwrap_err();
        assert!(err.needed > 100);
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn liveness_prunes_sequences() {
        // ↔ within 2 rounds: sequences of length 2 = those containing ↔.
        let ma = GeneralMA::eventually_graph(
            generators::lossy_link_full(),
            Digraph::parse2("<->").unwrap(),
            Some(2),
        );
        let seqs = admissible_sequences(&ma, 2);
        // 9 total over the pool; admissible: ↔ in round 1 (3) + ↔ in round 2
        // with round 1 ≠ ↔ (2) = 5.
        assert_eq!(seqs.len(), 5);
        for s in &seqs {
            assert!(s.iter().any(|g| g.arrow2() == Some("<->")));
        }
    }

    #[test]
    fn deadline_zero_depth() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let seqs = admissible_sequences(&ma, 0);
        assert_eq!(seqs.len(), 1);
        assert!(seqs[0].is_empty());
    }

    #[test]
    fn expansion_views_shared() {
        // Runs with identical prefixes share interned views.
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 1, 1000).unwrap();
        // Find two runs with the same inputs and the same 1-round sequence:
        // they are the same run computed once each — views must coincide.
        let a = &e.runs[0];
        let same: Vec<&ptgraph::PrefixRun> = e
            .runs
            .iter()
            .filter(|r| r.inputs() == a.inputs() && r.seq() == a.seq())
            .collect();
        for r in same {
            assert_eq!(r.views_at(1), a.views_at(1));
        }
    }

    #[test]
    fn sequence_count_saturates_instead_of_panicking() {
        // A domain/process combination whose input count overflows usize:
        // 2^... — fabricate via a tiny expansion and a huge fake domain.
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let mut e = expand_binary(&ma, 1, 1000).unwrap();
        // 3 billion-ish values ^ 2 processes overflows on 32-bit, not 64 —
        // drive n instead: values^n with values.len()=2, n=2 is fine, so
        // patch the domain to a width that overflows: len 2^33 is not
        // constructible; instead check the checked path by direct call.
        e.values = vec![0; 1 << 17];
        // (2^17)^2 = 2^34 — fits in u64 but sequence_count must not panic
        // and must floor-divide to 0 sequences.
        assert_eq!(e.sequence_count(), 0);
    }
}
