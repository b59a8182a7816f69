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
//! the dominant cost: interning `O(runs × n × depth)` views — is sharded
//! over a scoped worker pool: the canonical run-index space is cut into
//! contiguous chunks, each worker interns its chunk's views into a private
//! [`ShardTable`] over the shared base, and the shards are absorbed back
//! **in chunk order**, which provably reproduces the serial [`ViewId`]
//! assignment (see [`ViewTable::absorb`]). Output is therefore
//! byte-identical for every worker count, so fingerprint-keyed caches and
//! persisted verdicts never observe which engine produced a space.
//!
//! [`ViewId`]: ptgraph::ViewId

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use consensus_obs::trace::tracer;
use dyngraph::{Digraph, GraphSeq};
use ptgraph::{all_inputs, Inputs, LocalViews, PrefixRun, ShardTable, Value, ViewTable};

use crate::arena::SeqArena;
use crate::MessageAdversary;

/// Contiguous chunks handed out per worker; more chunks than workers keeps
/// the pool busy when chunk costs skew (deeper suffixes intern more).
const CHUNKS_PER_WORKER: usize = 4;

/// Telemetry of the engine pass that produced (or last extended) an
/// [`Expansion`] — surfaced through sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExpandStats {
    /// Worker shards the run computation was cut into (1 = serial).
    pub shards: usize,
    /// Wall-clock milliseconds spent absorbing shard tables and remapping
    /// run views (zero for the serial path).
    pub merge_ms: f64,
    /// Approximate bytes held by the sequence arena / extension tables.
    pub arena_bytes: usize,
}

/// The expanded prefix space at a fixed depth.
///
/// Cloning copies the runs and the view table (a few flat vectors of `Copy`
/// data, so a few `memcpy`s) — much cheaper than re-expanding, which is
/// what lets caching layers *ladder* a cached expansion to a deeper one
/// without giving up the original.
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
/// crossed with every admissible depth-`depth` sequence. Serial engine —
/// see [`expand_with`] for the sharded one (identical output).
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
    expand_with(ma, values, depth, max_runs, 1)
}

/// [`expand`] with the run computation sharded over `threads` scoped
/// workers (`≤ 1` = serial). The output — run order, interned view ids,
/// table contents — is **byte-identical** for every thread count; only
/// [`Expansion::stats`] records which engine ran.
///
/// # Errors
/// Returns [`BudgetExceeded`] exactly as [`expand`] would (the pre-count
/// runs before any workers start).
pub fn expand_with(
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    max_runs: usize,
    threads: usize,
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
    let inputs: Vec<Inputs> = all_inputs(n, values);
    let seqs = arena.into_frontier_seqs();

    let mut table = ViewTable::new(n);
    let total = inputs.len() * seqs.len();
    let (runs, shards, merge_ms) = if threads <= 1 || total == 0 {
        let mut runs = Vec::with_capacity(total);
        for x in &inputs {
            for seq in &seqs {
                runs.push(PrefixRun::compute(x.clone(), seq, &mut table));
            }
        }
        (runs, 1, 0.0)
    } else {
        sharded_runs(total, threads, &mut table, |range, shard| {
            let mut runs = Vec::with_capacity(range.len());
            for t in range {
                let (xi, si) = (t / seqs.len(), t % seqs.len());
                runs.push(PrefixRun::compute(inputs[xi].clone(), &seqs[si], shard));
            }
            runs
        })
    };
    Ok(Expansion {
        runs,
        table,
        depth,
        values: values.to_vec(),
        stats: ExpandStats { shards, merge_ms, arena_bytes },
    })
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

/// Cut `[0, total)` into contiguous chunks, compute each chunk's runs in a
/// worker-private [`ShardTable`], then absorb the shards into `table` in
/// chunk order and remap the run views — the deterministic-merge core both
/// [`expand_with`] and [`Expansion::extend_with`] share.
fn sharded_runs<F>(
    total: usize,
    threads: usize,
    table: &mut ViewTable,
    compute: F,
) -> (Vec<PrefixRun>, usize, f64)
where
    F: Fn(Range<usize>, &mut ShardTable<'_>) -> Vec<PrefixRun> + Sync,
{
    type ChunkSlot = Mutex<Option<(Vec<PrefixRun>, LocalViews)>>;
    let chunk_count = total.min(threads.saturating_mul(CHUNKS_PER_WORKER)).max(1);
    let slots: Vec<ChunkSlot> = (0..chunk_count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let base: &ViewTable = table;
    // Workers run on their own threads, so shard spans parent to the
    // caller's innermost span (`expand`) explicitly.
    let span_parent = tracer().current_id();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(chunk_count) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunk_count {
                    break;
                }
                let mut span = tracer().span_under("shard", span_parent);
                let lo = c * total / chunk_count;
                let hi = (c + 1) * total / chunk_count;
                let mut shard = ShardTable::new(base);
                let runs = compute(lo..hi, &mut shard);
                span.set_attr("chunk", c);
                span.set_attr("runs", runs.len());
                *slots[c].lock().expect("shard slot poisoned") = Some((runs, shard.into_local()));
            });
        }
    });

    let merge_start = Instant::now();
    let mut all = Vec::with_capacity(total);
    {
        let _span = tracer().span_under("absorb", span_parent).with_attr("shards", chunk_count);
        for slot in slots {
            let (mut runs, local) = slot
                .into_inner()
                .expect("shard slot poisoned")
                .expect("every chunk was claimed by a worker");
            let remap = table.absorb(&local);
            for run in &mut runs {
                run.remap_views(local.base_len(), &remap);
            }
            all.append(&mut runs);
        }
    }
    let merge_ms = merge_start.elapsed().as_secs_f64() * 1e3;
    (all, chunk_count, merge_ms)
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
        self.extend_with(ma, max_runs, 1)
    }

    /// [`extend`](Self::extend) with the run extension sharded over
    /// `threads` scoped workers (`≤ 1` = serial); output is byte-identical
    /// for every thread count.
    ///
    /// Extensions are computed **once per distinct sequence** and indexed
    /// densely: canonical expansions lay runs out input-major (run `i` has
    /// sequence `i mod seq_count`), so the extension table is a flat
    /// `Vec` — no `GraphSeq` keys are ever hashed. Non-canonical layouts
    /// (hand-built expansions) are detected and handled per run.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the extension would exceed `max_runs`;
    /// the expansion is left unchanged in that case.
    pub fn extend_with(
        &mut self,
        ma: &dyn MessageAdversary,
        max_runs: usize,
        threads: usize,
    ) -> Result<(), BudgetExceeded> {
        // Pre-count, building the dense extension table: one
        // `ma.extensions` call per distinct sequence, in first-encounter
        // order; the budget accounting is identical to a per-run walk.
        let seq_count = self.canonical_seq_count();
        let mut exts: Vec<Vec<Digraph>> = Vec::with_capacity(seq_count.unwrap_or(1));
        let mut needed = 0usize;
        match seq_count {
            Some(k) => {
                for (i, run) in self.runs.iter().enumerate() {
                    let si = i % k;
                    if si == exts.len() {
                        exts.push(ma.extensions(run.seq()));
                    }
                    needed += exts[si].len();
                    if needed > max_runs {
                        return Err(BudgetExceeded { max_runs, needed });
                    }
                }
            }
            None => {
                // Fallback for non-canonical run layouts: one extension
                // table entry per run.
                for run in &self.runs {
                    exts.push(ma.extensions(run.seq()));
                    needed += exts.last().expect("just pushed").len();
                    if needed > max_runs {
                        return Err(BudgetExceeded { max_runs, needed });
                    }
                }
            }
        }
        let ext_of = |i: usize| -> &[Digraph] {
            match seq_count {
                Some(k) => &exts[i % k],
                None => &exts[i],
            }
        };

        // Flat offsets into the new canonical index space: new runs
        // `offsets[i] .. offsets[i+1]` are run `i`'s extensions, in order.
        let mut offsets = Vec::with_capacity(self.runs.len() + 1);
        offsets.push(0usize);
        for i in 0..self.runs.len() {
            offsets.push(offsets[i] + ext_of(i).len());
        }
        let total = *offsets.last().expect("offsets nonempty");

        let old_runs = &self.runs;
        let table = &mut self.table;
        let (new_runs, shards, merge_ms) = if threads <= 1 || total == 0 {
            let mut new_runs = Vec::with_capacity(total);
            for (i, run) in old_runs.iter().enumerate() {
                for g in ext_of(i) {
                    new_runs.push(run.extended(g.clone(), table));
                }
            }
            (new_runs, 1, 0.0)
        } else {
            sharded_runs(total, threads, table, |range, shard| {
                let mut runs = Vec::with_capacity(range.len());
                // The old run owning new index `t` is the partition cell
                // containing `t`; walk forward from the first.
                let mut i = offsets.partition_point(|&o| o <= range.start) - 1;
                for t in range {
                    while offsets[i + 1] <= t {
                        i += 1;
                    }
                    let g = &ext_of(i)[t - offsets[i]];
                    runs.push(old_runs[i].extended(g.clone(), shard));
                }
                runs
            })
        };
        let arena_bytes: usize =
            exts.iter().map(|e| e.len() * std::mem::size_of::<Digraph>()).sum();
        self.runs = new_runs;
        self.depth += 1;
        self.stats = ExpandStats { shards, merge_ms, arena_bytes };
        Ok(())
    }

    /// The distinct-sequence count if the runs are laid out canonically
    /// (input-major: run `i`'s sequence equals run `i mod k`'s), else
    /// `None`. The check is a cheap equality sweep — it never hashes.
    fn canonical_seq_count(&self) -> Option<usize> {
        let inputs = self.values.len().checked_pow(self.n() as u32)?;
        if inputs == 0 || !self.runs.len().is_multiple_of(inputs) {
            return None;
        }
        let k = self.runs.len() / inputs;
        if k == 0 {
            return None;
        }
        (self.runs.iter().enumerate().all(|(i, run)| run.seq() == self.runs[i % k].seq()))
            .then_some(k)
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
    fn parallel_expand_byte_identical_to_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let serial = expand(&ma, &[0, 1], 3, 1_000_000).unwrap();
        for threads in [2, 3, 8] {
            let par = expand_with(&ma, &[0, 1], 3, 1_000_000, threads).unwrap();
            assert_eq!(par.runs, serial.runs, "threads={threads}");
            assert_eq!(par.table, serial.table, "threads={threads}");
            assert!(par.stats.shards > 1, "threads={threads} must shard");
        }
    }

    #[test]
    fn parallel_extend_byte_identical_to_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut serial = expand(&ma, &[0, 1], 1, 1_000_000).unwrap();
        let mut par = serial.clone();
        for _ in 0..3 {
            serial.extend(&ma, 1_000_000).unwrap();
            par.extend_with(&ma, 1_000_000, 4).unwrap();
            assert_eq!(par.runs, serial.runs);
            assert_eq!(par.table, serial.table);
        }
    }

    #[test]
    fn parallel_budget_error_matches_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let a = expand(&ma, &[0, 1], 8, 100).unwrap_err();
        let b = expand_with(&ma, &[0, 1], 8, 100, 4).unwrap_err();
        assert_eq!(a, b);
        let mut space = expand(&ma, &[0, 1], 2, 1_000_000).unwrap();
        let c = space.clone().extend(&ma, 10).unwrap_err();
        let d = space.extend_with(&ma, 10, 4).unwrap_err();
        assert_eq!(c, d);
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
