//! Epistemic queries over views.
//!
//! Process-time graphs were introduced for reasoning about knowledge in
//! distributed systems (Ben-Zvi–Moses \[3\], cited by the paper §3): `p`
//! knows a fact at time `t` iff the fact holds in every run compatible with
//! `p`'s view. For facts about *initial values* and *other processes'
//! views*, the structural view representation answers such queries
//! directly:
//!
//! * [`knows_input`] — `K_p(x_q = v)`: `q`'s initial node is in `p`'s
//!   causal past (then the value is determined);
//! * [`latest_view_of`] — the most recent view of `q` inside `p`'s causal
//!   past, if any;
//! * [`knows_that_knows`] — `K_p K_q (x_r = ·)`: inside `p`'s view, `q`'s
//!   latest embedded view already contains `r`'s initial node. Nested
//!   knowledge of inputs is what consensus decisions are made of: the
//!   universal algorithm's ball condition is exactly "the decision value is
//!   common to every run compatible with the view".

use dyngraph::Pid;

use crate::{Value, ViewId, ViewTable};

/// Whether the owner of `view` knows `q`'s initial value (i.e. `(q, 0, x_q)`
/// is in its causal past); returns the value if so.
pub fn knows_input(table: &ViewTable, view: ViewId, q: Pid) -> Option<Value> {
    table.data(view).input_of(q)
}

/// The most recent view of process `q` embedded in `view`'s causal past:
/// the latest state of `q` the owner has (transitively) received. For the
/// owner itself this is the view given.
///
/// Returns `None` if the owner has never heard from `q`.
pub fn latest_view_of(table: &ViewTable, view: ViewId, q: Pid) -> Option<ViewId> {
    let owner = table.data(view).process;
    if owner == q {
        return Some(view);
    }
    // DFS over the view DAG, tracking the latest (max time) view of q.
    let mut best: Option<ViewId> = None;
    let mut stack = vec![view];
    let mut seen = std::collections::HashSet::new();
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        let d = table.data(v);
        if d.process == q {
            best = match best {
                Some(b) if table.data(b).time >= d.time => Some(b),
                _ => Some(v),
            };
            // q's own past cannot contain a later view of q.
            continue;
        }
        if let Some(prev) = table.prev(v) {
            stack.push(prev);
        }
        for (_, rv) in table.received(v) {
            stack.push(rv);
        }
    }
    best
}

/// Nested knowledge `K_p K_q (x_r)`: in the owner's view, does `q`'s latest
/// embedded view contain `r`'s initial value? Returns that value if so.
///
/// Note the asymmetry of knowledge under message loss: after a `→` round on
/// two processes, `K_1 (x_0)` holds but `K_0 K_1 (x_0)` does **not** — the
/// sender cannot know its message arrived. This is the coordinated-attack
/// phenomenon behind the lossy-link impossibility (§6.1).
pub fn knows_that_knows(table: &ViewTable, view: ViewId, q: Pid, r: Pid) -> Option<Value> {
    let q_view = latest_view_of(table, view, q)?;
    knows_input(table, q_view, r)
}

/// The depth of mutual input knowledge along a chain `p₀ → p₁ → … → p_k`:
/// checks `K_{p0} K_{p1} … K_{pk} (x_target)` by following latest embedded
/// views.
pub fn knows_chain(table: &ViewTable, view: ViewId, chain: &[Pid], target: Pid) -> Option<Value> {
    let mut current = view;
    for &q in chain {
        current = latest_view_of(table, current, q)?;
    }
    knows_input(table, current, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrefixRun;
    use dyngraph::GraphSeq;

    fn run2(word: &str, x: [u32; 2]) -> (PrefixRun, ViewTable) {
        let mut table = ViewTable::new(2, &x);
        let run = PrefixRun::compute(x, GraphSeq::parse2(word).unwrap(), &mut table);
        (run, table)
    }

    #[test]
    fn first_order_knowledge_after_delivery() {
        let (run, table) = run2("->", [7, 9]);
        // p1 knows x0 after the → round; p0 does not know x1.
        assert_eq!(knows_input(&table, run.view(1, 1), 0), Some(7));
        assert_eq!(knows_input(&table, run.view(0, 1), 1), None);
    }

    #[test]
    fn sender_lacks_second_order_knowledge() {
        // After →, p1 knows x0, but p0 cannot know that p1 knows x0 — the
        // coordinated-attack asymmetry.
        let (run, table) = run2("->", [7, 9]);
        assert_eq!(knows_that_knows(&table, run.view(1, 1), 0, 0), Some(7)); // K1 K0 x0 (p0 trivially knows own)
        assert_eq!(knows_that_knows(&table, run.view(0, 1), 1, 0), None); // K0 K1 x0 fails
    }

    #[test]
    fn second_order_knowledge_after_echo() {
        // → then ←: p0 receives p1's state which embeds x0 → K0 K1 x0.
        let (run, table) = run2("-> <-", [7, 9]);
        assert_eq!(knows_that_knows(&table, run.view(0, 2), 1, 0), Some(7));
        assert_eq!(knows_that_knows(&table, run.view(0, 2), 1, 1), Some(9));
        // But third order K1 K0 K1 x0 needs another round.
        assert_eq!(
            knows_chain(&table, run.view(1, 2), &[0, 1], 0),
            None,
            "p1's copy of p0 is from time 0 (received at round... via ←? no: p1 last heard p0 at round 1, a time-0 view)"
        );
    }

    #[test]
    fn third_order_after_three_exchanges() {
        let (run, table) = run2("-> <- ->", [7, 9]);
        // p1 now has p0's round-2 state, which embeds p1's round-1 state,
        // which embeds x0.
        assert_eq!(knows_chain(&table, run.view(1, 3), &[0, 1], 0), Some(7));
    }

    #[test]
    fn latest_view_is_most_recent() {
        let (run, table) = run2("-> -> ->", [7, 9]);
        // p1 receives p0's state every round; the latest embedded view of
        // p0 inside p1's time-3 view is p0's time-2 view.
        let latest = latest_view_of(&table, run.view(1, 3), 0).unwrap();
        assert_eq!(table.data(latest).time, 2);
        assert_eq!(table.data(latest).process, 0);
        // And it equals the actual view of p0 at time 2.
        assert_eq!(latest, run.view(0, 2));
    }

    #[test]
    fn latest_view_of_self() {
        let (run, table) = run2("->", [7, 9]);
        assert_eq!(latest_view_of(&table, run.view(0, 1), 0), Some(run.view(0, 1)));
    }

    #[test]
    fn no_knowledge_without_reception() {
        let (run, table) = run2(". .", [7, 9]);
        assert_eq!(latest_view_of(&table, run.view(0, 2), 1), None);
        assert_eq!(knows_that_knows(&table, run.view(0, 2), 1, 0), None);
    }
}
