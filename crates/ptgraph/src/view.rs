//! Interned local views, stored flat.
//!
//! The view `V_{p}(PT^t)` of the paper (§3/§4) — process `p`'s causal past at
//! time `t` — is represented structurally:
//!
//! * at time 0, the view is the pair `(p, x_p)`;
//! * at time `t ≥ 1`, the view is `p`'s previous view plus the sorted list of
//!   `(q, q's view at t−1)` for every in-neighbor `q` of round `t`.
//!
//! Views are interned in a [`ViewTable`]: structural equality of causal pasts
//! becomes id ([`ViewId`]) equality, which is what makes the prefix-space
//! machinery (bucketing runs by view) cheap. The table also memoizes
//! per-view metadata — which processes are in the causal past and which
//! *initial values* are known — used by the broadcastability
//! characterization (paper Theorem 5.11).
//!
//! # Layout
//!
//! A table is a few flat vectors of `Copy` data, laid out the same for
//! every `n ≤` [`dyngraph::MAX_N`], so cloning one is a few `memcpy`s:
//!
//! * one fixed-width entry per view, in id order: the owner, the time, the
//!   previous view (the input, for an initial view), the `heard` mask, and
//!   where the view's received list and known inputs start in two shared
//!   arenas;
//! * the received arena: each view's `(sender, view)` list, sorted by sender;
//! * the input arena: each view's known inputs, one per member of `heard`;
//! * an open-addressing index of ids, probed with a multiply-rotate hash of
//!   the key and resolved by comparing keys against the received arena.
//!
//! Ids are dense and handed out in first-intern order.

use std::fmt;

use dyngraph::{mask, Pid, PidMask, MAX_N};
use serde::{Deserialize, Serialize};

use crate::Value;

/// An interned view handle. Equal ids ⟺ identical causal pasts (within one
/// [`ViewTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ViewId(u32);

impl ViewId {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id at raw table index `i` — the inverse of
    /// [`index`](Self::index), for tables indexed densely by view.
    ///
    /// # Panics
    /// Panics if `i` exceeds the id space.
    pub fn from_index(i: usize) -> ViewId {
        ViewId(offset(i))
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A table position as stored in entries and the index.
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("view table overflow")
}

/// One interned view: its fixed-width key and its metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The owning process.
    p: u8,
    /// Length of the received list.
    len: u8,
    /// The view's time; 0 marks an initial view.
    time: u32,
    /// The previous view's id, or the input of an initial view.
    head: u32,
    /// Start of the received list in the received arena.
    start: u32,
    /// Processes whose initial node `(q, 0, x_q)` is in the causal past.
    heard: PidMask,
    /// Start of the known inputs in the input arena.
    inputs: u32,
}

/// A view's structural key: the fixed-width part of its [`Entry`] plus its
/// normalized received list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key<'a> {
    p: u8,
    time: u32,
    head: u32,
    received: &'a [(u8, ViewId)],
}

impl Key<'_> {
    /// A multiply-rotate hash of the key; the index probes from its top bits.
    /// A sender is implied by its view, so only the received ids are mixed.
    /// Keys hold ids the table assigned, pids, and inputs from the caller's
    /// value domain (the service fixes it to `{0, 1}`), so the hash need not
    /// resist crafted collisions.
    fn hash(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let head = u64::from(self.head) | u64::from(self.p) << 32 | u64::from(self.time) << 40;
        self.received.iter().fold(mix(0, head), |h, &(_, v)| mix(h, u64::from(v.0)))
    }
}

/// A free index slot.
const EMPTY: u32 = u32::MAX;

/// A [`ViewTable`]'s flat view storage with its id index; see the module
/// docs.
#[derive(Debug, Clone, Default)]
struct Store {
    entries: Vec<Entry>,
    received: Vec<(u8, ViewId)>,
    inputs: Vec<Value>,
    /// Entry positions by hash (`EMPTY` where free): linear probing, a power
    /// of two long, at most half full.
    slots: Vec<u32>,
}

impl Store {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn key(&self, i: usize) -> Key<'_> {
        let e = &self.entries[i];
        let received = &self.received[e.start as usize..][..usize::from(e.len)];
        Key { p: e.p, time: e.time, head: e.head, received }
    }

    fn data(&self, i: usize) -> ViewData<'_> {
        let e = &self.entries[i];
        ViewData {
            process: usize::from(e.p),
            time: e.time as usize,
            heard: e.heard,
            known: &self.inputs[e.inputs as usize..][..e.heard.count_ones() as usize],
        }
    }

    /// The first slot probed for `hash`.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The position of the entry whose key is `key`, if any.
    fn find(&self, key: &Key<'_>, hash: u64) -> Option<usize> {
        let wrap = self.slots.len().checked_sub(1)?;
        let mut s = self.home(hash);
        loop {
            match self.slots[s] {
                EMPTY => return None,
                i if self.key(i as usize) == *key => return Some(i as usize),
                _ => s = (s + 1) & wrap,
            }
        }
    }

    /// Append a view that is not yet stored and return its position;
    /// `known` holds one input per member of `heard`.
    fn push(&mut self, key: &Key<'_>, hash: u64, heard: PidMask, known: &[Value]) -> usize {
        let i = self.entries.len();
        if 2 * (i + 1) > self.slots.len() {
            self.grow();
        }
        self.entries.push(Entry {
            p: key.p,
            len: key.received.len() as u8,
            time: key.time,
            head: key.head,
            start: offset(self.received.len()),
            heard,
            inputs: offset(self.inputs.len()),
        });
        self.received.extend_from_slice(key.received);
        self.inputs.extend_from_slice(known);
        self.place(hash, i);
        i
    }

    fn place(&mut self, hash: u64, i: usize) {
        let wrap = self.slots.len() - 1;
        let mut s = self.home(hash);
        while self.slots[s] != EMPTY {
            s = (s + 1) & wrap;
        }
        self.slots[s] = offset(i);
    }

    /// Double the index (16 slots at first) and re-place every entry.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (2 * self.slots.len()).max(16)];
        for i in 0..self.entries.len() {
            let hash = self.key(i).hash();
            self.place(hash, i);
        }
    }
}

/// Normalize a received list into `buf`: skip self-deliveries, check each
/// view's sender and time, keep the first view per sender, and sort by
/// sender.
fn normalize<'a>(
    p: Pid,
    time: u32,
    received: impl IntoIterator<Item = (Pid, ViewId)>,
    entry: impl Fn(ViewId) -> &'a Entry,
    buf: &mut Vec<(u8, ViewId)>,
) {
    buf.clear();
    let mut seen: PidMask = 0;
    let mut sorted = true;
    for (q, v) in received {
        if q == p {
            continue;
        }
        let e = entry(v);
        assert_eq!(usize::from(e.p), q, "received view must belong to its sender");
        assert_eq!(e.time + 1, time, "received view must be from the previous round");
        if !mask::contains(seen, q) {
            sorted &= seen >> q == 0;
            seen |= mask::singleton(q);
            buf.push((q as u8, v));
        }
    }
    if !sorted {
        buf.sort_unstable_by_key(|&(q, _)| q);
    }
}

/// The `heard` mask of a round view, with its known inputs written to the
/// front of `known` in process order. Sources are read `prev` first, then
/// the received views in sender order; the first to know an input wins.
fn merge_known<'a>(
    prev: ViewData<'a>,
    received: &[(u8, ViewId)],
    data: impl Fn(ViewId) -> ViewData<'a>,
    known: &mut [Value; MAX_N],
) -> PidMask {
    let mut by_process = [0; MAX_N];
    let mut heard: PidMask = 0;
    for d in std::iter::once(prev).chain(received.iter().map(|&(_, v)| data(v))) {
        if d.heard & !heard != 0 {
            for (q, x) in d.known_inputs().filter(|&(q, _)| !mask::contains(heard, q)) {
                by_process[q] = x;
            }
            heard |= d.heard;
        }
    }
    for (slot, q) in known.iter_mut().zip(mask::iter(heard)) {
        *slot = by_process[q];
    }
    heard
}

/// Metadata of an interned view, borrowed from its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewData<'a> {
    /// The owning process.
    pub process: Pid,
    /// The time of the view (0 for initial views).
    pub time: usize,
    /// Bitmask of processes whose initial node `(q, 0, x_q)` is in the
    /// causal past (always contains the owner).
    pub heard: PidMask,
    /// The known initial values, one per member of `heard`, in process
    /// order.
    known: &'a [Value],
}

impl<'a> ViewData<'a> {
    /// The owner's own input value.
    pub fn own_input(&self) -> Value {
        self.input_of(self.process).expect("owner's input is always known")
    }

    /// The initial value of `q` if `(q, 0, x_q)` is in the causal past.
    pub fn input_of(&self, q: Pid) -> Option<Value> {
        (q < MAX_N && self.has_heard(q))
            .then(|| self.known[(self.heard & (mask::singleton(q) - 1)).count_ones() as usize])
    }

    /// Whether `q`'s initial node is in the causal past — "the owner has
    /// heard from `q`" (paper Definition 5.8 uses this with `q` the
    /// broadcaster).
    pub fn has_heard(&self, q: Pid) -> bool {
        mask::contains(self.heard, q)
    }

    /// The smallest initial value in the causal past (the decision rule of
    /// the classic min-flooding baseline).
    pub fn min_known_input(&self) -> Value {
        self.known.iter().copied().min().expect("view knows its own input")
    }

    /// The known initial values as `(process, value)` pairs sorted by
    /// process: exactly one per member of `heard`.
    pub fn known_inputs(&self) -> impl Iterator<Item = (Pid, Value)> + 'a {
        mask::iter(self.heard).zip(self.known.iter().copied())
    }
}

/// Interner for views; see the module docs.
///
/// ```
/// use ptgraph::{ViewTable, ViewId};
/// let mut table = ViewTable::new(2);
/// let a = table.intern_initial(0, 7);
/// let b = table.intern_initial(0, 7);
/// let c = table.intern_initial(0, 8);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(table.data(a).own_input(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct ViewTable {
    n: usize,
    store: Store,
    /// Reused buffer for normalizing received lists.
    buf: Vec<(u8, ViewId)>,
}

/// Structural: equal tables hold the same views under the same ids.
impl PartialEq for ViewTable {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.store, &other.store);
        self.n == other.n
            && a.entries == b.entries
            && a.received == b.received
            && a.inputs == b.inputs
    }
}

impl Eq for ViewTable {}

impl ViewTable {
    /// A fresh table for systems of `n` processes.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > dyngraph::MAX_N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=MAX_N).contains(&n));
        ViewTable { n, store: Store::default(), buf: Vec::new() }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.entries.is_empty()
    }

    /// Intern the time-0 view of process `p` with input `x`.
    ///
    /// # Panics
    /// Panics if `p ≥ n`.
    pub fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        assert!(p < self.n);
        let key = Key { p: p as u8, time: 0, head: x, received: &[] };
        let hash = key.hash();
        let i = self
            .store
            .find(&key, hash)
            .unwrap_or_else(|| self.store.push(&key, hash, mask::singleton(p), &[x]));
        ViewId::from_index(i)
    }

    /// Intern the round-`t` view of process `p` from its previous view and
    /// the received `(sender, sender's previous view)` pairs.
    ///
    /// `received` may come in any order. A self-delivery `(p, _)` is
    /// ignored (it is redundant with `prev`), and of several views from
    /// one sender only the first counts.
    ///
    /// # Panics
    /// Panics if `prev` does not belong to `p`, if a received view does not
    /// belong to its claimed sender, or if times are inconsistent.
    pub fn intern_round(
        &mut self,
        p: Pid,
        prev: ViewId,
        received: impl IntoIterator<Item = (Pid, ViewId)>,
    ) -> ViewId {
        let store = &mut self.store;
        let prev_entry = &store.entries[prev.index()];
        assert_eq!(usize::from(prev_entry.p), p, "prev view must belong to p");
        let time = prev_entry.time + 1;
        normalize(p, time, received, |id| &store.entries[id.index()], &mut self.buf);

        let key = Key { p: p as u8, time, head: prev.0, received: &self.buf };
        let hash = key.hash();
        let i = match store.find(&key, hash) {
            Some(i) => i,
            None => {
                let data = |id: ViewId| store.data(id.index());
                let mut known = [0; MAX_N];
                let heard = merge_known(data(prev), &self.buf, data, &mut known);
                store.push(&key, hash, heard, &known[..heard.count_ones() as usize])
            }
        };
        ViewId::from_index(i)
    }

    /// Metadata of an interned view.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    pub fn data(&self, id: ViewId) -> ViewData<'_> {
        self.store.data(id.index())
    }

    /// The `(sender, view)` pairs received in the view's round, sorted by
    /// sender (empty for initial views).
    pub fn received(&self, id: ViewId) -> &[(u8, ViewId)] {
        self.store.key(id.index()).received
    }

    /// The previous view of the same process, or `None` for initial views.
    pub fn prev(&self, id: ViewId) -> Option<ViewId> {
        let e = &self.store.entries[id.index()];
        (e.time > 0).then_some(ViewId(e.head))
    }

    /// Render a view as a nested term, e.g. `p0[p0(x=1) | p1(x=0)←p1]`.
    pub fn render(&self, id: ViewId) -> String {
        let key = self.store.key(id.index());
        if key.time == 0 {
            return format!("p{}(x={})", key.p, key.head);
        }
        let mut s = format!("p{}[{}", key.p, self.render(ViewId(key.head)));
        for &(q, v) in key.received {
            s.push_str(&format!(" | {}←p{q}", self.render(v)));
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_views_deduplicate() {
        let mut t = ViewTable::new(3);
        let a = t.intern_initial(1, 5);
        let b = t.intern_initial(1, 5);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_ne!(t.intern_initial(2, 5), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn round_views_deduplicate_regardless_of_order() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_initial(1, 1);
        let v2 = t.intern_initial(2, 0);
        let a = t.intern_round(0, v0, [(1, v1), (2, v2)]);
        let b = t.intern_round(0, v0, [(2, v2), (1, v1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn self_delivery_ignored() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 3);
        let a = t.intern_round(0, v0, [(0, v0)]);
        let b = t.intern_round(0, v0, []);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_accumulates() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 10);
        let v1 = t.intern_initial(1, 20);
        let r = t.intern_round(0, v0, [(1, v1)]);
        let d = t.data(r);
        assert_eq!(d.time, 1);
        assert_eq!(d.heard, 0b011);
        assert_eq!(d.input_of(1), Some(20));
        assert_eq!(d.input_of(2), None);
        assert_eq!(d.own_input(), 10);
        assert_eq!(d.min_known_input(), 10);
        assert!(d.has_heard(1));
        assert!(!d.has_heard(2));
    }

    #[test]
    fn two_hop_knowledge() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 1);
        let v1 = t.intern_initial(1, 2);
        let v2 = t.intern_initial(2, 3);
        // Round 1: 0 → 1.
        let v1r1 = t.intern_round(1, v1, [(0, v0)]);
        let v2r1 = t.intern_round(2, v2, []);
        // Round 2: 1 → 2.
        let v2r2 = t.intern_round(2, v2r1, [(1, v1r1)]);
        let d = t.data(v2r2);
        assert_eq!(d.heard, 0b111);
        assert_eq!(d.input_of(0), Some(1));
        assert_eq!(d.min_known_input(), 1);
    }

    #[test]
    fn different_inputs_different_views() {
        let mut t = ViewTable::new(2);
        let a0 = t.intern_initial(0, 0);
        let b0 = t.intern_initial(0, 1);
        assert_ne!(a0, b0);
        let a1 = t.intern_round(0, a0, []);
        let b1 = t.intern_round(0, b0, []);
        assert_ne!(a1, b1, "views with different causal pasts never merge");
    }

    #[test]
    fn prev_and_received_accessors() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let w0 = t.intern_initial(1, 1);
        let r = t.intern_round(0, v0, [(1, w0)]);
        assert_eq!(t.prev(r), Some(v0));
        assert_eq!(t.prev(v0), None);
        assert_eq!(t.received(r), &[(1u8, w0)]);
        assert!(t.received(v0).is_empty());
    }

    #[test]
    fn render_nested() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 1);
        let w0 = t.intern_initial(1, 0);
        let r = t.intern_round(0, v0, [(1, w0)]);
        assert_eq!(t.render(r), "p0[p0(x=1) | p1(x=0)←p1]");
    }

    #[test]
    #[should_panic(expected = "prev view must belong to p")]
    fn intern_round_checks_owner() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let _ = t.intern_round(1, v0, []);
    }

    #[test]
    #[should_panic(expected = "previous round")]
    fn intern_round_checks_times() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_round(0, v0, []);
        let w0 = t.intern_initial(1, 0);
        // w0 is at time 0 but p0's prev is at time 1 → received must be time 1.
        let _ = t.intern_round(0, v1, [(1, w0)]);
    }
}
