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
//! Ids are dense and handed out in first-intern order. A [`ShardTable`]'s
//! local extension has the same layout, so [`ViewTable::absorb`] copies its
//! entries instead of re-deriving them.

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

/// Flat view storage — a [`ViewTable`]'s views, or a [`ShardTable`]'s local
/// extension — with its id index; see the module docs.
#[derive(Debug, Clone)]
struct Store {
    entries: Vec<Entry>,
    received: Vec<(u8, ViewId)>,
    inputs: Vec<Value>,
    /// Entry positions by hash (`EMPTY` where free): linear probing, a power
    /// of two long, at most half full.
    slots: Vec<u32>,
}

impl Store {
    const fn new() -> Self {
        Store { entries: Vec::new(), received: Vec::new(), inputs: Vec::new(), slots: Vec::new() }
    }

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

/// The base of a [`ViewTable`]: it extends nothing.
static NO_BASE: Store = Store::new();

/// Intern the time-0 view of `p` with input `x` into `local`, which extends
/// `base`: ids below `base.len()` are `base`'s, the rest `local`'s. The
/// core of both [`ViewTable`] and [`ShardTable`].
fn intern_initial_in(base: &Store, local: &mut Store, p: Pid, x: Value) -> ViewId {
    let key = Key { p: p as u8, time: 0, head: x, received: &[] };
    let hash = key.hash();
    let i = match base.find(&key, hash) {
        Some(i) => i,
        None => {
            base.len()
                + local
                    .find(&key, hash)
                    .unwrap_or_else(|| local.push(&key, hash, mask::singleton(p), &[x]))
        }
    };
    ViewId::from_index(i)
}

/// Intern a round view into `local` over `base`, as [`intern_initial_in`];
/// `buf` is the caller's reused normalization buffer.
fn intern_round_in(
    base: &Store,
    local: &mut Store,
    buf: &mut Vec<(u8, ViewId)>,
    p: Pid,
    prev: ViewId,
    received: impl IntoIterator<Item = (Pid, ViewId)>,
) -> ViewId {
    let locate = |id: ViewId| match id.index().checked_sub(base.len()) {
        None => (base, id.index()),
        Some(i) => (&*local, i),
    };
    let entry = |id| {
        let (store, i) = locate(id);
        &store.entries[i]
    };
    let prev_entry = entry(prev);
    assert_eq!(usize::from(prev_entry.p), p, "prev view must belong to p");
    let time = prev_entry.time + 1;
    normalize(p, time, received, entry, buf);

    let key = Key { p: p as u8, time, head: prev.0, received: buf };
    let hash = key.hash();
    if let Some(i) = base.find(&key, hash) {
        return ViewId::from_index(i);
    }
    let i = match local.find(&key, hash) {
        Some(i) => i,
        None => {
            let data = |id| {
                let (store, i) = locate(id);
                store.data(i)
            };
            let mut known = [0; MAX_N];
            let heard = merge_known(data(prev), buf, data, &mut known);
            local.push(&key, hash, heard, &known[..heard.count_ones() as usize])
        }
    };
    ViewId::from_index(base.len() + i)
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

/// A sink for view interning — implemented by the shared [`ViewTable`] and
/// by per-worker [`ShardTable`]s, so run computation
/// ([`crate::PrefixRun::compute`]) is generic over where views land.
pub trait ViewInterner {
    /// Number of processes.
    fn n(&self) -> usize;

    /// Intern the time-0 view of process `p` with input `x`.
    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId;

    /// Intern the round-`t` view of `p` from its previous view and the
    /// received `(sender, sender's previous view)` pairs; see
    /// [`ViewTable::intern_round`].
    fn intern_round(
        &mut self,
        p: Pid,
        prev: ViewId,
        received: impl IntoIterator<Item = (Pid, ViewId)>,
    ) -> ViewId;
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
        ViewTable { n, store: Store::new(), buf: Vec::new() }
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
        intern_initial_in(&NO_BASE, &mut self.store, p, x)
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
        intern_round_in(&NO_BASE, &mut self.store, &mut self.buf, p, prev, received)
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

    /// Merge a worker shard's local views into this table, in the shard's
    /// local insertion order, and return the remap `local index → global
    /// id`. The shard must have been built over a prefix of this table
    /// (`local.base_len() ≤ self.len()`); base ids are stable because the
    /// table only ever appends.
    ///
    /// Absorbing the shards of a canonically-chunked parallel expansion in
    /// chunk order reproduces *exactly* the [`ViewId`] assignment of the
    /// serial pass: a view's first global occurrence is in the earliest
    /// chunk containing it, at its first position within that chunk — the
    /// same order in which a serial sweep over the chunks' runs would have
    /// interned it.
    ///
    /// # Panics
    /// Panics if the shard was built for a different `n` or over a longer
    /// base than this table.
    pub fn absorb(&mut self, local: &LocalViews) -> Vec<ViewId> {
        assert_eq!(local.n, self.n, "shard and table disagree on n");
        assert!(local.base_len <= self.len(), "shard base is not a prefix of this table");
        let mut remap: Vec<ViewId> = Vec::with_capacity(local.len());
        for i in 0..local.len() {
            let key = local.store.key(i);
            let global = |id: ViewId| match id.index().checked_sub(local.base_len) {
                None => id,
                Some(j) => remap[j],
            };
            let head = if key.time == 0 {
                key.head
            } else {
                global(ViewId(key.head)).0
            };
            self.buf.clear();
            self.buf.extend(key.received.iter().map(|&(q, v)| (q, global(v))));
            let key = Key { head, received: &self.buf, ..key };
            let hash = key.hash();
            let id = match self.store.find(&key, hash) {
                Some(id) => id,
                None => {
                    let d = local.store.data(i);
                    self.store.push(&key, hash, d.heard, d.known)
                }
            };
            remap.push(ViewId::from_index(id));
        }
        remap
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

impl ViewInterner for ViewTable {
    fn n(&self) -> usize {
        ViewTable::n(self)
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        ViewTable::intern_initial(self, p, x)
    }

    fn intern_round(
        &mut self,
        p: Pid,
        prev: ViewId,
        received: impl IntoIterator<Item = (Pid, ViewId)>,
    ) -> ViewId {
        ViewTable::intern_round(self, p, prev, received)
    }
}

/// A per-worker view interner layered over an immutable base [`ViewTable`].
///
/// Ids below `base.len()` resolve in the base; new views land in a local
/// extension with ids continuing from `base.len()`, stored in the table's
/// own layout. Workers of a parallel expansion each build one shard against
/// the shared base, then the shards are [`ViewTable::absorb`]ed into the
/// base in canonical chunk order — reproducing the serial interning order
/// without any locking on the hot path.
#[derive(Debug)]
pub struct ShardTable<'a> {
    base: &'a ViewTable,
    local: Store,
    buf: Vec<(u8, ViewId)>,
}

impl<'a> ShardTable<'a> {
    /// A fresh shard over `base`.
    pub fn new(base: &'a ViewTable) -> Self {
        ShardTable { base, local: Store::new(), buf: Vec::new() }
    }

    /// Number of views interned locally (excluding the base).
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Detach the local extension for [`ViewTable::absorb`], releasing the
    /// borrow on the base.
    pub fn into_local(self) -> LocalViews {
        LocalViews { n: self.base.n, base_len: self.base.len(), store: self.local }
    }
}

impl ViewInterner for ShardTable<'_> {
    fn n(&self) -> usize {
        self.base.n
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        assert!(p < self.base.n);
        intern_initial_in(&self.base.store, &mut self.local, p, x)
    }

    fn intern_round(
        &mut self,
        p: Pid,
        prev: ViewId,
        received: impl IntoIterator<Item = (Pid, ViewId)>,
    ) -> ViewId {
        intern_round_in(&self.base.store, &mut self.local, &mut self.buf, p, prev, received)
    }
}

/// The detached local extension of a [`ShardTable`], ready to be
/// [`ViewTable::absorb`]ed. Views are in local insertion order.
#[derive(Debug)]
pub struct LocalViews {
    n: usize,
    base_len: usize,
    store: Store,
}

impl LocalViews {
    /// The base-table length this shard extended — ids below it are global.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of locally interned views.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the shard interned nothing new.
    pub fn is_empty(&self) -> bool {
        self.store.entries.is_empty()
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
    fn shard_over_empty_base_replays_serially() {
        // Interning the same views serially and via a shard+absorb must
        // assign identical ids.
        let mut serial = ViewTable::new(2);
        let a0 = serial.intern_initial(0, 0);
        let b0 = serial.intern_initial(1, 1);
        let a1 = serial.intern_round(0, a0, [(1, b0)]);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let sa0 = ViewInterner::intern_initial(&mut shard, 0, 0);
        let sb0 = ViewInterner::intern_initial(&mut shard, 1, 1);
        let sa1 = ViewInterner::intern_round(&mut shard, 0, sa0, [(1, sb0)]);
        let local = shard.into_local();
        let remap = base.absorb(&local);
        assert_eq!(remap[sa0.index()], a0);
        assert_eq!(remap[sb0.index()], b0);
        assert_eq!(remap[sa1.index()], a1);
        assert_eq!(base, serial);
    }

    #[test]
    fn shard_deduplicates_against_base_and_absorb_remaps() {
        let mut base = ViewTable::new(2);
        let a0 = base.intern_initial(0, 0);
        let b0 = base.intern_initial(1, 1);
        let known = base.intern_round(0, a0, []);
        let base_len = base.len();

        let mut shard = ShardTable::new(&base);
        // Already in the base: resolved there, nothing interned locally.
        assert_eq!(ViewInterner::intern_initial(&mut shard, 0, 0), a0);
        assert_eq!(ViewInterner::intern_round(&mut shard, 0, a0, []), known);
        assert_eq!(shard.local_len(), 0);
        // New: local ids continue from the base length.
        let fresh = ViewInterner::intern_round(&mut shard, 0, a0, [(1, b0)]);
        assert_eq!(fresh.index(), base_len);
        let local = shard.into_local();
        assert_eq!(local.len(), 1);
        assert_eq!(local.base_len(), base_len);

        let remap = base.absorb(&local);
        assert_eq!(remap.len(), 1);
        assert_eq!(remap[0].index(), base_len);
        assert_eq!(base.data(remap[0]).heard, 0b011);
    }

    #[test]
    fn absorb_two_shards_first_chunk_wins() {
        // Both shards intern the same new view; after absorbing in chunk
        // order both remap to the id the first chunk created.
        let mut base = ViewTable::new(2);
        let a0 = base.intern_initial(0, 0);
        let s1 = {
            let mut shard = ShardTable::new(&base);
            ViewInterner::intern_round(&mut shard, 0, a0, []);
            shard.into_local()
        };
        let s2 = {
            let mut shard = ShardTable::new(&base);
            ViewInterner::intern_round(&mut shard, 0, a0, []);
            shard.into_local()
        };
        let r1 = base.absorb(&s1);
        let r2 = base.absorb(&s2);
        assert_eq!(r1, r2);
        assert_eq!(base.len(), 2);
    }

    #[test]
    fn run_remap_after_shard_compute_matches_direct() {
        use crate::PrefixRun;
        use dyngraph::GraphSeq;
        let seq = GraphSeq::parse2("-> <-").unwrap();

        let mut serial = ViewTable::new(2);
        let direct = PrefixRun::compute(vec![0, 1], seq.clone(), &mut serial);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let mut run = PrefixRun::compute(vec![0, 1], seq, &mut shard);
        let local = shard.into_local();
        let remap = base.absorb(&local);
        run.remap_views(local.base_len(), &remap);
        assert_eq!(base, serial);
        assert_eq!(run, direct);
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
