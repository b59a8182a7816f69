//! Hash-consed local views.
//!
//! The view `V_{p}(PT^t)` of the paper (§3/§4) — process `p`'s causal past at
//! time `t` — is represented structurally:
//!
//! * at time 0, the view is the pair `(p, x_p)`;
//! * at time `t ≥ 1`, the view is `p`'s previous view plus the sorted list of
//!   `(q, q's view at t−1)` for every in-neighbor `q` of round `t`.
//!
//! Views are interned in a [`ViewTable`]: structural equality of causal pasts
//! becomes pointer ([`ViewId`]) equality, which is what makes the
//! prefix-space machinery (bucketing runs by view) cheap. The table also
//! memoizes per-view metadata — which processes are in the causal past and
//! which *initial values* are known — used by the broadcastability
//! characterization (paper Theorem 5.11).

use std::collections::HashMap;
use std::fmt;

use dyngraph::{mask, Pid, PidMask};
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
        ViewId(u32::try_from(i).expect("view table overflow"))
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The structural key of a view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ViewKey {
    /// Time-0 view: own process id and input value.
    Initial { p: u8, x: Value },
    /// Time-t view: own previous view plus received views, sorted by sender.
    Round {
        p: u8,
        prev: ViewId,
        received: Box<[(u8, ViewId)]>,
    },
}

impl ViewKey {
    /// The key with every contained [`ViewId`] pushed through `map`.
    fn mapped(&self, map: impl Fn(ViewId) -> ViewId) -> ViewKey {
        match self {
            ViewKey::Initial { .. } => self.clone(),
            ViewKey::Round { p, prev, received } => ViewKey::Round {
                p: *p,
                prev: map(*prev),
                received: received.iter().map(|&(q, v)| (q, map(v))).collect(),
            },
        }
    }
}

/// Normalize a received list: drop self-deliveries, validate sender/time,
/// sort by sender, dedup. `data_of` resolves any id the caller may pass.
fn normalize_received<'a>(
    p: Pid,
    t: usize,
    received: &[(Pid, ViewId)],
    data_of: impl Fn(ViewId) -> &'a ViewData,
) -> Vec<(u8, ViewId)> {
    let mut rec: Vec<(u8, ViewId)> = Vec::with_capacity(received.len());
    for &(q, vid) in received {
        if q == p {
            continue;
        }
        let d = data_of(vid);
        assert_eq!(d.process, q, "received view must belong to its sender");
        assert_eq!(d.time, t - 1, "received view must be from the previous round");
        rec.push((q as u8, vid));
    }
    rec.sort_unstable_by_key(|&(q, _)| q);
    rec.dedup_by_key(|&mut (q, _)| q);
    rec
}

/// Merge the metadata of a round view from its parts.
fn merge_round_data<'a>(
    p: Pid,
    t: usize,
    prev: ViewId,
    rec: &[(u8, ViewId)],
    data_of: impl Fn(ViewId) -> &'a ViewData,
) -> ViewData {
    let mut heard = data_of(prev).heard;
    let mut known: Vec<(Pid, Value)> = data_of(prev).known_inputs.to_vec();
    for &(_, vid) in rec {
        let d = data_of(vid);
        heard |= d.heard;
        known.extend(d.known_inputs.iter().copied());
    }
    known.sort_unstable_by_key(|&(q, _)| q);
    known.dedup_by_key(|&mut (q, _)| q);
    debug_assert_eq!(known.len(), heard.count_ones() as usize);
    ViewData { process: p, time: t, heard, known_inputs: known.into_boxed_slice() }
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
    /// received `(sender, sender's previous view)` pairs.
    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId;
}

/// Metadata cached for each interned view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewData {
    /// The owning process.
    pub process: Pid,
    /// The time of the view (0 for initial views).
    pub time: usize,
    /// Bitmask of processes whose initial node `(q, 0, x_q)` is in the
    /// causal past (always contains the owner).
    pub heard: PidMask,
    /// The known initial values, sorted by process id; exactly one entry per
    /// set bit of `heard`.
    pub known_inputs: Box<[(Pid, Value)]>,
}

impl ViewData {
    /// The owner's own input value.
    pub fn own_input(&self) -> Value {
        self.input_of(self.process).expect("owner's input is always known")
    }

    /// The initial value of `q` if `(q, 0, x_q)` is in the causal past.
    pub fn input_of(&self, q: Pid) -> Option<Value> {
        self.known_inputs
            .binary_search_by_key(&q, |&(pid, _)| pid)
            .ok()
            .map(|i| self.known_inputs[i].1)
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
        self.known_inputs
            .iter()
            .map(|&(_, v)| v)
            .min()
            .expect("view knows its own input")
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewTable {
    n: usize,
    index: HashMap<ViewKey, ViewId>,
    data: Vec<ViewData>,
    keys: Vec<ViewKey>,
}

impl ViewTable {
    /// A fresh table for systems of `n` processes.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > dyngraph::MAX_N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=dyngraph::MAX_N).contains(&n));
        ViewTable { n, index: HashMap::new(), data: Vec::new(), keys: Vec::new() }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct views interned so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Intern the time-0 view of process `p` with input `x`.
    ///
    /// # Panics
    /// Panics if `p ≥ n`.
    pub fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        assert!(p < self.n);
        let key = ViewKey::Initial { p: p as u8, x };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let data = ViewData {
            process: p,
            time: 0,
            heard: mask::singleton(p),
            known_inputs: vec![(p, x)].into_boxed_slice(),
        };
        self.insert(key, data)
    }

    /// Intern the round-`t` view of process `p` from its previous view and
    /// the received `(sender, sender's previous view)` pairs.
    ///
    /// `received` need not be sorted and must not contain `p` itself (a
    /// self-loop delivery is redundant with `prev` and is ignored).
    ///
    /// # Panics
    /// Panics if `prev` does not belong to `p`, if a received view does not
    /// belong to its claimed sender, or if times are inconsistent.
    pub fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        let prev_data = &self.data[prev.index()];
        assert_eq!(prev_data.process, p, "prev view must belong to p");
        let t = prev_data.time + 1;

        let rec = normalize_received(p, t, received, |id| &self.data[id.index()]);
        let key = ViewKey::Round { p: p as u8, prev, received: rec.clone().into_boxed_slice() };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }

        let data = merge_round_data(p, t, prev, &rec, |id| &self.data[id.index()]);
        self.insert(key, data)
    }

    fn insert(&mut self, key: ViewKey, data: ViewData) -> ViewId {
        let id = ViewId::from_index(self.data.len());
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        self.data.push(data);
        id
    }

    /// Metadata of an interned view.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    pub fn data(&self, id: ViewId) -> &ViewData {
        &self.data[id.index()]
    }

    /// The `(sender, view)` pairs received in the view's round (empty for
    /// initial views).
    pub fn received(&self, id: ViewId) -> &[(u8, ViewId)] {
        match &self.keys[id.index()] {
            ViewKey::Initial { .. } => &[],
            ViewKey::Round { received, .. } => received,
        }
    }

    /// The previous view of the same process, or `None` for initial views.
    pub fn prev(&self, id: ViewId) -> Option<ViewId> {
        match &self.keys[id.index()] {
            ViewKey::Initial { .. } => None,
            ViewKey::Round { prev, .. } => Some(*prev),
        }
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
        assert!(local.base_len <= self.data.len(), "shard base is not a prefix of this table");
        let mut remap: Vec<ViewId> = Vec::with_capacity(local.keys.len());
        for (i, key) in local.keys.iter().enumerate() {
            let translate = |id: ViewId| {
                if id.index() < local.base_len {
                    id
                } else {
                    remap[id.index() - local.base_len]
                }
            };
            let key = key.mapped(translate);
            let id = match self.index.get(&key) {
                Some(&id) => id,
                None => self.insert(key, local.data[i].clone()),
            };
            remap.push(id);
        }
        remap
    }

    /// Render a view as a nested term, e.g. `p0[p0(x=1) | p1(x=0)←p1]`.
    pub fn render(&self, id: ViewId) -> String {
        match &self.keys[id.index()] {
            ViewKey::Initial { p, x } => format!("p{p}(x={x})"),
            ViewKey::Round { p, prev, received } => {
                let mut s = format!("p{p}[{}", self.render(*prev));
                for &(q, vid) in received.iter() {
                    s.push_str(&format!(" | {}←p{q}", self.render(vid)));
                }
                s.push(']');
                s
            }
        }
    }
}

impl ViewInterner for ViewTable {
    fn n(&self) -> usize {
        ViewTable::n(self)
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        ViewTable::intern_initial(self, p, x)
    }

    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        ViewTable::intern_round(self, p, prev, received)
    }
}

/// A per-worker view interner layered over an immutable base [`ViewTable`].
///
/// Ids below `base.len()` resolve in the base; new views land in a local
/// extension with ids continuing from `base.len()`. Workers of a parallel
/// expansion each build one shard against the shared base, then the shards
/// are [`ViewTable::absorb`]ed into the base in canonical chunk order —
/// reproducing the serial interning order without any locking on the hot
/// path.
#[derive(Debug)]
pub struct ShardTable<'a> {
    base: &'a ViewTable,
    index: HashMap<ViewKey, ViewId>,
    data: Vec<ViewData>,
    keys: Vec<ViewKey>,
}

impl<'a> ShardTable<'a> {
    /// A fresh shard over `base`.
    pub fn new(base: &'a ViewTable) -> Self {
        ShardTable { base, index: HashMap::new(), data: Vec::new(), keys: Vec::new() }
    }

    /// Number of views interned locally (excluding the base).
    pub fn local_len(&self) -> usize {
        self.data.len()
    }

    fn resolve(&self, id: ViewId) -> &ViewData {
        let i = id.index();
        if i < self.base.len() {
            &self.base.data[i]
        } else {
            &self.data[i - self.base.len()]
        }
    }

    fn insert(&mut self, key: ViewKey, data: ViewData) -> ViewId {
        let raw = self.base.len() + self.data.len();
        let id = ViewId::from_index(raw);
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        self.data.push(data);
        id
    }

    /// Detach the local extension for [`ViewTable::absorb`], releasing the
    /// borrow on the base.
    pub fn into_local(self) -> LocalViews {
        LocalViews { n: self.base.n, base_len: self.base.len(), keys: self.keys, data: self.data }
    }
}

impl ViewInterner for ShardTable<'_> {
    fn n(&self) -> usize {
        self.base.n
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        assert!(p < self.base.n);
        let key = ViewKey::Initial { p: p as u8, x };
        if let Some(&id) = self.base.index.get(&key) {
            return id;
        }
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let data = ViewData {
            process: p,
            time: 0,
            heard: mask::singleton(p),
            known_inputs: vec![(p, x)].into_boxed_slice(),
        };
        self.insert(key, data)
    }

    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        let prev_data = self.resolve(prev);
        assert_eq!(prev_data.process, p, "prev view must belong to p");
        let t = prev_data.time + 1;

        let rec = normalize_received(p, t, received, |id| self.resolve(id));
        let key = ViewKey::Round { p: p as u8, prev, received: rec.clone().into_boxed_slice() };
        if let Some(&id) = self.base.index.get(&key) {
            return id;
        }
        if let Some(&id) = self.index.get(&key) {
            return id;
        }

        let data = merge_round_data(p, t, prev, &rec, |id| self.resolve(id));
        self.insert(key, data)
    }
}

/// The detached local extension of a [`ShardTable`], ready to be
/// [`ViewTable::absorb`]ed. Keys are in local insertion order.
#[derive(Debug)]
pub struct LocalViews {
    n: usize,
    base_len: usize,
    keys: Vec<ViewKey>,
    data: Vec<ViewData>,
}

impl LocalViews {
    /// The base-table length this shard extended — ids below it are global.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of locally interned views.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the shard interned nothing new.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

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
        let a = t.intern_round(0, v0, &[(1, v1), (2, v2)]);
        let b = t.intern_round(0, v0, &[(2, v2), (1, v1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn self_delivery_ignored() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 3);
        let a = t.intern_round(0, v0, &[(0, v0)]);
        let b = t.intern_round(0, v0, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_accumulates() {
        let mut t = ViewTable::new(3);
        let v0 = t.intern_initial(0, 10);
        let v1 = t.intern_initial(1, 20);
        let r = t.intern_round(0, v0, &[(1, v1)]);
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
        let v1r1 = t.intern_round(1, v1, &[(0, v0)]);
        let v2r1 = t.intern_round(2, v2, &[]);
        // Round 2: 1 → 2.
        let v2r2 = t.intern_round(2, v2r1, &[(1, v1r1)]);
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
        let a1 = t.intern_round(0, a0, &[]);
        let b1 = t.intern_round(0, b0, &[]);
        assert_ne!(a1, b1, "views with different causal pasts never merge");
    }

    #[test]
    fn prev_and_received_accessors() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let w0 = t.intern_initial(1, 1);
        let r = t.intern_round(0, v0, &[(1, w0)]);
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
        let r = t.intern_round(0, v0, &[(1, w0)]);
        assert_eq!(t.render(r), "p0[p0(x=1) | p1(x=0)←p1]");
    }

    #[test]
    fn shard_over_empty_base_replays_serially() {
        // Interning the same views serially and via a shard+absorb must
        // assign identical ids.
        let mut serial = ViewTable::new(2);
        let a0 = serial.intern_initial(0, 0);
        let b0 = serial.intern_initial(1, 1);
        let a1 = serial.intern_round(0, a0, &[(1, b0)]);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let sa0 = ViewInterner::intern_initial(&mut shard, 0, 0);
        let sb0 = ViewInterner::intern_initial(&mut shard, 1, 1);
        let sa1 = ViewInterner::intern_round(&mut shard, 0, sa0, &[(1, sb0)]);
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
        let known = base.intern_round(0, a0, &[]);
        let base_len = base.len();

        let mut shard = ShardTable::new(&base);
        // Already in the base: resolved there, nothing interned locally.
        assert_eq!(ViewInterner::intern_initial(&mut shard, 0, 0), a0);
        assert_eq!(ViewInterner::intern_round(&mut shard, 0, a0, &[]), known);
        assert_eq!(shard.local_len(), 0);
        // New: local ids continue from the base length.
        let fresh = ViewInterner::intern_round(&mut shard, 0, a0, &[(1, b0)]);
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
            ViewInterner::intern_round(&mut shard, 0, a0, &[]);
            shard.into_local()
        };
        let s2 = {
            let mut shard = ShardTable::new(&base);
            ViewInterner::intern_round(&mut shard, 0, a0, &[]);
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
        let direct = PrefixRun::compute(vec![0, 1], &seq, &mut serial);

        let mut base = ViewTable::new(2);
        let mut shard = ShardTable::new(&base);
        let mut run = PrefixRun::compute(vec![0, 1], &seq, &mut shard);
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
        let _ = t.intern_round(1, v0, &[]);
    }

    #[test]
    #[should_panic(expected = "previous round")]
    fn intern_round_checks_times() {
        let mut t = ViewTable::new(2);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_round(0, v0, &[]);
        let w0 = t.intern_initial(1, 0);
        // w0 is at time 0 but p0's prev is at time 1 → received must be time 1.
        let _ = t.intern_round(0, v1, &[(1, w0)]);
    }
}
