//! Interned local views: each shape once, inputs by arithmetic.
//!
//! The view `V_{p}(PT^t)` of the paper (§3/§4) — process `p`'s causal past at
//! time `t` — is represented structurally:
//!
//! * at time 0, the view is the pair `(p, x_p)`;
//! * at time `t ≥ 1`, the view is `p`'s previous view plus the sorted list of
//!   `(q, q's view at t−1)` for every in-neighbor `q` of round `t`.
//!
//! A view splits in two. Its **shape** is the view with the inputs erased:
//! the owner, the time, the previous shape and the sorted `(sender, shape)`
//! list. It depends only on the graph sequence, and it fixes the view's
//! `heard` set: the processes whose initial node `(q, 0, x_q)` lies in the
//! causal past. The inputs are only labels on those initial nodes
//! ([`Labels`]).
//!
//! A [`ViewTable`] interns shapes over a fixed, deduplicated input domain
//! `V` and numbers full views by arithmetic: the view with shape `s` and
//! inputs `x` has id `base[s] + rank`, where `base[s]` is the running sum
//! of `|V|^|heard|` over the shapes interned before `s`, and `rank` is the
//! mixed-radix code of the inputs of the processes in `heard`, taken in
//! process order (the lowest process is the least significant digit).
//! Structural equality of causal pasts is therefore id ([`ViewId`])
//! equality, which is what makes the prefix-space machinery (bucketing runs
//! by view) cheap. Every `(shape, inputs on heard)` pair has an id, so in a
//! full expansion, which crosses every sequence with all of `V^n`,
//! [`ViewTable::len`] is the number of distinct views. Ids are dense but
//! are not first-intern positions.
//!
//! The table also answers per-view metadata — which processes are in the
//! causal past and which *initial values* are known — used by the
//! broadcastability characterization (paper Theorem 5.11).
//!
//! # Layout
//!
//! A table is a few flat vectors of `Copy` data, laid out the same for
//! every `n ≤` [`dyngraph::MAX_N`], so cloning one is a few `memcpy`s:
//!
//! * one fixed-width entry per shape, in shape order: the owner, the time,
//!   the previous shape, the `heard` mask, and where the shape's received
//!   list starts in a shared arena;
//! * the received arena: each shape's received shapes, sorted by sender (a
//!   shape determines its owner, so senders are not stored);
//! * each shape's base id, increasing with the shape;
//! * an open-addressing index of shapes, probed with a multiply-rotate hash
//!   of the key and resolved by comparing keys against the received arena.
//!
//! Callers that hold shapes and labels — the rows that runs share
//! ([`crate::ShapeRow`]) and the universal algorithm's states — derive ids
//! without decoding anything. The accessors that take a [`ViewId`], and
//! [`ViewTable::intern_round`], first decode it into its shape (a binary
//! search over the bases) and labels.

use std::fmt;
use std::ops::BitOr;

use dyngraph::{mask, Pid, PidMask, MAX_N};
use serde::{Deserialize, Serialize};

use crate::Value;

/// An interned view handle. Equal ids ⟺ identical causal pasts (within one
/// [`ViewTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ViewId(u64);

impl ViewId {
    /// The raw id, for tables indexed densely by view.
    ///
    /// # Panics
    /// Panics if the id exceeds the address space.
    pub fn index(self) -> usize {
        usize::try_from(self.0).expect("view id exceeds the address space")
    }

    /// The id with raw value `i` — the inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> ViewId {
        ViewId(i as u64)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An interned shape: a view with its inputs erased (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(u32);

impl ShapeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The inputs of some processes, as digits of a table's domain packed by
/// process. A view's labels are the inputs of its `heard` set; the labels
/// of two views of one run merge with `|`, because the runs agree on every
/// input both views know.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Labels(u128);

impl BitOr for Labels {
    type Output = Labels;

    fn bitor(self, other: Labels) -> Labels {
        Labels(self.0 | other.0)
    }
}

/// The arithmetic of a domain of `radix` values: digits below `radix`,
/// packed [`width`](Self::width) bits apiece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Radix {
    radix: u64,
}

impl Radix {
    /// Bits per packed digit: enough for `radix − 1`. A table's `radix^n`
    /// fits 64 bits, so `n · width ≤ 64 + n ≤ 96` fits the labels.
    fn width(self) -> u32 {
        u64::BITS - (self.radix - 1).leading_zeros()
    }

    /// The labels holding `digit` for `q`.
    fn label(self, q: Pid, digit: u64) -> Labels {
        Labels(u128::from(digit) << (q as u32 * self.width()))
    }

    /// The digit `labels` hold for `q`.
    fn digit(self, labels: Labels, q: Pid) -> u64 {
        let width = self.width();
        let bits = labels.0 >> (q as u32 * width);
        (bits & ((1u128 << width) - 1)) as u64
    }

    /// The mixed-radix code of `labels` on `heard`, lowest process least
    /// significant. It stays below `radix^|heard|`, which the table
    /// checked fits.
    pub(crate) fn rank(self, heard: PidMask, labels: Labels) -> u64 {
        let (mut code, mut scale) = (0, 1);
        for q in mask::iter(heard) {
            code += self.digit(labels, q) * scale;
            scale *= self.radix;
        }
        code
    }

    /// The labels of `heard` under `code`: [`rank`](Self::rank) inverted.
    fn unrank(self, heard: PidMask, mut code: u64) -> Labels {
        let mut labels = Labels::default();
        for q in mask::iter(heard) {
            labels = labels | self.label(q, code % self.radix);
            code /= self.radix;
        }
        labels
    }

    /// Whether `a` and `b` hold the same digit for every member of `common`.
    fn agree(self, a: Labels, b: Labels, common: PidMask) -> bool {
        mask::iter(common).all(|q| self.digit(a, q) == self.digit(b, q))
    }
}

/// One shape's cell in a row: what a run needs to derive its view's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) base: u64,
    pub(crate) shape: ShapeId,
    pub(crate) heard: PidMask,
}

impl Cell {
    /// The id of this cell's view whose inputs have rank `rank`.
    pub(crate) fn view(&self, rank: u64) -> ViewId {
        ViewId(self.base + rank)
    }
}

/// One interned shape: its fixed-width key and its `heard` mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The owning process.
    p: u8,
    /// Length of the received list.
    len: u8,
    /// The shape's time; 0 marks an initial shape.
    time: u32,
    /// The previous shape (0 for an initial shape).
    prev: u32,
    /// Start of the received list in the received arena.
    start: u32,
    /// Processes whose initial node `(q, 0, x_q)` is in the causal past.
    heard: PidMask,
}

/// A shape's structural key: the fixed-width part of its [`Entry`] plus its
/// received shapes in sender order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key<'a> {
    p: u8,
    time: u32,
    prev: u32,
    received: &'a [u32],
}

impl Key<'_> {
    /// A multiply-rotate hash of the key; the index probes from its top bits.
    /// A sender is implied by its shape, so only the received shapes are
    /// mixed. Keys hold shapes the table assigned and pids, so the hash
    /// need not resist crafted collisions.
    fn hash(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let head = u64::from(self.prev) | u64::from(self.p) << 32 | u64::from(self.time) << 40;
        self.received.iter().fold(mix(0, head), |h, &s| mix(h, u64::from(s)))
    }
}

/// A free index slot.
const EMPTY: u32 = u32::MAX;

/// A [`ViewTable`]'s flat shape storage with its index; see the module
/// docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Store {
    entries: Vec<Entry>,
    /// `bases[s]`: the first view id of shape `s`.
    bases: Vec<u64>,
    received: Vec<u32>,
    /// Entry positions by hash (`EMPTY` where free): linear probing, a power
    /// of two long, at most half full.
    slots: Vec<u32>,
}

impl Store {
    fn key(&self, i: usize) -> Key<'_> {
        let e = &self.entries[i];
        let received = &self.received[e.start as usize..][..usize::from(e.len)];
        Key { p: e.p, time: e.time, prev: e.prev, received }
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

    /// Append a shape that is not yet stored, with the ids from `base` on,
    /// and return its position.
    fn push(&mut self, key: &Key<'_>, hash: u64, heard: PidMask, base: u64) -> usize {
        let i = self.entries.len();
        if 2 * (i + 1) > self.slots.len() {
            self.grow();
        }
        self.entries.push(Entry {
            p: key.p,
            len: key.received.len() as u8,
            time: key.time,
            prev: key.prev,
            start: offset(self.received.len()),
            heard,
        });
        self.bases.push(base);
        self.received.extend_from_slice(key.received);
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

/// A table position as stored in entries and the index.
fn offset(i: usize) -> u32 {
    u32::try_from(i).ok().filter(|&i| i != EMPTY).expect("view table overflow")
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
    /// The inputs of `heard`, as the mixed-radix code of their digits.
    code: u64,
    /// The table's domain: digit `i` is `domain[i]`.
    domain: &'a [Value],
}

impl<'a> ViewData<'a> {
    /// The owner's own input value.
    pub fn own_input(&self) -> Value {
        self.input_of(self.process).expect("owner's input is always known")
    }

    /// The initial value of `q` if `(q, 0, x_q)` is in the causal past.
    pub fn input_of(&self, q: Pid) -> Option<Value> {
        (q < MAX_N && self.has_heard(q)).then(|| {
            let pos = (self.heard & (mask::singleton(q) - 1)).count_ones();
            let radix = self.domain.len() as u64;
            self.domain[((self.code / radix.pow(pos)) % radix) as usize]
        })
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
        self.known_inputs().map(|(_, x)| x).min().expect("view knows its own input")
    }

    /// The known initial values as `(process, value)` pairs sorted by
    /// process: exactly one per member of `heard`.
    pub fn known_inputs(&self) -> impl Iterator<Item = (Pid, Value)> + 'a {
        let (domain, mut code) = (self.domain, self.code);
        let radix = domain.len() as u64;
        mask::iter(self.heard).map(move |q| {
            let x = domain[(code % radix) as usize];
            code /= radix;
            (q, x)
        })
    }
}

/// Interner for shapes, numbering views by arithmetic; see the module docs.
///
/// ```
/// use ptgraph::{ViewTable, ViewId};
/// let mut table = ViewTable::new(2, &[7, 8]);
/// let a = table.intern_initial(0, 7);
/// let b = table.intern_initial(0, 7);
/// let c = table.intern_initial(0, 8);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(table.data(a).own_input(), 7);
/// // One initial shape, two inputs: two ids.
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ViewTable {
    n: usize,
    /// The input domain, sorted and deduplicated: digit `i` is `domain[i]`.
    domain: Box<[Value]>,
    radix: Radix,
    store: Store,
}

/// Structural: equal tables hold the same shapes under the same ids.
impl PartialEq for ViewTable {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.store, &other.store);
        self.n == other.n
            && self.domain == other.domain
            && a.entries == b.entries
            && a.bases == b.bases
            && a.received == b.received
    }
}

impl Eq for ViewTable {}

impl ViewTable {
    /// A fresh table for systems of `n` processes with inputs from
    /// `values` (sorted and deduplicated here).
    ///
    /// # Panics
    /// Panics if `n == 0`, `n > dyngraph::MAX_N`, `values` is empty, or
    /// `|values|^n` (the ids of one fully-heard shape) exceeds `u64`.
    pub fn new(n: usize, values: &[Value]) -> Self {
        assert!((1..=MAX_N).contains(&n));
        let mut domain = values.to_vec();
        domain.sort_unstable();
        domain.dedup();
        assert!(!domain.is_empty(), "empty input domain");
        let radix = domain.len() as u64;
        assert!(
            radix.checked_pow(n as u32).is_some(),
            "{radix} values over {n} processes exceed the view id space"
        );
        ViewTable { n, domain: domain.into(), radix: Radix { radix }, store: Store::default() }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of view ids: every input labeling of every interned shape.
    pub fn len(&self) -> usize {
        usize::try_from(self.ids()).expect("view id space exceeds the address space")
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.entries.is_empty()
    }

    /// The ids handed out so far: the last shape's base plus its ids, and
    /// the next shape's base.
    fn ids(&self) -> u64 {
        let Some((last, base)) = self.store.entries.last().zip(self.store.bases.last()) else {
            return 0;
        };
        base + self.radix.radix.pow(last.heard.count_ones())
    }

    pub(crate) fn radix(&self) -> Radix {
        self.radix
    }

    /// The labels of process `p`'s input `x`, or `None` if `x` is outside
    /// the domain.
    ///
    /// # Panics
    /// Panics if `p ≥ n`.
    pub fn label(&self, p: Pid, x: Value) -> Option<Labels> {
        assert!(p < self.n);
        let digit = self.domain.binary_search(&x).ok()?;
        Some(self.radix.label(p, digit as u64))
    }

    /// The labels of `p`'s input `x`, which must be in the domain.
    fn domain_label(&self, p: Pid, x: Value) -> Labels {
        self.label(p, x)
            .unwrap_or_else(|| panic!("input {x} is outside the table's domain"))
    }

    /// The labels of a full input assignment, one value per process.
    ///
    /// # Panics
    /// Panics if a value is outside the domain or `inputs` is longer than
    /// `n`.
    pub(crate) fn labels(&self, inputs: &[Value]) -> Labels {
        inputs
            .iter()
            .enumerate()
            .fold(Labels::default(), |l, (p, &x)| l | self.domain_label(p, x))
    }

    /// The `heard` mask of a shape.
    fn heard(&self, shape: ShapeId) -> PidMask {
        self.store.entries[shape.index()].heard
    }

    /// The id of the view with shape `shape` and inputs `labels` (only the
    /// digits of the shape's `heard` set are read).
    pub fn view(&self, shape: ShapeId, labels: Labels) -> ViewId {
        let s = shape.index();
        ViewId(self.store.bases[s] + self.radix.rank(self.store.entries[s].heard, labels))
    }

    pub(crate) fn cell(&self, shape: ShapeId) -> Cell {
        let s = shape.index();
        Cell { base: self.store.bases[s], shape, heard: self.store.entries[s].heard }
    }

    /// Intern the shape `key` unless it is stored, reserving
    /// `|V|^|heard|` ids for a new one.
    fn intern(&mut self, key: Key<'_>, heard: impl FnOnce(&Store) -> PidMask) -> ShapeId {
        let hash = key.hash();
        let i = match self.store.find(&key, hash) {
            Some(i) => i,
            None => {
                let heard = heard(&self.store);
                let base = self.ids();
                let ids = self.radix.radix.pow(heard.count_ones());
                assert!(base.checked_add(ids).is_some(), "view table overflow");
                self.store.push(&key, hash, heard, base)
            }
        };
        ShapeId(offset(i))
    }

    /// Intern the time-0 shape of process `p`.
    ///
    /// # Panics
    /// Panics if `p ≥ n`.
    pub fn initial_shape(&mut self, p: Pid) -> ShapeId {
        assert!(p < self.n);
        self.intern(Key { p: p as u8, time: 0, prev: 0, received: &[] }, |_| mask::singleton(p))
    }

    /// Intern the round-`t` shape of process `p` from its previous shape and
    /// the received `(sender, sender's previous shape)` pairs.
    ///
    /// `received` may come in any order. A self-delivery `(p, _)` is
    /// ignored (it is redundant with `prev`), and of several shapes from
    /// one sender only the first counts.
    ///
    /// # Panics
    /// Panics if `prev` does not belong to `p`, if a received shape does not
    /// belong to its claimed sender, or if times are inconsistent.
    pub fn round_shape(
        &mut self,
        p: Pid,
        prev: ShapeId,
        received: impl IntoIterator<Item = (Pid, ShapeId)>,
    ) -> ShapeId {
        // At most one shape per sender, so the list fits `MAX_N` slots.
        let (mut buf, mut len) = ([0u32; MAX_N], 0);
        let entries = &self.store.entries;
        let prev_entry = &entries[prev.index()];
        assert_eq!(usize::from(prev_entry.p), p, "prev view must belong to p");
        let time = prev_entry.time + 1;
        let mut seen: PidMask = 0;
        let mut sorted = true;
        for (q, s) in received {
            if q == p {
                continue;
            }
            let e = &entries[s.index()];
            assert_eq!(usize::from(e.p), q, "received view must belong to its sender");
            assert_eq!(e.time + 1, time, "received view must be from the previous round");
            if !mask::contains(seen, q) {
                sorted &= seen >> q == 0;
                seen |= mask::singleton(q);
                buf[len] = s.0;
                len += 1;
            }
        }
        let received = &mut buf[..len];
        if !sorted {
            received.sort_unstable_by_key(|&s| entries[s as usize].p);
        }
        let key = Key { p: p as u8, time, prev: prev.0, received };
        self.intern(key, |store| {
            let heard = |s: u32| store.entries[s as usize].heard;
            received.iter().fold(heard(prev.0), |h, &s| h | heard(s))
        })
    }

    /// Intern the time-0 view of process `p` with input `x`.
    ///
    /// # Panics
    /// Panics if `p ≥ n` or `x` is outside the domain.
    pub fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        let labels = self.domain_label(p, x);
        let shape = self.initial_shape(p);
        self.view(shape, labels)
    }

    /// Intern the round-`t` view of process `p` from its previous view and
    /// the received `(sender, sender's previous view)` pairs: the shape
    /// through [`round_shape`](Self::round_shape), the inputs merged from
    /// the sources' labels.
    ///
    /// `received` may come in any order. A self-delivery `(p, _)` is
    /// ignored (it is redundant with `prev`), and of several views from
    /// one sender only the first counts.
    ///
    /// # Panics
    /// Panics if `prev` does not belong to `p`, if a received view does not
    /// belong to its claimed sender, if times are inconsistent, or if two
    /// sources disagree on an input (no run holds both).
    pub fn intern_round(
        &mut self,
        p: Pid,
        prev: ViewId,
        received: impl IntoIterator<Item = (Pid, ViewId)>,
    ) -> ViewId {
        let (prev_shape, mut labels) = self.decode(prev);
        let mut heard = self.heard(prev_shape);
        let mut seen: PidMask = 0;
        let mut shapes = Vec::new();
        for (q, v) in received.into_iter().filter(|&(q, _)| q != p) {
            let (shape, other) = self.decode(v);
            if !mask::contains(seen, q) {
                seen |= mask::singleton(q);
                let other_heard = self.heard(shape);
                assert!(
                    self.radix.agree(labels, other, heard & other_heard),
                    "received views disagree on an input"
                );
                labels = labels | other;
                heard |= other_heard;
            }
            shapes.push((q, shape));
        }
        let shape = self.round_shape(p, prev_shape, shapes);
        self.view(shape, labels)
    }

    /// The shape and labels of a view.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    fn decode(&self, id: ViewId) -> (ShapeId, Labels) {
        let (s, code) = self.locate(id);
        (ShapeId(s as u32), self.radix.unrank(self.store.entries[s].heard, code))
    }

    /// The shape position of a view and its rank.
    fn locate(&self, id: ViewId) -> (usize, u64) {
        assert!(id.0 < self.ids(), "{id} is not a view of this table");
        let s = self.store.bases.partition_point(|&b| b <= id.0) - 1;
        (s, id.0 - self.store.bases[s])
    }

    /// Metadata of an interned view.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this table.
    pub fn data(&self, id: ViewId) -> ViewData<'_> {
        let (s, code) = self.locate(id);
        let e = &self.store.entries[s];
        ViewData {
            process: usize::from(e.p),
            time: e.time as usize,
            heard: e.heard,
            code,
            domain: &self.domain,
        }
    }

    /// The `(sender, view)` pairs received in the view's round, sorted by
    /// sender (none for initial views).
    pub fn received(&self, id: ViewId) -> impl ExactSizeIterator<Item = (Pid, ViewId)> + '_ {
        let (shape, labels) = self.decode(id);
        self.store.key(shape.index()).received.iter().map(move |&s| {
            let s = ShapeId(s);
            (usize::from(self.store.entries[s.index()].p), self.view(s, labels))
        })
    }

    /// The previous view of the same process, or `None` for initial views.
    pub fn prev(&self, id: ViewId) -> Option<ViewId> {
        let (shape, labels) = self.decode(id);
        let e = &self.store.entries[shape.index()];
        (e.time > 0).then(|| self.view(ShapeId(e.prev), labels))
    }

    /// Render a view as a nested term, e.g. `p0[p0(x=1) | p1(x=0)←p1]`.
    pub fn render(&self, id: ViewId) -> String {
        let data = self.data(id);
        match self.prev(id) {
            None => format!("p{}(x={})", data.process, data.own_input()),
            Some(prev) => {
                let mut s = format!("p{}[{}", data.process, self.render(prev));
                for (q, v) in self.received(id) {
                    s.push_str(&format!(" | {}←p{q}", self.render(v)));
                }
                s.push(']');
                s
            }
        }
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_views_deduplicate() {
        let mut t = ViewTable::new(3, &[5, 6]);
        let a = t.intern_initial(1, 5);
        let b = t.intern_initial(1, 5);
        assert_eq!(a, b);
        assert_eq!((t.store.entries.len(), t.len()), (1, 2));
        assert_ne!(t.intern_initial(2, 5), a);
        assert_eq!((t.store.entries.len(), t.len()), (2, 4));
    }

    #[test]
    fn domain_is_sorted_and_deduplicated() {
        let t = ViewTable::new(2, &[3, 1, 3, 2]);
        assert_eq!(*t.domain, [1, 2, 3]);
        assert_eq!(t, ViewTable::new(2, &[1, 2, 3]));
    }

    #[test]
    fn ids_are_base_plus_rank() {
        // Over {0, 1, 2}, p1's initial shape takes ids 0..3 and p0's 3..6;
        // p0's round view after hearing p1 takes 9 more, p0's digit lowest.
        let mut t = ViewTable::new(2, &[0, 1, 2]);
        assert_eq!(t.intern_initial(1, 2), ViewId(2));
        let v0 = t.intern_initial(0, 1);
        assert_eq!(v0, ViewId(4));
        let r = t.intern_round(0, v0, [(1, ViewId(2))]);
        assert_eq!(r, ViewId(6 + 1 + 3 * 2));
        assert_eq!(t.len(), 15);
        assert_eq!(t.decode(r), (ShapeId(2), t.labels(&[1, 2])));
    }

    #[test]
    fn round_views_deduplicate_regardless_of_order() {
        let mut t = ViewTable::new(3, &[0, 1]);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_initial(1, 1);
        let v2 = t.intern_initial(2, 0);
        let a = t.intern_round(0, v0, [(1, v1), (2, v2)]);
        let b = t.intern_round(0, v0, [(2, v2), (1, v1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn self_delivery_ignored() {
        let mut t = ViewTable::new(2, &[3]);
        let v0 = t.intern_initial(0, 3);
        let a = t.intern_round(0, v0, [(0, v0)]);
        let b = t.intern_round(0, v0, []);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_accumulates() {
        let mut t = ViewTable::new(3, &[10, 20, 30]);
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
        assert_eq!(d.known_inputs().collect::<Vec<_>>(), [(0, 10), (1, 20)]);
        assert!(d.has_heard(1));
        assert!(!d.has_heard(2));
    }

    #[test]
    fn two_hop_knowledge() {
        let mut t = ViewTable::new(3, &[1, 2, 3]);
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
        let mut t = ViewTable::new(2, &[0, 1]);
        let a0 = t.intern_initial(0, 0);
        let b0 = t.intern_initial(0, 1);
        assert_ne!(a0, b0);
        let a1 = t.intern_round(0, a0, []);
        let b1 = t.intern_round(0, b0, []);
        assert_ne!(a1, b1, "views with different causal pasts never merge");
        assert_eq!(t.store.entries.len(), 2, "but they share their shapes");
    }

    #[test]
    fn shapes_and_labels_agree_with_full_views() {
        let mut t = ViewTable::new(2, &[0, 1]);
        let (s0, s1) = (t.initial_shape(0), t.initial_shape(1));
        let r = t.round_shape(0, s0, [(1, s1)]);
        let x = t.labels(&[1, 0]);
        let v0 = t.intern_initial(0, 1);
        let w0 = t.intern_initial(1, 0);
        assert_eq!(t.view(s0, x), v0);
        assert_eq!(t.view(r, x), t.intern_round(0, v0, [(1, w0)]));
        assert_eq!(t.label(0, 1).zip(t.label(1, 0)).map(|(a, b)| a | b), Some(x));
        assert_eq!(t.label(0, 2), None);
    }

    #[test]
    fn prev_and_received_accessors() {
        let mut t = ViewTable::new(2, &[0, 1]);
        let v0 = t.intern_initial(0, 0);
        let w0 = t.intern_initial(1, 1);
        let r = t.intern_round(0, v0, [(1, w0)]);
        assert_eq!(t.prev(r), Some(v0));
        assert_eq!(t.prev(v0), None);
        assert_eq!(t.received(r).collect::<Vec<_>>(), [(1, w0)]);
        assert_eq!(t.received(v0).len(), 0);
    }

    #[test]
    fn render_nested() {
        let mut t = ViewTable::new(2, &[0, 1]);
        let v0 = t.intern_initial(0, 1);
        let w0 = t.intern_initial(1, 0);
        let r = t.intern_round(0, v0, [(1, w0)]);
        assert_eq!(t.render(r), "p0[p0(x=1) | p1(x=0)←p1]");
    }

    #[test]
    #[should_panic(expected = "prev view must belong to p")]
    fn intern_round_checks_owner() {
        let mut t = ViewTable::new(2, &[0]);
        let v0 = t.intern_initial(0, 0);
        let _ = t.intern_round(1, v0, []);
    }

    #[test]
    #[should_panic(expected = "previous round")]
    fn intern_round_checks_times() {
        let mut t = ViewTable::new(2, &[0]);
        let v0 = t.intern_initial(0, 0);
        let v1 = t.intern_round(0, v0, []);
        let w0 = t.intern_initial(1, 0);
        // w0 is at time 0 but p0's prev is at time 1 → received must be time 1.
        let _ = t.intern_round(0, v1, [(1, w0)]);
    }

    #[test]
    #[should_panic(expected = "disagree on an input")]
    fn intern_round_checks_inputs_agree() {
        let mut t = ViewTable::new(2, &[0, 1]);
        let v0 = t.intern_initial(0, 0);
        let w0 = t.intern_initial(1, 0);
        let other = t.intern_initial(0, 1);
        let w1 = t.intern_round(1, w0, [(0, other)]);
        let v1 = t.intern_round(0, v0, [(1, w0)]);
        // p1's round-1 view knows x_0 = 1; p0's own past says 0.
        let _ = t.intern_round(0, v1, [(1, w1)]);
    }

    #[test]
    #[should_panic(expected = "outside the table's domain")]
    fn inputs_outside_the_domain_are_refused() {
        ViewTable::new(2, &[0, 1]).intern_initial(0, 2);
    }

    #[test]
    #[should_panic(expected = "exceed the view id space")]
    fn oversized_domains_are_refused() {
        // 2^16 values over 4 processes: 2^64 ids for one fully-heard shape.
        let values: Vec<Value> = (0..1 << 16).collect();
        ViewTable::new(4, &values);
    }
}
