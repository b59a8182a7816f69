//! Differential test of the shape interner (seeded, deterministic).
//!
//! Random interning streams run through a [`ViewTable`] and, side by side,
//! through a test-only copy of the `HashMap<ViewKey, ViewId>` interner of
//! full views the flat layout replaced, which numbers views in
//! first-intern order. Streams cover n ∈ {1, 2, 3, 5, 32} over ternary
//! inputs — at n = 32 one fully-heard shape reserves 3^32 ids — and
//! received lists with self-deliveries, unsorted senders and duplicate
//! senders, and replay earlier calls in shuffled order. The sources of a
//! call agree on every input they know, as the views of one run do.
//! Checked:
//!
//! * equal ids ⟺ equal reference ids, call by call, and at the end
//!   `data`, `prev`, `received` and `render` agree for every view;
//! * `len` is the sum of `3^|heard|` over the distinct shapes of the
//!   reference's views, and the table holds exactly those shapes;
//! * a clone equals its source and keeps interning identically;
//! * the index tells every two shapes apart: distinct keys have distinct
//!   hashes, and the key comparison separates shapes that share owner and
//!   previous shape.

use std::collections::HashMap;

use super::*;

/// xorshift64* — tiny, seedable, and stable across toolchains.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The ternary input domain of every stream.
const DOMAIN: [Value; 3] = [0, 1, 2];

/// The structural key of the replaced interner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OldKey {
    Initial {
        p: u8,
        x: Value,
    },
    Round {
        p: u8,
        prev: usize,
        received: Box<[(u8, usize)]>,
    },
}

/// The replaced per-view metadata.
#[derive(Debug)]
struct OldData {
    process: Pid,
    time: usize,
    heard: PidMask,
    known_inputs: Box<[(Pid, Value)]>,
}

/// The replaced interner, as it was except that its two sorts are stable
/// (where duplicate senders meet, its unstable sort left the survivor
/// unspecified, and the table keeps the first). Its ids are first-intern
/// positions.
#[derive(Default)]
struct OldTable {
    index: HashMap<OldKey, usize>,
    data: Vec<OldData>,
    keys: Vec<OldKey>,
}

impl OldTable {
    fn insert(&mut self, key: OldKey, data: OldData) -> usize {
        let id = self.data.len();
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        self.data.push(data);
        id
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> usize {
        let key = OldKey::Initial { p: p as u8, x };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let known_inputs = vec![(p, x)].into_boxed_slice();
        self.insert(key, OldData { process: p, time: 0, heard: mask::singleton(p), known_inputs })
    }

    fn intern_round(&mut self, p: Pid, prev: usize, received: &[(Pid, usize)]) -> usize {
        let t = self.data[prev].time + 1;
        let mut rec: Vec<(u8, usize)> =
            received.iter().filter(|&&(q, _)| q != p).map(|&(q, v)| (q as u8, v)).collect();
        rec.sort_by_key(|&(q, _)| q);
        rec.dedup_by_key(|&mut (q, _)| q);
        let key = OldKey::Round { p: p as u8, prev, received: rec.clone().into_boxed_slice() };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let mut heard = self.data[prev].heard;
        let mut known: Vec<(Pid, Value)> = self.data[prev].known_inputs.to_vec();
        for &(_, v) in &rec {
            heard |= self.data[v].heard;
            known.extend(self.data[v].known_inputs.iter().copied());
        }
        known.sort_by_key(|&(q, _)| q);
        known.dedup_by_key(|&mut (q, _)| q);
        let known_inputs = known.into_boxed_slice();
        self.insert(key, OldData { process: p, time: t, heard, known_inputs })
    }

    fn render(&self, id: usize) -> String {
        match &self.keys[id] {
            OldKey::Initial { p, x } => format!("p{p}(x={x})"),
            OldKey::Round { p, prev, received } => {
                let mut s = format!("p{p}[{}", self.render(*prev));
                for &(q, vid) in received.iter() {
                    s.push_str(&format!(" | {}←p{q}", self.render(vid)));
                }
                s.push(']');
                s
            }
        }
    }

    /// The shape of every view (its key with the inputs erased, numbered
    /// by first occurrence) and the `heard` set of every shape.
    fn shapes(&self) -> (Vec<usize>, Vec<PidMask>) {
        // A shape key: owner, previous shape, received (sender, shape) pairs.
        type ShapeKey = (u8, Option<usize>, Vec<(u8, usize)>);
        let mut index: HashMap<ShapeKey, usize> = HashMap::new();
        let (mut of_view, mut heard) = (Vec::new(), Vec::new());
        for (key, data) in self.keys.iter().zip(&self.data) {
            let shape_key = match key {
                OldKey::Initial { p, .. } => (*p, None, Vec::new()),
                OldKey::Round { p, prev, received } => {
                    let received = received.iter().map(|&(q, v)| (q, of_view[v])).collect();
                    (*p, Some(of_view[*prev]), received)
                }
            };
            let fresh = index.len();
            let shape = *index.entry(shape_key).or_insert(fresh);
            if shape == fresh {
                heard.push(data.heard);
            }
            of_view.push(shape);
        }
        (of_view, heard)
    }
}

/// One interning call, in terms of the stream's own table.
#[derive(Debug, Clone)]
enum Call {
    Initial(Pid, Value),
    Round(Pid, ViewId, Vec<(Pid, ViewId)>),
}

/// A random stream over `n` processes whose views reach at most time
/// `max_time`.
struct Stream {
    n: usize,
    max_time: usize,
    table: ViewTable,
    oracle: OldTable,
    /// The reference id of each table id, and the other way round.
    to_old: HashMap<ViewId, usize>,
    to_new: Vec<ViewId>,
    /// `by_time[t][p]`: the distinct views of `p` at time `t`.
    by_time: Vec<Vec<Vec<ViewId>>>,
    log: Vec<Call>,
    /// The inputs most initial calls use, so that sources agreeing on
    /// many inputs, and hence wide views, are common.
    world: Vec<Value>,
}

impl Stream {
    fn new(n: usize, max_time: usize, rng: &mut Rng) -> Self {
        Stream {
            world: (0..n).map(|_| rng.pick(&DOMAIN)).collect(),
            n,
            max_time,
            table: ViewTable::new(n, &DOMAIN),
            oracle: OldTable::default(),
            to_old: HashMap::new(),
            to_new: Vec::new(),
            by_time: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The known inputs of a view, by process.
    fn known(&self, v: ViewId) -> &[(Pid, Value)] {
        &self.oracle.data[self.to_old[&v]].known_inputs
    }

    /// A random view of `q` at level `t` that agrees with `known` on every
    /// input both know, merged into `known`; `None` if there is none.
    fn pick_agreeing(
        &self,
        rng: &mut Rng,
        t: usize,
        q: Pid,
        known: &mut HashMap<Pid, Value>,
    ) -> Option<ViewId> {
        let agrees =
            |v: &&ViewId| self.known(**v).iter().all(|(r, x)| known.get(r).is_none_or(|y| y == x));
        let candidates: Vec<ViewId> = self.by_time[t][q].iter().filter(agrees).copied().collect();
        let v = *candidates.get(rng.below(candidates.len().max(1)))?;
        known.extend(self.known(v).iter().copied());
        Some(v)
    }

    fn random_call(&self, rng: &mut Rng) -> Call {
        let rounds = self.log.iter().filter(|c| matches!(c, Call::Round(..))).count();
        if rounds > 0 && rng.below(5) == 0 {
            // Replay an earlier round call, shuffled: it must hit.
            let mut replays = self.log.iter().filter(|c| matches!(c, Call::Round(..)));
            if let Some(Call::Round(p, prev, received)) = replays.nth(rng.below(rounds)) {
                let mut received = received.clone();
                rng.shuffle(&mut received);
                return Call::Round(*p, *prev, received);
            }
        }
        let times = self.by_time.len().min(self.max_time);
        if times == 0 || rng.below(8) == 0 {
            let p = rng.below(self.n);
            let x = if rng.below(3) == 0 {
                rng.pick(&DOMAIN)
            } else {
                self.world[p]
            };
            return Call::Initial(p, x);
        }
        let t = rng.below(times);
        let level = &self.by_time[t];
        let owners: Vec<Pid> = (0..self.n).filter(|&p| !level[p].is_empty()).collect();
        let p = rng.pick(&owners);
        let prev = rng.pick(&level[p]);
        let mut known: HashMap<Pid, Value> = self.known(prev).iter().copied().collect();
        let mut received: Vec<(Pid, ViewId)> = Vec::new();
        for &q in &owners {
            if q != p && rng.below(2) == 0 {
                received.extend(self.pick_agreeing(rng, t, q, &mut known).map(|v| (q, v)));
            }
        }
        for _ in 0..rng.below(3) {
            if !received.is_empty() {
                let (q, _) = rng.pick(&received);
                received.extend(self.pick_agreeing(rng, t, q, &mut known).map(|v| (q, v)));
            }
        }
        if rng.below(3) == 0 {
            // A self-delivery is ignored, whatever it knows.
            received.push((p, rng.pick(&level[p])));
        }
        rng.shuffle(&mut received);
        Call::Round(p, prev, received)
    }

    /// Run `call` through the table and the oracle; their ids must
    /// correspond one to one.
    fn apply(&mut self, call: Call) -> ViewId {
        let (id, old) = match &call {
            Call::Initial(p, x) => {
                (self.table.intern_initial(*p, *x), self.oracle.intern_initial(*p, *x))
            }
            Call::Round(p, prev, received) => {
                let old_received: Vec<(Pid, usize)> =
                    received.iter().map(|&(q, v)| (q, self.to_old[&v])).collect();
                (
                    self.table.intern_round(*p, *prev, received.iter().copied()),
                    self.oracle.intern_round(*p, self.to_old[prev], &old_received),
                )
            }
        };
        let at = format!("n={} call {}: {call:?}", self.n, self.log.len());
        if old == self.to_new.len() {
            assert!(self.to_old.insert(id, old).is_none(), "{at}: a new view reuses {id}");
            self.to_new.push(id);
            let d = self.table.data(id);
            if self.by_time.len() == d.time {
                self.by_time.push(vec![Vec::new(); self.n]);
            }
            self.by_time[d.time][d.process].push(id);
        } else {
            assert_eq!(id, self.to_new[old], "{at}: a known view got another id");
        }
        self.log.push(call);
        id
    }

    /// Every view's accessors agree with the oracle's, and the id space is
    /// the sum over the oracle's shapes.
    fn assert_matches_oracle(&self) {
        let (table, old) = (&self.table, &self.oracle);
        for (i, o) in old.data.iter().enumerate() {
            let id = self.to_new[i];
            let d = table.data(id);
            let at = format!("n={} {id}", self.n);
            assert_eq!((d.process, d.time, d.heard), (o.process, o.time, o.heard), "{at}");
            assert_eq!(d.known_inputs().collect::<Vec<_>>(), o.known_inputs.to_vec(), "{at}");
            let (prev, received): (Option<ViewId>, Vec<(Pid, ViewId)>) = match &old.keys[i] {
                OldKey::Initial { .. } => (None, Vec::new()),
                OldKey::Round { prev, received, .. } => (
                    Some(self.to_new[*prev]),
                    received.iter().map(|&(q, v)| (usize::from(q), self.to_new[v])).collect(),
                ),
            };
            assert_eq!(table.prev(id), prev, "{at}");
            assert_eq!(table.received(id).collect::<Vec<_>>(), received, "{at}");
            assert_eq!(table.render(id), old.render(i), "{at}");
            let (shape, labels) = table.decode(id);
            assert_eq!(table.view(shape, labels), id, "{at}");
        }
        let (_, heard) = old.shapes();
        let ids = heard.iter().map(|h| 3u64.pow(h.count_ones())).sum::<u64>();
        assert_eq!(
            (table.store.entries.len(), table.len() as u64),
            (heard.len(), ids),
            "n={}",
            self.n
        );
    }
}

/// The index separates every two shapes: no two keys share a hash, and the
/// key comparison tells apart shapes with one owner, time and previous
/// shape.
fn assert_index_separates(table: &ViewTable) {
    let store = &table.store;
    let shapes = store.entries.len();
    let mut hashes: Vec<(u64, usize)> = (0..shapes).map(|i| (store.key(i).hash(), i)).collect();
    hashes.sort_unstable();
    for w in hashes.windows(2) {
        assert_ne!(w[0].0, w[1].0, "shapes {} and {} share a hash", w[0].1, w[1].1);
    }
    let mut groups: HashMap<(u8, u32, u32), Vec<usize>> = HashMap::new();
    for i in 0..shapes {
        let k = store.key(i);
        groups.entry((k.p, k.time, k.prev)).or_default().push(i);
    }
    for group in groups.values() {
        for (x, &a) in group.iter().enumerate() {
            for &b in &group[x + 1..] {
                assert!(store.key(a) != store.key(b), "shapes {a} and {b} compare equal");
            }
        }
    }
}

#[test]
fn flat_interner_matches_hashmap_oracle() {
    let mut rng = Rng(0x1a7e_5eed_f1a7_0001);
    let mut hits = 0usize;
    let mut widest = 0u32;
    for (n, max_time, calls, streams) in
        [(1, 4, 40, 4), (2, 5, 300, 10), (3, 5, 300, 10), (5, 3, 300, 8), (32, 3, 400, 4)]
    {
        for _ in 0..streams {
            let mut stream = Stream::new(n, max_time, &mut rng);
            for _ in 0..calls {
                let call = stream.random_call(&mut rng);
                let views = stream.oracle.data.len();
                let id = stream.apply(call);
                hits += usize::from(stream.oracle.data.len() == views);
                widest = widest.max(stream.table.data(id).heard.count_ones());
            }
            stream.assert_matches_oracle();
            assert_index_separates(&stream.table);

            // A clone equals its source and keeps interning identically.
            let mut copy = stream.table.clone();
            assert!(copy == stream.table, "n={n}: clone differs");
            for _ in 0..calls / 4 {
                let call = stream.random_call(&mut rng);
                let id = stream.apply(call.clone());
                let copied = match call {
                    Call::Initial(p, x) => copy.intern_initial(p, x),
                    Call::Round(p, prev, received) => copy.intern_round(p, prev, received),
                };
                assert_eq!(copied, id, "n={n}: clone interned differently");
            }
            assert!(copy == stream.table, "n={n}: clone diverged");
            stream.assert_matches_oracle();
        }
    }
    assert!(hits > 1000, "streams should revisit known views; {hits} hits");
    // Past 20 heard processes, one shape's 3^|heard| ids overflow 32 bits.
    assert!(widest > 20, "the widest view heard only {widest} processes");
}
