//! Differential test of the flat interner (seeded, deterministic).
//!
//! Random interning streams run through a [`ViewTable`] and, side by side,
//! through a test-only copy of the `HashMap<ViewKey, ViewId>` interner the
//! flat layout replaced. Streams cover n ∈ {1, 2, 3, 5, 32} and received
//! lists with self-deliveries, unsorted senders and duplicate senders, and
//! replay earlier calls in shuffled order. Checked:
//!
//! * every call returns the oracle's id, and at the end `len`, `data`,
//!   `prev`, `received` and `render` agree for every view;
//! * a clone equals its source and keeps interning identically;
//! * the index tells every two views apart: distinct keys have distinct
//!   hashes, and the key comparison separates views that share owner and
//!   `prev`.

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

/// The structural key of the replaced interner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OldKey {
    Initial {
        p: u8,
        x: Value,
    },
    Round {
        p: u8,
        prev: ViewId,
        received: Box<[(u8, ViewId)]>,
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

/// The replaced interner, as it was except that its two sorts are stable:
/// where duplicates meet (two views from one sender, or sources that
/// disagree on an input) its unstable sorts left the survivor unspecified,
/// and the flat table keeps the first.
#[derive(Default)]
struct OldTable {
    index: HashMap<OldKey, ViewId>,
    data: Vec<OldData>,
    keys: Vec<OldKey>,
}

impl OldTable {
    fn insert(&mut self, key: OldKey, data: OldData) -> ViewId {
        let id = ViewId::from_index(self.data.len());
        self.index.insert(key.clone(), id);
        self.keys.push(key);
        self.data.push(data);
        id
    }

    fn intern_initial(&mut self, p: Pid, x: Value) -> ViewId {
        let key = OldKey::Initial { p: p as u8, x };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let known_inputs = vec![(p, x)].into_boxed_slice();
        self.insert(key, OldData { process: p, time: 0, heard: mask::singleton(p), known_inputs })
    }

    fn intern_round(&mut self, p: Pid, prev: ViewId, received: &[(Pid, ViewId)]) -> ViewId {
        let t = self.data[prev.index()].time + 1;
        let mut rec: Vec<(u8, ViewId)> =
            received.iter().filter(|&&(q, _)| q != p).map(|&(q, v)| (q as u8, v)).collect();
        rec.sort_by_key(|&(q, _)| q);
        rec.dedup_by_key(|&mut (q, _)| q);
        let key = OldKey::Round { p: p as u8, prev, received: rec.clone().into_boxed_slice() };
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let mut heard = self.data[prev.index()].heard;
        let mut known: Vec<(Pid, Value)> = self.data[prev.index()].known_inputs.to_vec();
        for &(_, v) in &rec {
            heard |= self.data[v.index()].heard;
            known.extend(self.data[v.index()].known_inputs.iter().copied());
        }
        known.sort_by_key(|&(q, _)| q);
        known.dedup_by_key(|&mut (q, _)| q);
        let known_inputs = known.into_boxed_slice();
        self.insert(key, OldData { process: p, time: t, heard, known_inputs })
    }

    fn render(&self, id: ViewId) -> String {
        match &self.keys[id.index()] {
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
    /// `by_time[t][p]`: the distinct views of `p` at time `t`.
    by_time: Vec<Vec<Vec<ViewId>>>,
    log: Vec<Call>,
}

impl Stream {
    fn new(n: usize, max_time: usize) -> Self {
        let table = ViewTable::new(n);
        Stream {
            n,
            max_time,
            table,
            oracle: OldTable::default(),
            by_time: Vec::new(),
            log: Vec::new(),
        }
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
            return Call::Initial(rng.below(self.n), rng.below(3) as Value);
        }
        let t = rng.below(times);
        let level = &self.by_time[t];
        let owners: Vec<Pid> = (0..self.n).filter(|&p| !level[p].is_empty()).collect();
        let p = rng.pick(&owners);
        let prev = rng.pick(&level[p]);
        let mut received: Vec<(Pid, ViewId)> = Vec::new();
        for &q in &owners {
            if q != p && rng.below(2) == 0 {
                received.push((q, rng.pick(&level[q])));
            }
        }
        for _ in 0..rng.below(3) {
            if !received.is_empty() {
                let (q, _) = rng.pick(&received);
                received.push((q, rng.pick(&level[q])));
            }
        }
        if rng.below(3) == 0 {
            received.push((p, rng.pick(&level[p])));
        }
        rng.shuffle(&mut received);
        Call::Round(p, prev, received)
    }

    /// Run `call` through the table and the oracle; they must agree.
    fn apply(&mut self, call: Call) -> ViewId {
        let fresh = self.table.len();
        let (id, old) = match &call {
            Call::Initial(p, x) => {
                (self.table.intern_initial(*p, *x), self.oracle.intern_initial(*p, *x))
            }
            Call::Round(p, prev, received) => (
                self.table.intern_round(*p, *prev, received.iter().copied()),
                self.oracle.intern_round(*p, *prev, received),
            ),
        };
        assert_eq!(id, old, "n={} call {}: {call:?}", self.n, self.log.len());
        if id.index() == fresh {
            let d = self.table.data(id);
            if self.by_time.len() == d.time {
                self.by_time.push(vec![Vec::new(); self.n]);
            }
            self.by_time[d.time][d.process].push(id);
        }
        self.log.push(call);
        id
    }

    /// Every view's accessors agree with the oracle's.
    fn assert_matches_oracle(&self) {
        let (table, old) = (&self.table, &self.oracle);
        assert_eq!(table.len(), old.data.len(), "n={}", self.n);
        for (i, o) in old.data.iter().enumerate() {
            let id = ViewId::from_index(i);
            let d = table.data(id);
            let at = format!("n={} {id}", self.n);
            assert_eq!((d.process, d.time, d.heard), (o.process, o.time, o.heard), "{at}");
            assert_eq!(d.known_inputs().collect::<Vec<_>>(), o.known_inputs.to_vec(), "{at}");
            let (prev, received): (Option<ViewId>, &[(u8, ViewId)]) = match &old.keys[i] {
                OldKey::Initial { .. } => (None, &[]),
                OldKey::Round { prev, received, .. } => (Some(*prev), received),
            };
            assert_eq!(table.prev(id), prev, "{at}");
            assert_eq!(table.received(id), received, "{at}");
            assert_eq!(table.render(id), old.render(id), "{at}");
        }
    }
}

/// The index separates every two views: no two keys share a hash, and the
/// key comparison tells apart views with one owner, time and `prev`.
fn assert_index_separates(table: &ViewTable) {
    let store = &table.store;
    let mut hashes: Vec<(u64, usize)> =
        (0..store.len()).map(|i| (store.key(i).hash(), i)).collect();
    hashes.sort_unstable();
    for w in hashes.windows(2) {
        assert_ne!(w[0].0, w[1].0, "views {} and {} share a hash", w[0].1, w[1].1);
    }
    let mut groups: HashMap<(u8, u32, u32), Vec<usize>> = HashMap::new();
    for i in 0..store.len() {
        let k = store.key(i);
        groups.entry((k.p, k.time, k.head)).or_default().push(i);
    }
    for group in groups.values() {
        for (x, &a) in group.iter().enumerate() {
            for &b in &group[x + 1..] {
                assert!(store.key(a) != store.key(b), "views {a} and {b} compare equal");
            }
        }
    }
}

#[test]
fn flat_interner_matches_hashmap_oracle() {
    let mut rng = Rng(0x1a7e_5eed_f1a7_0001);
    let mut hits = 0usize;
    for (n, max_time, calls, streams) in
        [(1, 4, 40, 4), (2, 5, 300, 10), (3, 5, 300, 10), (5, 3, 300, 8), (32, 2, 160, 4)]
    {
        for _ in 0..streams {
            let mut stream = Stream::new(n, max_time);
            for _ in 0..calls {
                let call = stream.random_call(&mut rng);
                let len = stream.table.len();
                stream.apply(call);
                hits += usize::from(stream.table.len() == len);
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
}
