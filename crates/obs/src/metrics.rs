//! Lock-free named metrics: counters, gauges, and log-bucketed
//! histograms, plus the process-global [`Registry`].
//!
//! # Histogram buckets
//!
//! [`Histogram`] buckets `u64` samples (conventionally **nanoseconds**)
//! into a log-linear layout: four sub-buckets per power of two, so any
//! quantile estimate is off by at most one sub-bucket width — ≤ 25%
//! relative error — while the whole `u64` range fits in 253 fixed
//! buckets of one `AtomicU64` each. Values `0..=4` get exact buckets,
//! and every bucket *upper bound* is exactly representable: a histogram
//! fed only bucket-boundary values reports exact quantiles (see the
//! bucket-boundary test). Every process uses the same fixed bounds, so
//! two snapshots merge exactly by adding counts per bound
//! ([`RegistrySnapshot::merge`]) — the service merges its own registry
//! with the process one that way, and the cluster coordinator folds its
//! workers' snapshots the same way.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets covering all of `u64`.
pub const NUM_BUCKETS: usize = 253;

/// The bucket index for a sample: `0 → 0`, `1..=4` exact, then four
/// sub-buckets per octave `(2^m, 2^{m+1}]`.
fn bucket_index(v: u64) -> usize {
    if v <= 4 {
        return v as usize;
    }
    // v ≥ 5 ⇒ v − 1 ≥ 4 ⇒ m = ⌊log₂(v−1)⌋ ≥ 2, and 2^m < v ≤ 2^{m+1}.
    let m = 63 - (v - 1).leading_zeros() as usize;
    let width = 1u64 << (m - 2);
    let sub = (v - (1u64 << m)).div_ceil(width); // 1..=4
    4 + (m - 2) * 4 + sub as usize
}

/// The inclusive upper bound of bucket `idx` (saturating at `u64::MAX`
/// for the last bucket, whose true bound is 2^64).
pub fn bucket_bound(idx: usize) -> u64 {
    if idx <= 4 {
        return idx as u64;
    }
    let off = idx - 5;
    let m = 2 + off / 4;
    let sub = (off % 4 + 1) as u64;
    let base = 1u64 << m;
    let width = 1u64 << (m - 2);
    base.saturating_add(sub * width)
}

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge: a value that can move both ways (queue depths,
/// hit rates in percent, loaded-entry counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Replace the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one (a connection opened, an item queued).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one; pairs with an earlier [`inc`](Gauge::inc).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram over `u64` samples; see the
/// [module docs](self) for the bucket layout.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping only past ~584 years of nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-⌈q·count⌉ sample; `0` on an empty histogram.
    /// Exact when samples sit on bucket bounds, ≤ 25% high otherwise.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                return bucket_bound(idx);
            }
        }
        self.max() // racing writers bumped buckets after `count` was read
    }

    /// An immutable snapshot (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bound(idx), n));
            }
        }
        HistogramSnapshot { count: self.count(), sum: self.sum(), max: self.max(), buckets }
    }
}

/// A point-in-time copy of a [`Histogram`]: `(bucket upper bound, count)`
/// pairs for the non-empty buckets, in increasing bound order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Non-empty `(upper bound, count)` buckets, increasing.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile of the snapshot (same semantics as
    /// [`Histogram::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(bound, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return bound;
            }
        }
        self.max
    }
}

/// Named metric handles, shared process-wide: layers ask for a metric by
/// name ([`Registry::counter`] & co.) and get the same `Arc`-shared
/// instance every time — register-once semantics without init ordering.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

static REGISTRY: Registry = Registry::new();

/// The process-global [`Registry`].
pub fn registry() -> &'static Registry {
    &REGISTRY
}

impl Registry {
    /// An empty registry (the global one is created this way; tests may
    /// build private ones).
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time snapshot of every metric, name-sorted (the
    /// `BTreeMap` order) so renderings are deterministic.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        RegistrySnapshot { counters, gauges, histograms }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// A name-sorted point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The union of two snapshots, name-sorted: counters add, histograms
    /// merge bucket-wise (exact — the snapshot of one histogram fed both
    /// sample sets: counts, sums and per-bound counts add, the max is the
    /// larger), and a gauge present in both keeps the larger value, since
    /// levels such as a hit rate do not add. Commutative and associative,
    /// so a fleet folds in any order. Sums wrap as the live atomics do,
    /// so a decoded snapshot from another process cannot make it panic.
    pub fn merge(&self, other: &RegistrySnapshot) -> RegistrySnapshot {
        fn union<T: Clone>(
            a: &[(String, T)],
            b: &[(String, T)],
            join: impl Fn(&T, &T) -> T,
        ) -> Vec<(String, T)> {
            let mut merged: BTreeMap<String, T> = a.iter().cloned().collect();
            for (name, value) in b {
                merged
                    .entry(name.clone())
                    .and_modify(|mine| *mine = join(mine, value))
                    .or_insert_with(|| value.clone());
            }
            merged.into_iter().collect()
        }
        RegistrySnapshot {
            counters: union(&self.counters, &other.counters, |a, b| a.wrapping_add(*b)),
            gauges: union(&self.gauges, &other.gauges, |a, b| *a.max(b)),
            histograms: union(&self.histograms, &other.histograms, |a, b| {
                let mut buckets: BTreeMap<u64, u64> = a.buckets.iter().copied().collect();
                for &(bound, n) in &b.buckets {
                    let slot = buckets.entry(bound).or_default();
                    *slot = slot.wrapping_add(n);
                }
                HistogramSnapshot {
                    count: a.count.wrapping_add(b.count),
                    sum: a.sum.wrapping_add(b.sum),
                    max: a.max.max(b.max),
                    buckets: buckets.into_iter().collect(),
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bound_are_inverse_enough() {
        // Every value lands in a bucket whose bound is ≥ it and whose
        // predecessor's bound is < it.
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 1_000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(bucket_bound(idx) >= v, "bound({idx}) < {v}");
            if idx > 0 {
                assert!(bucket_bound(idx - 1) < v, "bound({}) ≥ {v}", idx - 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // A histogram fed only bucket upper bounds reports those very
        // values back as quantiles: boundary samples lose nothing.
        for idx in 0..NUM_BUCKETS - 1 {
            let bound = bucket_bound(idx);
            assert_eq!(bucket_index(bound), idx, "bound {bound} must map to its own bucket");
        }
        let h = Histogram::new();
        let bounds = [1u64, 4, 8, 16, 1024, 1536];
        for &b in &bounds {
            assert_eq!(bucket_bound(bucket_index(b)), b, "{b} is a boundary");
            h.record(b);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(1.0), 1536);
        assert_eq!(h.max(), 1536);
        assert_eq!(h.sum(), bounds.iter().sum::<u64>());
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in (5u64..10_000).step_by(7) {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            assert!((bound - v) as f64 <= 0.25 * v as f64, "error at {v}: bound {bound}");
        }
    }

    #[test]
    fn concurrent_increments_are_exact_under_8_threads() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t as u64 * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS as u64 * PER_THREAD);
        let expected_sum: u64 = (0..THREADS as u64 * PER_THREAD).sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.max(), THREADS as u64 * PER_THREAD - 1);
        let total: u64 = h.snapshot().buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, h.count(), "no increment may be lost");
    }

    #[test]
    fn quantiles_interleave_ranks_correctly() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!((90..=112).contains(&p90), "p90 = {p90}");
        assert!((99..=124).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p90 && p90 <= p99);
        assert_eq!(h.quantile(1.0), bucket_bound(bucket_index(100)));
    }

    #[test]
    fn registry_hands_out_shared_instances_sorted() {
        let registry = Registry::new();
        registry.counter("b.count").add(2);
        registry.counter("a.count").inc();
        registry.counter("b.count").inc(); // the same instance again
        registry.gauge("z.gauge").set(7);
        registry.histogram("lat").record(5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("a.count".to_string(), 1), ("b.count".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("z.gauge".to_string(), 7)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    fn fill(registry: &Registry, name: &str, samples: &[u64]) {
        let h = registry.histogram(name);
        for &s in samples {
            h.record(s);
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = Registry::new();
        fill(&a, "lat", &[1, 5, 9, 1000, 12345]);
        fill(&a, "only.a", &[7]);
        a.counter("hits").add(3);
        a.gauge("level").set(4);
        let b = Registry::new();
        fill(&b, "lat", &[2, 5, 777, 1 << 30]);
        b.counter("hits").add(5);
        b.counter("only.b").inc();
        b.gauge("level").set(9);
        let c = Registry::new();
        fill(&c, "lat", &[0, 3, 4, 999_999_999, u64::MAX]);
        c.gauge("other").set(1);
        let (a, b, c) = (a.snapshot(), b.snapshot(), c.snapshot());
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&c).merge(&b), c.merge(&b).merge(&a));
        // The union keeps every name, sorted.
        let all = a.merge(&b).merge(&c);
        let names: Vec<&str> = all.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["lat", "only.a"]);
        assert_eq!(all.gauges, vec![("level".to_string(), 9), ("other".to_string(), 1)]);
        // Merging with an empty snapshot changes nothing.
        assert_eq!(a.merge(&Registry::new().snapshot()), a);
    }

    #[test]
    fn merge_is_exact() {
        // Split one sample set across three registries: the merged
        // snapshot equals the snapshot of one histogram fed every sample.
        let samples: Vec<u64> = (0..2_000u64).map(|i| i * i * 7919 % 10_000_019).collect();
        let whole = Registry::new();
        fill(&whole, "lat", &samples);
        let parts: Vec<RegistrySnapshot> = samples
            .chunks(700)
            .map(|chunk| {
                let part = Registry::new();
                fill(&part, "lat", chunk);
                part.snapshot()
            })
            .collect();
        let merged = parts[0].merge(&parts[1]).merge(&parts[2]);
        let (whole, merged) = (&whole.snapshot().histograms[0].1, &merged.histograms[0].1);
        assert_eq!(merged, whole, "count, sum, max and buckets");
        assert_eq!(merged.count, samples.len() as u64);
        assert_eq!(merged.max, *samples.iter().max().unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn merge_adds_counters_and_does_not_sum_gauges() {
        let a = Registry::new();
        a.counter("requests").add(2);
        a.gauge("active").set(3);
        let b = Registry::new();
        b.counter("requests").add(5);
        b.gauge("active").set(2);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.counters, vec![("requests".to_string(), 7)]);
        assert_eq!(merged.gauges, vec![("active".to_string(), 3)], "the larger level, not 5");
    }

    #[test]
    fn snapshot_quantile_matches_histogram_quantile() {
        let h = Histogram::new();
        for v in [3u64, 17, 98, 1024, 70_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), h.quantile(q), "q = {q}");
        }
    }
}
