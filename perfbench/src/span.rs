//! The benchmark's own span recorder (the program's tracer stays off).
//!
//! Spans are kept in memory: name, operation id (the scenario or request
//! they belong to), parent, start and end. A span's *self time* is its
//! duration minus the part covered by its child spans. The recorder is
//! single-threaded (`RefCell`): traced passes drive one operation at a
//! time, so the stack of open spans is the causal chain.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    child_ns: u64,
}

#[derive(Debug)]
struct Inner {
    recs: Vec<Rec>,
    stack: Vec<usize>,
    op: u64,
}

/// An in-memory span recorder; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    inner: RefCell<Inner>,
}

/// An open span; closes (and is recorded) on drop.
#[must_use]
pub struct Span<'a> {
    rec: &'a Recorder,
    index: usize,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let now = self.rec.now_ns();
        let mut inner = self.rec.inner.borrow_mut();
        let popped = inner.stack.pop();
        debug_assert_eq!(popped, Some(self.index), "spans must close in LIFO order");
        let rec = &mut inner.recs[self.index];
        rec.dur_ns = now - rec.start_ns;
        let (dur, parent) = (rec.dur_ns, rec.parent);
        if let Some(parent) = parent {
            inner.recs[parent].child_ns += dur;
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            inner: RefCell::new(Inner { recs: Vec::new(), stack: Vec::new(), op: 0 }),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag the spans opened from now on with operation id `op`.
    pub fn set_op(&self, op: u64) {
        self.inner.borrow_mut().op = op;
    }

    pub fn span(&self, name: &'static str) -> Span<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        let index = inner.recs.len();
        inner.recs.push(Rec { name, op, parent, start_ns, dur_ns: 0, child_ns: 0 });
        inner.stack.push(index);
        Span { rec: self, index }
    }

    /// Record an already-measured interval, ending now, as a closed leaf
    /// span under the innermost open span.
    pub fn leaf(&self, name: &'static str, dur_ns: u64) {
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let op = inner.op;
        let start_ns = end.saturating_sub(dur_ns);
        inner.recs.push(Rec { name, op, parent, start_ns, dur_ns, child_ns: 0 });
        if let Some(parent) = parent {
            inner.recs[parent].child_ns += dur_ns;
        }
    }

    /// Per-name aggregates over every closed span.
    pub fn summary(&self) -> Summary {
        let inner = self.inner.borrow();
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for rec in &inner.recs {
            let agg = by_name.entry(rec.name).or_default();
            agg.calls += 1;
            agg.self_ns += rec.dur_ns.saturating_sub(rec.child_ns);
            durations.entry(rec.name).or_default().push(rec.dur_ns as f64);
        }
        for (name, samples) in durations {
            by_name.entry(name).or_default().median_ns = crate::stats::median(&samples);
        }
        Summary { by_name }
    }

    /// Write every span as one JSON line (`span`, `op`, `id`, `parent`,
    /// `start_us`, `dur_us`, `self_us`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, rec) in self.inner.borrow().recs.iter().enumerate() {
            let parent = rec.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"op\":{},\"id\":{id},\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                rec.name,
                rec.op,
                rec.start_ns as f64 / 1e3,
                rec.dur_ns as f64 / 1e3,
                rec.dur_ns.saturating_sub(rec.child_ns) as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub calls: usize,
    pub self_ns: u64,
    /// Median whole-span duration.
    pub median_ns: f64,
}

/// Aggregated spans by name.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, Agg>,
}

impl Summary {
    pub fn calls(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |a| a.calls)
    }

    /// Summed self time in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e6)
    }

    /// Median whole-span duration per call, in µs (0 without calls).
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |a| a.median_ns / 1e3)
    }
}
