//! Structured shard-lifecycle events: one JSON object per line on a
//! caller-supplied sink (`--events-out`), emitted **live** as the
//! coordinator works — `dispatched`, `completed`, `retried`,
//! `rebalanced`, and `audited` — so an operator tailing the file sees
//! a sweep's robustness story as it happens instead of reconstructing
//! it from counters afterwards.
//!
//! The sink is shared by the per-worker dispatch threads, so it locks a
//! writer per line and flushes eagerly: a worker killed mid-sweep (the
//! CI smoke test does exactly this) must not take buffered `retried`/
//! `rebalanced` lines down with it.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use consensus_lab::json::Value;

/// A thread-safe JSONL event sink shared by the coordinator's dispatch
/// threads. Every line is `{"event":"cluster.<kind>", ...fields}`.
pub struct EventSink {
    out: Mutex<Box<dyn Write + Send>>,
    emitted: AtomicUsize,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("emitted", &self.emitted())
            .finish_non_exhaustive()
    }
}

impl EventSink {
    /// Wrap a writer (a file opened for `--events-out`, or
    /// [`std::io::sink`] when only the count matters).
    pub fn new(out: Box<dyn Write + Send>) -> EventSink {
        EventSink { out: Mutex::new(out), emitted: AtomicUsize::new(0) }
    }

    /// Emit one event line. `kind` is the bare lifecycle name
    /// (`"dispatched"`, `"retried"`, …); it is prefixed with
    /// `cluster.` on the wire. I/O failures are swallowed — events are
    /// observability, and a full disk must not kill a sweep.
    pub fn emit(&self, kind: &str, fields: Vec<(String, Value)>) {
        let mut obj = vec![("event".to_string(), Value::Str(format!("cluster.{kind}")))];
        obj.extend(fields);
        let line = Value::Obj(obj).to_string();
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let mut out = self.out.lock().expect("event sink poisoned");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    /// Events emitted so far (the `events_emitted` bench counter).
    pub fn emitted(&self) -> usize {
        self.emitted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handing its bytes to a shared buffer, so the test can
    /// read back what concurrent emitters wrote.
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_are_whole_json_lines_even_under_concurrency() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::new(Box::new(Shared(Arc::clone(&buf))));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    for shard in 0..8 {
                        sink.emit(
                            "dispatched",
                            vec![
                                ("shard".into(), Value::Int(shard)),
                                ("worker".into(), Value::Int(worker)),
                            ],
                        );
                    }
                });
            }
        });
        assert_eq!(sink.emitted(), 32);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 32, "one event per line, no torn interleavings");
        for line in lines {
            let v = json::parse(line).expect("every event line is valid JSON");
            assert_eq!(v.get("event").and_then(Value::as_str), Some("cluster.dispatched"));
            assert!(v.get("shard").is_some() && v.get("worker").is_some());
        }
    }
}
