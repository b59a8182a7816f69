//! **Structured observability for the consensus workspace** — spans,
//! counters, gauges, and log-bucketed histograms, with zero dependencies
//! (pure `std`) so it can sit *below* every other crate: the expansion
//! engine, the sweep lab, the `Session` facade, and the HTTP service all
//! record into the same process-global substrate.
//!
//! Two halves:
//!
//! * [`trace`] — a lock-cheap [`Tracer`] with hierarchical
//!   spans (`expand`, `components`, `analysis.<kind>`, `cache.lookup`,
//!   `journal.load`, `absorb`, `http.request`, …) carrying monotonic
//!   timings and typed attributes, recorded into a bounded ring buffer and
//!   drainable as JSONL. Tracing is **off by default**: the disabled path
//!   is one relaxed atomic load plus a branch, and allocates nothing, so
//!   instrumented hot loops cost nothing when nobody is listening.
//! * [`metrics`] — a process-global [`Registry`] of
//!   named lock-free [`Counter`]s,
//!   [`Gauge`]s, and mergeable log-bucketed
//!   [`Histogram`]s (p50/p90/p99/max with bounded
//!   relative error), plus [`prom`] renderers for Prometheus text
//!   exposition.
//!
//! # Span hierarchy
//!
//! Spans nest automatically through a thread-local stack: a span opened
//! while another is live on the same thread becomes its child. Work that
//! crosses threads (sweep workers, cluster dispatch) propagates the
//! parent explicitly: capture [`Tracer::current_id`] on the spawning
//! thread and open the child with [`Tracer::span_under`] on the worker.
//!
//! ```
//! use consensus_obs::trace::tracer;
//!
//! tracer().enable();
//! {
//!     let _root = tracer().span("cache.lookup");
//!     let mut expand = tracer().span("expand");
//!     expand.set_attr("runs", 42u64);
//! } // guards record on drop, children before parents
//! let spans = tracer().drain();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "expand");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! tracer().disable();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod prom;
pub mod trace;

pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use trace::{trace_id, tracer, SpanGuard, SpanRecord, TraceContext, Tracer, TRACE_HEADER};
