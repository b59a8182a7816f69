//! **The distributed sweep cluster** — a coordinator that splits the
//! scenario grid into shards, dispatches them over HTTP to a fleet of
//! `consensus-lab serve` workers, and merges the returned journals into
//! one result set byte-identical to a single-node sweep.
//!
//! The paper's sweep is embarrassingly parallel across grid cells, and
//! PR 2's `--shard i/n` + `merge` machinery already made shard output
//! byte-stable. This crate composes those primitives with the service
//! layer into ROADMAP item 1's fleet shape:
//!
//! * [`coordinator`] — shard planning, round-robin dispatch over the
//!   live workers (bounded retry with backoff per request), and shard
//!   *rebalancing*: when a worker dies or stalls past its deadline, its
//!   unfinished shards are requeued onto the survivors, so killing a
//!   worker mid-sweep still yields the complete merged output;
//! * [`spotcheck`] — the accountability layer: a configurable fraction
//!   of merged verdicts is audited by requesting certificates from the
//!   fleet and replaying [`consensus_core::certificate::verify`]
//!   locally, so a worker cannot silently return wrong answers;
//! * [`events`] — live shard-lifecycle events (`dispatched` /
//!   `completed` / `retried` / `rebalanced` / `audited`) as JSONL on
//!   `--events-out`, plus the coordinator's trace stitching and fleet
//!   `/v1/stats` fold (see [`coordinator`]) — the fleet-wide
//!   observability story on top of `consensus_obs`;
//! * [`warm`] — peer warm-start: a cold worker pulls a live peer's
//!   verdict journal via `GET /v1/journal/segment` and absorbs it
//!   through the persist layer's salt check (memory → disk → peer
//!   cache tiering).
//!
//! The `consensus-lab` CLI binary lives in this crate (`src/main.rs`)
//! because the coordinator depends on the service layer: `cluster` is
//! its fleet-facing subcommand, and `serve` gains `--warm-from PEER`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod events;
pub mod spotcheck;
pub mod warm;

pub use coordinator::{ClusterConfig, ClusterOutcome, ClusterStats};
pub use events::EventSink;
pub use spotcheck::SpotCheckSummary;
