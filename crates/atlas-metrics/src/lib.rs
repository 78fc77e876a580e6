//! # atlas-metrics
//!
//! The runtime observability toolkit: constant-memory histograms, atomic
//! counter/gauge cells, and the [`MetricsSnapshot`] a replica exports over
//! the stats plane.
//!
//! Nothing here retains samples: a long-lived replica cannot afford that,
//! so the runtime records into [`BoundedHistogram`] (plain, for export) and
//! [`AtomicHistogram`] (shared, for the hot path) — log-bucketed at 16
//! sub-buckets per octave, exact count/sum/min/max, 6.25% worst-case
//! quantile error, ~8 KiB each, forever. The simulator's client latencies
//! use the same [`BoundedHistogram`].
//!
//! Three consumers read the same [`MetricsSnapshot`]:
//!
//! 1. `ClientRequest::Stats` → `ClientReply::Stats` over any client socket
//!    (binary serde; histograms ship whole so they can be merged across
//!    replicas before taking percentiles);
//! 2. the `--metrics-every <ticks>` JSONL dump in the replica data dir
//!    ([`MetricsSnapshot::to_json`], one line per dump);
//! 3. the `atlas-top` binary, which polls every replica and renders a
//!    one-screen cluster summary.

// deny (not forbid): `alloc` carries the workspace's one scoped
// `#[allow(unsafe_code)]` — the GlobalAlloc forwarding shim.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod histogram;
mod registry;
mod snapshot;

pub use alloc::{allocations, CountingAllocator};
pub use histogram::{BoundedHistogram, BUCKETS, SUBBUCKETS};
pub use registry::{AtomicHistogram, Counter, Gauge};
pub use snapshot::{
    DetectorStats, DurabilityStats, ExecutorShardStats, ExecutorStats, GcStats, HistogramSummary,
    LifecycleStats, LinkSnapshot, MetricsSnapshot,
};
