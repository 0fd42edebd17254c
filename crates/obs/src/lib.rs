//! # `kojak-obs` — self-instrumentation for the engine stack
//!
//! The paper's premise is that performance tools should be driven by
//! machine-readable specifications of observable behavior; this crate
//! turns that lens on the reproduction itself. Every layer of the engine
//! stack — net decode, server dedup/ack,
//! `StoreBuilder` apply, WAL append/fsync, snapshot write, compiled-eval
//! flush — records into the primitives defined here, and the merged
//! result is one diffable artifact (`render_text`) or one wire message
//! (the `Introspect` RPC of `kojak-net`).
//!
//! ## Primitives
//!
//! * [`Counter`] — monotonic, relaxed-atomic, `const`-constructible (so
//!   crates can keep module-level counters with zero setup).
//! * [`Gauge`] — a last-written value (queue depths, shard counts).
//! * [`Histogram`] — log₂-bucketed latency distribution with
//!   [`HistogramSnapshot::p50`]/[`p90`](HistogramSnapshot::p90)/
//!   [`p99`](HistogramSnapshot::p99)/max; bucket merge is associative,
//!   so per-shard histograms fan in exactly.
//! * [`StageTimer`] — a scoped guard that records its elapsed nanoseconds
//!   into a histogram on drop.
//! * [`MetricsRegistry`] — named metrics behind `Arc` handles. Handle
//!   lookup takes a lock (cold path, done once at construction); the hot
//!   path through a handle is lock-free relaxed atomics.
//! * [`MetricsSnapshot`] — the one composable snapshot type every layer's
//!   stats unify into (via [`MetricsSource`]), with a self-contained
//!   binary codec and a Prometheus-style text exposition.
//!
//! ## The off switch
//!
//! Instrumentation is cheap and on by default. [`set_enabled`] is the
//! one switch, at runtime: timers stop reading the clock and every
//! primitive stops recording (one relaxed load decides). The E13
//! overhead gate measures the enabled binary against the same binary
//! with `set_enabled(false)` thrown.
//!
//! Metric names follow `kojak_<layer>_<stage>_<unit>`: histograms end in
//! `_ns`, monotonic counters in `_total`, gauges in a bare unit noun.
//! Labels ride inside the name (`…_total{property="X"}`).
//!
//! This crate is dependency-free (std only) by design: every other crate
//! of the workspace can instrument itself without a dependency cycle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metric;
mod registry;
mod snapshot;

pub use metric::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, StageTimer,
    HISTOGRAM_BUCKETS,
};
pub use registry::MetricsRegistry;
pub use snapshot::{MetricsSnapshot, MetricsSource, SnapshotDecodeError};

static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Is instrumentation live? One relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Runtime kill switch: `set_enabled(false)` mutes every counter, gauge,
/// histogram and timer process-wide (values freeze; handles stay valid).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
}
