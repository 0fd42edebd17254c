//! # `cosy-online` — streaming trace ingestion + incremental analysis
//!
//! The paper's COSY workflow (§3–§4) is batch: build the complete
//! performance database, then evaluate the ASL property suite over it.
//! This crate turns that one-shot analyzer into an **always-on service
//! core**: measurement events stream in from many concurrent test runs,
//! the performance database grows live, and the ranked analysis reports
//! stay continuously up to date — re-evaluating only what each change can
//! actually affect.
//!
//! ## The event model
//!
//! A producer (instrumented run or monitoring daemon) emits
//! [`TraceEvent`]s: `RunStarted`, `RegionEntered` (introducing structure),
//! `RegionExited` (total timings), `TypedSample` (per-category overhead),
//! `CallSiteStat` (per-call statistics) and `RunFinished`. Events are
//! self-describing — structure is keyed by names and source lines, not
//! database ids — so producers never coordinate id allocation; the only
//! producer-side identifiers are a per-run [`RunKey`] and a per-build
//! [`VersionTag`].
//!
//! ## Architecture
//!
//! ```text
//!  producers ──▶ OnlineSession::ingest_batch ──▶ flush ──▶ live AnalysisReports
//!                 │ (durable: wal.log first)     (Incremental-   (rank-stable,
//!                 ▼                               Analyzer)       batch-identical)
//!                StoreBuilder ──▶ StoreDelta ─────────┘
//! ```
//!
//! * [`OnlineSession`] is the one session type: thread-safe, fed whole
//!   batches by any number of producer threads. Fan-in across processes
//!   and fan-out over shards live one layer up (`kojak-net`'s
//!   `EngineServer`, `engine::ShardedSession`).
//! * [`StoreBuilder`] applies events to the live [`perfdata::Store`] via
//!   its upsert hooks and records the facts of each change — records
//!   upserted, runs started, structure grown, runs finished — in a
//!   [`StoreDelta`].
//! * [`IncrementalAnalyzer`] maintains, per run, the set of property
//!   instances that currently hold. A flush asks
//!   `IncrementalAnalyzer::invalidated` which contexts the delta's facts
//!   dirty, re-evaluates exactly those — through the same `cosy`
//!   evaluation path the batch analyzer uses — and re-assembles the
//!   affected reports.
//! * [`OnlineSession::open`] makes the session survive a process kill:
//!   events are framed into a checksummed write-ahead log *before* they
//!   are applied, snapshots of the builder state truncate the log at
//!   checkpoint boundaries, and [`OnlineSession::recover`] resumes with
//!   live reports bit-identical to an uninterrupted session (see
//!   [`crate::wal`], [`crate::snapshot`], [`crate::durable`]).
//!
//! ## Dirty-context tracking
//!
//! Ingestion knows nothing of the property suite: a delta says what
//! changed, and one function — `IncrementalAnalyzer::invalidated`, where
//! the rules are stated — says what that invalidates: the changed
//! `(run, context)` pairs, escalated to a region in every run, a whole run
//! or a whole version where the standard suite reads across runs (min-PE
//! totals, the reference configuration, the ranking basis). The rules are
//! what make incremental results *equal* to batch results (see
//! `tests/equivalence.rs`), not just close — for the standard suite.
//! Under any other spec ([`SessionConfig::spec`]) they are not trusted: a
//! flush re-evaluates every run of each version its delta touches, in
//! full.
//!
//! ## Example
//!
//! ```
//! use online::{OnlineSession, SessionConfig, replay};
//! use apprentice_sim::{archetypes, simulate_program, MachineModel};
//!
//! // A batch store stands in for a live producer via replay.
//! let mut store = perfdata::Store::new();
//! let version = simulate_program(
//!     &mut store,
//!     &archetypes::particle_mc(7),
//!     &MachineModel::t3e_900(),
//!     &[1, 4, 16],
//! );
//!
//! let session = OnlineSession::new(SessionConfig::default());
//! for batch in replay::replay_store(&store).chunks(256) {
//!     session.ingest_batch(batch).unwrap();
//! }
//! session.flush().unwrap();
//!
//! let run = store.versions[version.index()].runs[2];
//! let report = session.report(online::replay::replay_run_key(run)).unwrap();
//! assert!(report.bottleneck().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod durable;
pub mod error;
pub mod event;
pub mod incremental;
pub mod replay;
pub mod session;
pub mod snapshot;
#[cfg(test)]
mod test_events;
pub mod wal;
pub mod wire;

pub use builder::{StoreBuilder, StoreDelta};

/// The compiled evaluator's process-global lazy-cell counters as a metric
/// snapshot (`kojak_eval_cache_{hits,misses}_total`) — lazy cells:
/// loop-invariant, per-batch context, per-flush subject.
///
/// These counters are **process-wide** — every evaluator of every shard
/// bumps the same pair — so they are deliberately excluded from
/// [`OnlineSession::metrics`] (a sharded engine merges per-shard
/// snapshots, and a global added per shard would multiply). Add this
/// snapshot exactly once at the top of whatever aggregation you ship:
/// the net-layer server does so in its `Introspect` reply.
pub fn eval_cache_metrics() -> obs::MetricsSnapshot {
    let (hits, misses) = asl_eval::cache_counters();
    let mut out = obs::MetricsSnapshot::default();
    out.push_counter("kojak_eval_cache_hits_total", hits);
    out.push_counter("kojak_eval_cache_misses_total", misses);
    out
}
pub use durable::{DurableConfig, RecoveryError, RecoveryStats};
/// The benchmark package under `benchmark/` — which a change to this
/// crate may not edit — opens its durable sessions under this name;
/// nothing else does.
pub type DurableSession = OnlineSession;
pub use error::FlushError;
pub use event::{
    CallStats, IngestError, RegionDef, RegionRef, RunKey, TraceEvent, VersionTag, WIRE_VERSION,
};
pub use incremental::{IncrementalAnalyzer, IncrementalStats};
pub use session::{OnlineSession, SessionConfig, SessionStats};
pub use snapshot::{SnapshotOp, SnapshotWriteError};
pub use wal::{FsyncPolicy, WalCorruption, WalCorruptionKind, WalIoError, WalOp};
pub use wire::WireError;
