//! # `engine` — one typed API over every analysis engine
//!
//! The paper's pitch is that one declarative COSY/ASL specification
//! drives *every* analysis tool uniformly. This crate makes the
//! reproduction honor that: the [`AnalysisEngine`] trait is the single
//! typed surface — ingest, flush, report, stats, recoverable state —
//! implemented by every way of running the suite:
//!
//! | engine | evaluation | survives a kill |
//! |---|---|---|
//! | [`online::OnlineSession`] | incremental (dirty contexts only) | if built by `open`: one WAL + snapshot pair |
//! | [`ShardedSession`] | incremental, N `OnlineSession` shards in parallel | if built by `open`: one WAL + snapshot pair **per shard** |
//!
//! Both evaluate through one flush loop (`online::IncrementalAnalyzer`).
//! A one-shot analysis — build the store, analyze it once — is a
//! session's first flush: every run is new, so every run is evaluated in
//! full, once.
//!
//! [`EngineBuilder`] is the one construction path (spec → durability →
//! sharding; every engine evaluates with the compiled IR), and
//! [`EngineError`] the one failure hierarchy
//! ([`cosy::SpecError`] / [`online::IngestError`] / [`online::FlushError`]
//! / [`online::RecoveryError`]) — no stringly-typed result anywhere on
//! the public surface (CI-enforced by `scripts/deny_stringly_errors.sh`).
//!
//! ```
//! use engine::{AnalysisEngine, EngineBuilder};
//! use apprentice_sim::{archetypes, simulate_program, MachineModel};
//! use online::replay::{replay_run_key, replay_store};
//!
//! let mut store = perfdata::Store::new();
//! let version = simulate_program(
//!     &mut store,
//!     &archetypes::particle_mc(7),
//!     &MachineModel::t3e_900(),
//!     &[1, 4, 16],
//! );
//!
//! let session = EngineBuilder::new().build_online();
//! session.ingest_batch(&replay_store(&store)).unwrap();
//! session.flush().unwrap();
//!
//! let run = store.versions[version.index()].runs[2];
//! let report = session.report(replay_run_key(run)).unwrap();
//! assert!(report.bottleneck().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod error;
pub mod sharded;

use asl_core::check::CheckedSpec;
use cosy::AnalysisReport;
use online::{FramedBatch, OnlineSession, RunKey, SessionStats, TraceEvent};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

pub use builder::{Engine, EngineBuilder};
pub use error::EngineError;
pub use lint::{GateRejection, LintGate, LintReport};
pub use sharded::{
    DegradedState, QuarantineReason, QuarantinedShard, ShardedConfig, ShardedSession,
};

/// Where an engine's state would come back from after a process kill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverableState {
    /// Purely in-memory: nothing survives the process.
    Ephemeral,
    /// One write-ahead log + snapshot pair in this session directory.
    Durable {
        /// The session directory holding `wal.log` + `snapshot.bin`.
        dir: PathBuf,
    },
    /// One WAL + snapshot pair per shard, recovered independently (and in
    /// parallel) at open.
    Sharded {
        /// The per-shard session directories, in shard order.
        shard_dirs: Vec<PathBuf>,
    },
}

impl RecoverableState {
    /// True when a kill would lose state.
    pub fn is_ephemeral(&self) -> bool {
        matches!(self, RecoverableState::Ephemeral)
    }
}

/// The one typed surface of every analysis engine.
///
/// All engines share the same contract: events go in
/// ([`ingest_batch`](AnalysisEngine::ingest_batch)), a
/// [`flush`](AnalysisEngine::flush) turns everything pending into
/// refreshed, rank-stable [`AnalysisReport`]s, and
/// [`reports`](AnalysisEngine::reports) serves them keyed by the
/// producer's [`RunKey`]. Engines differ only in *how wide* they run (one
/// session or N shards) and *what survives a kill*
/// ([`recoverable_state`](AnalysisEngine::recoverable_state)).
pub trait AnalysisEngine: Send + Sync {
    /// Ingest a batch of events. Events are isolated: a rejected event is
    /// counted and skipped, the rest of the batch still applies. Returns
    /// the number of applied events, or the first rejection (after the
    /// whole batch was attempted). When several events are rejected,
    /// which one is "first" is engine-defined — stream order for single
    /// sessions, shard order for sharded ones; the rejected *count*
    /// ([`SessionStats::events_rejected`]) is exact everywhere.
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError>;

    /// Ingest a batch that arrived as a batch frame (`kojak-net`'s server
    /// hands one down for every whole producer batch): the same contract
    /// as [`ingest_batch`](AnalysisEngine::ingest_batch) over
    /// `batch.events()`, which is what the default does. A durable engine
    /// overrides it to append the frame's bytes to its log as they are,
    /// rather than encode the events again.
    fn ingest_framed(&self, batch: FramedBatch<'_>) -> Result<usize, EngineError> {
        self.ingest_batch(batch.events())
    }

    /// Ingest one event.
    fn ingest(&self, event: &TraceEvent) -> Result<(), EngineError> {
        self.ingest_batch(std::slice::from_ref(event)).map(|_| ())
    }

    /// Analyze everything pending. Returns the producer keys of the runs
    /// whose live report changed, in ascending key order.
    fn flush(&self) -> Result<Vec<RunKey>, EngineError>;

    /// The live report of a run (as of the last flush).
    fn report(&self, run: RunKey) -> Option<AnalysisReport>;

    /// All live reports keyed by producer run key.
    fn reports(&self) -> HashMap<RunKey, AnalysisReport>;

    /// Aggregate observability counters (summed over shards for a sharded
    /// engine).
    fn stats(&self) -> SessionStats;

    /// One composable metric snapshot: the [`stats`](AnalysisEngine::stats)
    /// counters plus whatever stage histograms the engine records
    /// (merged over shards for a sharded engine). The default is the
    /// stats-only view; engines with a live registry override it.
    /// Process-global metrics (the compiled-eval cache) are excluded —
    /// aggregators add them exactly once via `online::eval_cache_metrics`.
    fn metrics(&self) -> obs::MetricsSnapshot {
        use obs::MetricsSource;
        self.stats().metrics()
    }

    /// The property suite this engine evaluates (the standard suite
    /// unless the engine was built with another). What a server fronting
    /// the engine hashes into its handshake.
    fn spec(&self) -> Arc<CheckedSpec> {
        Arc::new(cosy::suite::standard_suite())
    }

    /// Where this engine's state would come back from after a kill.
    fn recoverable_state(&self) -> RecoverableState;

    /// Flush, then persist a recovery point (snapshot + truncated WAL).
    /// A no-op beyond the flush for engines whose
    /// [`recoverable_state`](AnalysisEngine::recoverable_state) is
    /// [`RecoverableState::Ephemeral`].
    fn checkpoint(&self) -> Result<(), EngineError>;
}

impl AnalysisEngine for OnlineSession {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        OnlineSession::ingest_batch(self, events).map_err(EngineError::from)
    }

    fn ingest_framed(&self, batch: FramedBatch<'_>) -> Result<usize, EngineError> {
        OnlineSession::ingest_framed(self, batch).map_err(EngineError::from)
    }

    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        let mut updated = OnlineSession::flush(self)?;
        updated.sort();
        Ok(updated)
    }

    fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        OnlineSession::report(self, run)
    }

    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        OnlineSession::reports(self)
    }

    fn stats(&self) -> SessionStats {
        OnlineSession::stats(self)
    }

    fn metrics(&self) -> obs::MetricsSnapshot {
        OnlineSession::metrics(self)
    }

    fn spec(&self) -> Arc<CheckedSpec> {
        OnlineSession::spec(self)
    }

    fn recoverable_state(&self) -> RecoverableState {
        match self.dir() {
            Some(dir) => RecoverableState::Durable {
                dir: dir.to_path_buf(),
            },
            None => RecoverableState::Ephemeral,
        }
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        OnlineSession::checkpoint(self).map_err(EngineError::from)
    }
}
