//! The one construction path: spec → durability → sharding.
//!
//! ```
//! use engine::{AnalysisEngine, EngineBuilder};
//!
//! // In-memory incremental session (the default):
//! let session = EngineBuilder::new().build_online();
//!
//! // Sharded durable deployment — one WAL + snapshot pair per shard:
//! let dir = std::env::temp_dir().join(format!("kojak-doc-{}", std::process::id()));
//! let engine = EngineBuilder::new()
//!     .durable(&dir)
//!     .shards(4)
//!     .snapshot_every_flushes(8)
//!     .build()
//!     .unwrap();
//! assert!(!engine.recoverable_state().is_ephemeral());
//! # drop(engine);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::error::EngineError;
use crate::sharded::{ShardedConfig, ShardedSession};
use crate::{AnalysisEngine, RecoverableState};
use asl_core::check::CheckedSpec;
use cosy::{AnalysisReport, ProblemThreshold};
use online::{
    DurableConfig, FsyncPolicy, OnlineSession, RecoveryStats, RunKey, SessionConfig, SessionStats,
    TraceEvent,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Fluent configuration of any [`AnalysisEngine`].
///
/// The stages mirror the decisions an operator makes, in order: *what* to
/// evaluate ([`spec`](EngineBuilder::spec),
/// [`threshold`](EngineBuilder::threshold)), *what survives a kill*
/// ([`durable`](EngineBuilder::durable),
/// [`fsync`](EngineBuilder::fsync),
/// [`snapshot_every_flushes`](EngineBuilder::snapshot_every_flushes)),
/// and *how wide* ([`shards`](EngineBuilder::shards)). Every shape
/// evaluates incrementally on the compiled IR; a one-shot analysis is
/// simply its first flush.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    spec: Option<Arc<CheckedSpec>>,
    threshold: ProblemThreshold,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    snapshot_every_flushes: Option<u32>,
    shards: usize,
    lint_gate: lint::LintGate,
}

impl EngineBuilder {
    /// Start from the defaults: standard suite, 5% problem threshold,
    /// incremental evaluation, in-memory, unsharded.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Evaluate a custom pre-checked suite instead of the standard one.
    /// Every property must be declared `(Region | FunctionCall, TestRun,
    /// Region)` — [`build`](EngineBuilder::build) refuses anything else
    /// with [`cosy::SpecError::Signature`]. Incremental engines re-evaluate
    /// what a fact can change by the read-sets derived from the suite
    /// itself (`online::IncrementalAnalyzer::invalidated`), custom or not.
    pub fn spec(mut self, spec: Arc<CheckedSpec>) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Severity threshold above which a property is a performance problem.
    pub fn threshold(mut self, threshold: ProblemThreshold) -> Self {
        self.threshold = threshold;
        self
    }

    /// A no-op, kept so that code written for the removed batch engine
    /// still builds: it builds the default engine. A one-shot analysis
    /// needs no engine of its own — every run is new to a session's first
    /// flush, so every run is evaluated in full, once.
    pub fn batch(self) -> Self {
        self
    }

    /// Persist the engine in `dir`: write-ahead log + snapshots, recovered
    /// on reopen. With [`shards`](EngineBuilder::shards), each shard gets
    /// its own WAL + snapshot pair under `dir/shard-00i`.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// When WAL appends reach stable storage (durable engines only).
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Checkpoint cadence: write a snapshot (truncating the log) every
    /// this many successful flushes; 0 disables automatic checkpoints
    /// (durable engines only).
    pub fn snapshot_every_flushes(mut self, flushes: u32) -> Self {
        self.snapshot_every_flushes = Some(flushes);
        self
    }

    /// Spread the engine over `n` independent shards routed by the
    /// run-key/version hash; `reports()` merges the per-shard maps.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Static-analysis strictness applied when the engine is built (the
    /// default is [`lint::LintGate::Warn`]): `Deny` makes
    /// [`build`](EngineBuilder::build) lint the suite and fail with
    /// [`EngineError::Lint`] on any active finding; `Warn` accepts the
    /// suite, so `build` does not lint it — ask for the findings with
    /// [`lint_check`](EngineBuilder::lint_check).
    pub fn lint(mut self, gate: lint::LintGate) -> Self {
        self.lint_gate = gate;
        self
    }

    /// Lint the suite this builder would load and return the full report,
    /// or — under `Deny`, with an active finding — the gate rejection as
    /// an [`EngineError::Lint`].
    ///
    /// A custom [`spec`](EngineBuilder::spec) is rendered through the
    /// canonical pretty-printer for directive scanning and snippet
    /// rendering; comments — including `cosy-lint: allow(...)`
    /// directives — do not survive that round trip, so callers that rely
    /// on allow directives in a custom suite should lint the original
    /// source themselves (`lint::lint`) and leave
    /// [`lint`](EngineBuilder::lint) at `Warn`.
    pub fn lint_check(&self) -> Result<lint::LintReport, EngineError> {
        let (spec, source) = match &self.spec {
            Some(s) => (s.clone(), asl_core::pretty::print_spec(&s.spec)),
            None => (
                Arc::new(cosy::suite::standard_suite()),
                cosy::suite::standard_suite_source(),
            ),
        };
        let report = lint::lint(&spec, &source);
        self.lint_gate.evaluate(&report, &source)?;
        Ok(report)
    }

    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            threshold: self.threshold,
            spec: self.spec.clone(),
        }
    }

    fn durable_config(&self) -> DurableConfig {
        let defaults = DurableConfig::default();
        DurableConfig {
            session: self.session_config(),
            fsync: self.fsync,
            snapshot_every_flushes: self
                .snapshot_every_flushes
                .unwrap_or(defaults.snapshot_every_flushes),
            faults: defaults.faults,
        }
    }

    /// Shortcut for the common case: an in-memory incremental session.
    pub fn build_online(&self) -> OnlineSession {
        OnlineSession::new(self.session_config())
    }

    /// Build the configured engine.
    pub fn build(self) -> Result<Engine, EngineError> {
        if self.lint_gate == lint::LintGate::Deny {
            self.lint_check()?;
        }
        if let Some(spec) = &self.spec {
            cosy::check_signatures(spec)?;
        }
        match (self.durable_dir.clone(), self.shards > 1) {
            (None, false) => Ok(Engine::Online(Box::new(self.build_online()))),
            (None, true) => Ok(Engine::ShardedOnline(ShardedSession::in_memory(
                self.shards,
                self.session_config(),
            ))),
            (Some(dir), false) => {
                crate::sharded::check_layout(&dir, None)?;
                let session = OnlineSession::open(dir, self.durable_config())?;
                Ok(Engine::Online(Box::new(session)))
            }
            (Some(dir), true) => {
                let (session, _recovery) = ShardedSession::open(
                    dir,
                    ShardedConfig {
                        shards: self.shards,
                        durable: self.durable_config(),
                    },
                )?;
                Ok(Engine::ShardedOnline(session))
            }
        }
    }
}

/// An engine built by [`EngineBuilder::build`]: one concrete type per
/// partitioning shape, both behind the same [`AnalysisEngine`] surface.
/// Durability is a property of either shape, not a shape of its own (see
/// [`AnalysisEngine::recoverable_state`]).
pub enum Engine {
    /// One incremental session — in memory, or with one WAL + snapshot
    /// pair.
    Online(Box<OnlineSession>),
    /// N incremental shards — in memory, or with one WAL + snapshot pair
    /// each.
    ShardedOnline(ShardedSession),
}

impl Engine {
    fn as_engine(&self) -> &dyn AnalysisEngine {
        match self {
            Engine::Online(e) => e.as_ref(),
            Engine::ShardedOnline(e) => e,
        }
    }

    /// Per-shard recovery statistics, when this engine recovered durable
    /// state at open (`None` for ephemeral engines; one entry per shard,
    /// a single entry for an unsharded durable session). A shard
    /// quarantined at open reports empty stats — see
    /// [`ShardedSession::degraded_state`].
    pub fn recovery(&self) -> Option<Vec<RecoveryStats>> {
        match self {
            Engine::Online(e) => e.dir().map(|_| vec![e.recovery().clone()]),
            Engine::ShardedOnline(e) => e.shard_recoveries(),
        }
    }
}

impl AnalysisEngine for Engine {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        self.as_engine().ingest_batch(events)
    }

    fn ingest_framed(&self, batch: online::FramedBatch<'_>) -> Result<usize, EngineError> {
        self.as_engine().ingest_framed(batch)
    }

    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        self.as_engine().flush()
    }

    fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        self.as_engine().report(run)
    }

    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        self.as_engine().reports()
    }

    fn stats(&self) -> SessionStats {
        self.as_engine().stats()
    }

    fn metrics(&self) -> obs::MetricsSnapshot {
        self.as_engine().metrics()
    }

    fn spec(&self) -> Arc<CheckedSpec> {
        self.as_engine().spec()
    }

    fn recoverable_state(&self) -> RecoverableState {
        self.as_engine().recoverable_state()
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        self.as_engine().checkpoint()
    }
}
