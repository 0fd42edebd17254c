//! The session layer: one always-on analysis service core multiplexing
//! many concurrent measurement streams.
//!
//! [`OnlineSession`] is the shared, thread-safe object producers (or the
//! engine layer's shard router and TCP server) feed. It owns the
//! [`StoreBuilder`] (live store and interning) and the
//! [`IncrementalAnalyzer`] (live reports) behind one mutex; ingestion
//! appends events and accumulates the facts of the change in the pending
//! [`StoreDelta`], and [`OnlineSession::flush`] hands that delta to the
//! analyzer, which decides what it invalidates and refreshes those reports
//! (dirty runs are walked in turn; the one parallel level is over a run's
//! instance batches, inside `cosy::Analyzer::evaluate_instances`).
//!
//! Whether the session survives a process kill is a *part* of it, not a
//! wrapper around it: [`OnlineSession::open`] attaches the write-ahead log
//! and checkpoint state of [`crate::durable`], after which every
//! [`OnlineSession::ingest_batch`] is logged before it is applied. There
//! is no un-logged way into a durable session's store.

use crate::builder::{StoreBuilder, StoreDelta};
use crate::durable::{Durability, DurableConfig, RecoveryError, RecoveryStats};
use crate::error::FlushError;
use crate::event::{IngestError, RunKey, TraceEvent};
use crate::incremental::{IncrementalAnalyzer, IncrementalStats};
use crate::wal::WalIoError;
use asl_core::check::CheckedSpec;
use cosy::{AnalysisReport, ProblemThreshold};
use obs::{MetricsRegistry, MetricsSnapshot, MetricsSource};
use perfdata::Store;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Session configuration.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Severity threshold above which a property is a performance problem.
    pub threshold: ProblemThreshold,
    /// The property suite to evaluate. `None` means the standard suite;
    /// a custom pre-checked suite is shared (and lowered to the compiled
    /// IR once) across the session's whole life, recovery included. A
    /// suite other than the standard one is re-evaluated one whole version
    /// at a time (see `IncrementalAnalyzer::invalidated`).
    pub spec: Option<Arc<CheckedSpec>>,
}

/// Aggregate observability counters of a session.
///
/// `events_applied`/`events_rejected`/`runs_finished` are **lifetime**
/// counters: a recovered session restores them from the snapshot and
/// continues counting through the replayed WAL tail, so a restart reports
/// its true history instead of zeros. `flushes` and the incremental
/// counters describe work done by *this* process (recovery's replay flush
/// included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Events applied to the store.
    pub events_applied: u64,
    /// Events rejected with an [`IngestError`].
    pub events_rejected: u64,
    /// Events restored at startup by the recovery path (snapshot events
    /// plus replayed WAL-tail events); 0 for a session born empty.
    pub events_replayed: u64,
    /// Analysis flushes performed.
    pub flushes: u64,
    /// Runs declared finished by their producer.
    pub runs_finished: u64,
    /// Incremental-engine counters.
    pub incremental: IncrementalStats,
}

impl MetricsSource for SessionStats {
    fn collect_into(&self, out: &mut MetricsSnapshot) {
        let SessionStats {
            events_applied,
            events_rejected,
            events_replayed,
            flushes,
            runs_finished,
            incremental,
        } = self;
        out.push_counter("kojak_online_events_applied_total", *events_applied);
        out.push_counter("kojak_online_events_rejected_total", *events_rejected);
        out.push_counter("kojak_online_events_replayed_total", *events_replayed);
        out.push_counter("kojak_online_flushes_total", *flushes);
        out.push_counter("kojak_online_runs_finished_total", *runs_finished);
        incremental.collect_into(out);
    }
}

struct SessionInner {
    builder: StoreBuilder,
    analyzer: IncrementalAnalyzer,
    pending: StoreDelta,
    rejected: u64,
    replayed: u64,
}

/// A live, thread-safe online analysis session — in memory
/// ([`OnlineSession::new`]) or surviving a process kill
/// ([`OnlineSession::open`]).
pub struct OnlineSession {
    inner: Mutex<SessionInner>,
    /// Per-session metric set (shared with the WAL and snapshot writers;
    /// merged across shards by the engine layer).
    registry: Arc<MetricsRegistry>,
    /// Pre-created stage handles — the hot path never takes the registry
    /// lock.
    apply_ns: Arc<obs::Histogram>,
    flush_ns: Arc<obs::Histogram>,
    /// The write-ahead log, checkpoint state and recovery record; `None`
    /// in memory (boxed so an in-memory session does not carry its
    /// size). Its lock is the *writer* lock and is always taken before
    /// `inner`'s: it spans WAL append + store apply (write-ahead) and
    /// flush + checkpoint, while readers only ever take `inner`.
    durability: Option<Box<Durability>>,
}

impl OnlineSession {
    fn analyzer_for(
        config: &SessionConfig,
        registry: &Arc<MetricsRegistry>,
    ) -> IncrementalAnalyzer {
        let analyzer = match &config.spec {
            Some(spec) => IncrementalAnalyzer::with_spec(Arc::clone(spec), config.threshold),
            None => IncrementalAnalyzer::new(config.threshold),
        };
        analyzer.with_registry(Arc::clone(registry))
    }

    fn assemble(inner: SessionInner, registry: Arc<MetricsRegistry>) -> Self {
        let apply_ns = registry.histogram("kojak_online_apply_ns");
        let flush_ns = registry.histogram("kojak_online_flush_ns");
        OnlineSession {
            inner: Mutex::new(inner),
            registry,
            apply_ns,
            flush_ns,
            durability: None,
        }
    }

    /// Create a session with the configured suite (the standard one unless
    /// [`SessionConfig::spec`] overrides it).
    pub fn new(config: SessionConfig) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let analyzer = Self::analyzer_for(&config, &registry);
        Self::assemble(
            SessionInner {
                builder: StoreBuilder::new(),
                analyzer,
                pending: StoreDelta::new(),
                rejected: 0,
                replayed: 0,
            },
            registry,
        )
    }

    /// Open (or create) the durable session stored in `dir`, recovering
    /// any existing state (see [`OnlineSession::recover`]). A torn WAL
    /// tail found by recovery is truncated so appending resumes on a
    /// frame boundary.
    pub fn open(dir: impl Into<PathBuf>, config: DurableConfig) -> Result<Self, RecoveryError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let DurableConfig {
            session,
            fsync,
            snapshot_every_flushes,
            faults,
        } = config;
        let (mut opened, recovery) = OnlineSession::recover_with(&dir, session, &faults)?;
        opened.durability = Some(Box::new(Durability::open(
            dir,
            fsync,
            snapshot_every_flushes,
            faults,
            recovery,
            &opened.registry,
        )?));
        Ok(opened)
    }

    /// Rebuild a session from recovered state: the snapshotted builder,
    /// the finished-run set, and the restored lifetime counters. To the
    /// fresh analyzer every recovered run is new, and the pending delta
    /// says so: the first flush recomputes every live report from the
    /// recovered store (deterministically identical to the reports the
    /// crashed session would have shown after its own next flush).
    pub(crate) fn from_recovered(
        config: SessionConfig,
        builder: StoreBuilder,
        finished: Vec<perfdata::TestRunId>,
        rejected: u64,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let mut analyzer = Self::analyzer_for(&config, &registry);
        analyzer.restore_finished(finished);
        let pending = builder.all_new();
        Self::assemble(
            SessionInner {
                builder,
                analyzer,
                pending,
                rejected,
                replayed: 0,
            },
            registry,
        )
    }

    /// Record how many events the recovery path restored (for
    /// [`SessionStats::events_replayed`]).
    pub(crate) fn note_replayed(&self, n: u64) {
        self.lock().replayed += n;
    }

    /// Run `f` over the session's persistent state — builder, finished
    /// runs, rejected counter — under the session lock (the snapshot
    /// writer's consistent read).
    pub(crate) fn snapshot_state<R>(
        &self,
        f: impl FnOnce(&StoreBuilder, &[perfdata::TestRunId], u64) -> R,
    ) -> R {
        let inner = self.lock();
        let finished: Vec<perfdata::TestRunId> = inner.analyzer.finished_runs().collect();
        f(&inner.builder, &finished, inner.rejected)
    }

    /// Producer keys of every run the session knows about (unordered).
    /// The sharded engine rebuilds its run→shard affinity map from this
    /// after recovery.
    pub fn run_keys(&self) -> Vec<RunKey> {
        self.lock().builder.runs().map(|(k, _, _)| k).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingest one event. Structural/timing effects are applied to the live
    /// store immediately; analysis is deferred to the next flush.
    pub fn ingest(&self, event: &TraceEvent) -> Result<(), IngestError> {
        self.ingest_batch(std::slice::from_ref(event)).map(|_| ())
    }

    /// Ingest a batch of events. Events are isolated: a rejected event is
    /// counted and skipped, the rest of the batch still applies. Returns
    /// the number of applied events, or the *first* rejection (after the
    /// whole batch was attempted).
    ///
    /// A durable session frames the batch into its log (and, per fsync
    /// policy, onto the disk) *before* any event is applied; a failed
    /// append applies nothing. Rejected events stay in the log — replay
    /// re-rejects them deterministically, keeping recovered counters
    /// truthful.
    pub fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, IngestError> {
        let mut log = self.durability.as_deref().map(Durability::lock);
        if let Some(log) = &mut log {
            log.wal.append_batch(events)?;
        }
        let mut inner = self.lock();
        let SessionInner {
            builder, pending, ..
        } = &mut *inner;
        let (applied, failure) = {
            let _stage = self.apply_ns.start_timer();
            builder.apply_batch(events, pending)
        };
        inner.rejected += (events.len() - applied) as u64;
        match failure {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// The analysis half of a flush, under the store lock only.
    fn flush_store(&self) -> Result<Vec<RunKey>, FlushError> {
        let mut inner = self.lock();
        let delta = std::mem::take(&mut inner.pending);
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        let _stage = self.flush_ns.start_timer();
        let SessionInner {
            builder,
            analyzer,
            pending,
            ..
        } = &mut *inner;
        match analyzer.flush(builder.store(), &delta) {
            Ok(updated) => Ok(updated
                .into_iter()
                .filter_map(|run| builder.run_key_of(run))
                .collect()),
            Err(e) => {
                // Nothing was invalidated-and-forgotten: re-queue the delta
                // so the next flush retries the same work.
                pending.merge(delta);
                Err(e)
            }
        }
    }

    /// Analyze everything pending. Returns the producer keys of the runs
    /// whose live report changed. On failure the invalidated delta is
    /// re-queued, so the same [`FlushError`] resurfaces (and the same work
    /// retries) on the next flush.
    ///
    /// A durable session also checkpoints every
    /// [`DurableConfig::snapshot_every_flushes`] successful flushes. If
    /// the analysis succeeds but the checkpoint riding on it fails, the
    /// returned [`FlushError::Snapshot`]/[`FlushError::WalTruncate`]
    /// carries the flush's changed-run set in its `updated` field — the
    /// pending delta was consumed, so those keys are not observable from a
    /// retried flush. The checkpoint itself retries on the next flush (the
    /// cadence counter is not reset), and the WAL still holds the full
    /// history.
    pub fn flush(&self) -> Result<Vec<RunKey>, FlushError> {
        let Some(durability) = &self.durability else {
            return self.flush_store();
        };
        let mut log = durability.lock();
        let updated = self.flush_store()?;
        if durability.checkpoint_due(&mut log) {
            if let Err(e) = durability.checkpoint(&mut log, self) {
                return Err(e.with_updated(updated));
            }
        }
        Ok(updated)
    }

    /// Flush, then — for a durable session — write a snapshot and
    /// truncate the log behind it.
    pub fn checkpoint(&self) -> Result<(), FlushError> {
        let Some(durability) = &self.durability else {
            return self.flush_store().map(|_| ());
        };
        let mut log = durability.lock();
        self.flush_store()?;
        durability.checkpoint(&mut log, self)
    }

    /// Force logged frames to stable storage regardless of fsync policy
    /// (nothing to do in memory).
    pub fn sync(&self) -> Result<(), WalIoError> {
        match &self.durability {
            Some(durability) => durability.lock().wal.sync(),
            None => Ok(()),
        }
    }

    /// Current WAL length in bytes (events logged since the last
    /// checkpoint; 0 in memory).
    pub fn wal_len(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.lock().wal.len())
    }

    /// The session directory; `None` for an in-memory session.
    pub fn dir(&self) -> Option<&Path> {
        self.durability.as_deref().map(|d| d.dir.as_path())
    }

    /// What recovery found when this session was opened (empty for an
    /// in-memory session).
    pub fn recovery(&self) -> &RecoveryStats {
        static NONE: OnceLock<RecoveryStats> = OnceLock::new();
        match &self.durability {
            Some(durability) => &durability.recovery,
            None => NONE.get_or_init(RecoveryStats::default),
        }
    }

    /// True once the run's producer declared it finished and that event
    /// has been flushed.
    pub fn is_finished(&self, run: RunKey) -> bool {
        let inner = self.lock();
        inner
            .builder
            .run_id(run)
            .is_some_and(|id| inner.analyzer.is_finished(id))
    }

    /// The live report of a run (as of the last flush).
    pub fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        let inner = self.lock();
        let id = inner.builder.run_id(run)?;
        inner.analyzer.report(id).cloned()
    }

    /// All live reports keyed by producer run key.
    pub fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        let inner = self.lock();
        inner
            .analyzer
            .reports()
            .filter_map(|(id, r)| inner.builder.run_key_of(id).map(|k| (k, r.clone())))
            .collect()
    }

    /// The property suite the session evaluates.
    pub fn spec(&self) -> Arc<CheckedSpec> {
        self.lock().analyzer.spec()
    }

    /// A snapshot of the live store (clone; the live store keeps moving).
    pub fn store_snapshot(&self) -> Store {
        self.lock().builder.store().clone()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock();
        SessionStats {
            events_applied: inner.builder.events_applied(),
            events_rejected: inner.rejected,
            events_replayed: inner.replayed,
            flushes: inner.analyzer.stats().flushes,
            runs_finished: inner.analyzer.finished_count() as u64,
            incremental: inner.analyzer.stats(),
        }
    }

    /// One composable snapshot of everything this session knows about
    /// itself: the [`SessionStats`] counters plus the registry's stage
    /// histograms (WAL and snapshot stages included when durable; a fault
    /// seam that is actually injecting contributes its `kojak_faults_*`
    /// series too). Process-global metrics (the compiled-eval cache) are
    /// deliberately *not* included — a sharded engine merges many of
    /// these snapshots, and globals must be added exactly once at the top
    /// (see `eval_cache_metrics` in the crate root).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut out = self.stats().metrics();
        self.registry.collect_into(&mut out);
        if let Some(durability) = &self.durability {
            durability.faults.collect_into(&mut out);
        }
        out
    }
}

impl Default for OnlineSession {
    fn default() -> Self {
        OnlineSession::new(SessionConfig::default())
    }
}
