//! The batch engine: the paper's one-shot COSY workflow behind the
//! streaming API.
//!
//! [`BatchEngine`] accepts the same [`TraceEvent`] streams as the online
//! sessions (through the same [`StoreBuilder`] ingestion path), but every
//! [`flush`](crate::AnalysisEngine::flush) re-runs the **full**
//! [`cosy::Analyzer`] pass over every run of every version — it reads
//! nothing of the [`StoreDelta`] but the finished runs, and keeps no
//! held-entry cache. It is the reference the incremental
//! engines are equivalent to, and the right choice for one-shot analyses
//! where the store is built once and analyzed once.

use crate::error::EngineError;
use crate::{AnalysisEngine, RecoverableState};
use asl_core::check::CheckedSpec;
use cosy::backend::{compile, CompiledSpec, PreparedBackend};
use cosy::{AnalysisReport, Analyzer, ProblemThreshold, SpecError};
use online::{IngestError, RunKey, SessionStats, StoreBuilder, StoreDelta, TraceEvent};
use perfdata::TestRunId;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

struct BatchInner {
    builder: StoreBuilder,
    pending: StoreDelta,
    finished: HashSet<TestRunId>,
    reports: HashMap<RunKey, AnalysisReport>,
    rejected: u64,
    flushes: u64,
    dirty: bool,
}

/// A batch analysis engine over a streamed-in store.
pub struct BatchEngine {
    spec: Arc<CheckedSpec>,
    /// The suite lowered to the compiled IR, once, at construction.
    compiled: Arc<CompiledSpec>,
    threshold: ProblemThreshold,
    inner: Mutex<BatchInner>,
}

impl BatchEngine {
    /// A batch engine with the standard suite and defaults.
    pub fn new() -> Self {
        Self::with_config(
            Arc::new(cosy::suite::standard_suite()),
            ProblemThreshold::default(),
        )
    }

    /// A batch engine with an explicit suite and threshold (the
    /// [`crate::EngineBuilder`] construction path).
    pub fn with_config(spec: Arc<CheckedSpec>, threshold: ProblemThreshold) -> Self {
        BatchEngine {
            compiled: Arc::new(compile(&spec)),
            spec,
            threshold,
            inner: Mutex::new(BatchInner {
                builder: StoreBuilder::new(),
                pending: StoreDelta::new(),
                finished: HashSet::new(),
                reports: HashMap::new(),
                rejected: 0,
                flushes: 0,
                dirty: false,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BatchInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingest a batch (the shared [`StoreBuilder::apply_batch`] isolation
    /// contract of every engine).
    pub fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, IngestError> {
        let mut inner = self.lock();
        let BatchInner {
            builder, pending, ..
        } = &mut *inner;
        let (applied, failure) = builder.apply_batch(events, pending);
        inner.rejected += (events.len() - applied) as u64;
        if applied > 0 {
            inner.dirty = true;
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(applied),
        }
    }

    /// Re-analyze every run of every version from scratch. Returns the
    /// keys of runs whose report changed (ascending).
    pub fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        let mut inner = self.lock();
        let pending = std::mem::take(&mut inner.pending);
        inner.finished.extend(pending.finished_runs.iter().copied());
        if !inner.dirty && pending.finished_runs.is_empty() {
            return Ok(Vec::new());
        }

        let store = inner.builder.store();
        let mut analyzers = Vec::new();
        for (_, vid) in inner.builder.version_tags() {
            match Analyzer::with_compiled(
                store,
                vid,
                Arc::clone(&self.spec),
                Arc::clone(&self.compiled),
            ) {
                Ok(analyzer) => analyzers.push((analyzer, &store.versions[vid.index()].runs)),
                // No analyzable structure yet (no main region): the runs
                // of this version simply have no report, exactly like an
                // online session before the structure streams in.
                Err(SpecError::NoMainRegion) => continue,
                Err(e) => return Err(e.into()),
            }
        }

        let mut fresh: HashMap<RunKey, AnalysisReport> = HashMap::new();
        // One binding serves every run of every version: the store does
        // not change under the lock. A flush with no run to analyze binds
        // (and can fail to bind) nothing.
        if analyzers.iter().any(|(_, runs)| !runs.is_empty()) {
            let prepared = PreparedBackend::from_compiled(Arc::clone(&self.compiled), store)?;
            for (analyzer, runs) in &analyzers {
                for &run in runs.iter() {
                    let report = analyzer.analyze_prepared(run, &prepared, self.threshold)?;
                    if let Some(key) = inner.builder.run_key_of(run) {
                        fresh.insert(key, report);
                    }
                }
            }
        }

        let mut updated: Vec<RunKey> = fresh
            .iter()
            .filter(|(k, r)| inner.reports.get(*k) != Some(*r))
            .map(|(k, _)| *k)
            .collect();
        updated.sort();
        inner.reports = fresh;
        inner.dirty = false;
        inner.flushes += 1;
        Ok(updated)
    }

    /// The live report of a run (as of the last flush).
    pub fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        self.lock().reports.get(&run).cloned()
    }

    /// All reports keyed by producer run key.
    pub fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        self.lock().reports.clone()
    }

    /// Aggregate counters (the incremental block stays zero — this engine
    /// never evaluates incrementally).
    pub fn stats(&self) -> SessionStats {
        let inner = self.lock();
        SessionStats {
            events_applied: inner.builder.events_applied(),
            events_rejected: inner.rejected,
            events_replayed: 0,
            flushes: inner.flushes,
            runs_finished: inner.finished.len() as u64,
            incremental: Default::default(),
        }
    }
}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine::new()
    }
}

impl AnalysisEngine for BatchEngine {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        BatchEngine::ingest_batch(self, events).map_err(EngineError::from)
    }

    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        BatchEngine::flush(self)
    }

    fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        BatchEngine::report(self, run)
    }

    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        BatchEngine::reports(self)
    }

    fn stats(&self) -> SessionStats {
        BatchEngine::stats(self)
    }

    fn spec(&self) -> Arc<CheckedSpec> {
        Arc::clone(&self.spec)
    }

    fn recoverable_state(&self) -> RecoverableState {
        RecoverableState::Ephemeral
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        BatchEngine::flush(self).map(|_| ())
    }
}
