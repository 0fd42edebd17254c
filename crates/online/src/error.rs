//! The typed flush-failure hierarchy of the online engine.
//!
//! Everything that can go wrong *after* events were accepted — evaluating
//! the pending delta, writing the checkpoint that rides on a flush —
//! surfaces as a [`FlushError`] variant instead of a formatted string, so
//! callers (and the `kojak::engine` facade's
//! `EngineError`) can react to the machine-readable cause. Ingestion-time
//! failures remain [`crate::event::IngestError`]; recovery-time failures
//! remain [`crate::durable::RecoveryError`].
//!
//! Every durable I/O failure among them — a WAL append, a checkpoint
//! step, a recovery read — carries the one [`faults::IoFailure`] the
//! fault seam returned: the [`faults::Op`] of the step that failed and the
//! original error as its source, injected or real.

use crate::event::RunKey;
use cosy::{AnalysisError, SpecError};
use faults::IoFailure;
use std::fmt;
use std::path::PathBuf;

/// Why a flush (or the checkpoint riding on it) failed.
///
/// On an [`Analysis`](FlushError::Analysis) or
/// [`Spec`](FlushError::Spec) failure the invalidated delta is re-queued,
/// so the next flush retries exactly the same work — nothing is
/// invalidated-and-forgotten.
#[derive(Debug)]
pub enum FlushError {
    /// Property evaluation failed (division by zero, ambiguous `UNIQUE`,
    /// a SQL execution failure — see [`cosy::AnalysisError`]).
    Analysis(AnalysisError),
    /// Re-binding the suite to the live store failed (backend
    /// preparation, see [`cosy::SpecError`]).
    Spec(SpecError),
    /// A step of the checkpoint failed: one of the snapshot protocol's
    /// (`Snapshot*` ops) or the log truncation behind it
    /// ([`faults::Op::WalTruncate`]). The flush itself succeeded and durability is
    /// not compromised. Before the rename commit point the WAL still holds
    /// the full history. A failed directory sync ([`faults::Op::SnapshotDirSync`],
    /// the one post-commit snapshot step) means the snapshot is live and
    /// the log has been moved onto its epoch; only the rename's
    /// machine-crash durability is in doubt. A failed truncation leaves a
    /// valid snapshot; recovery detects the stale log by its older epoch
    /// and skips it, so no event is double-applied.
    Checkpoint {
        /// The file the failed step wrote: the snapshot, or the log for
        /// [`faults::Op::WalTruncate`].
        path: PathBuf,
        /// The failed step and its I/O error.
        failure: IoFailure,
        /// The runs whose report the *successful* analysis flush changed
        /// (empty for an explicit `checkpoint()` call). The pending delta
        /// was consumed, so these keys are not observable from a retried
        /// flush — consumers driving work off the changed-run list must
        /// take them from here.
        updated: Vec<RunKey>,
    },
}

impl FlushError {
    /// Attach the changed-run set of a successful analysis flush to the
    /// checkpoint failure that rode on it.
    pub(crate) fn with_updated(mut self, runs: Vec<RunKey>) -> Self {
        if let FlushError::Checkpoint { updated, .. } = &mut self {
            *updated = runs;
        }
        self
    }
}

impl fmt::Display for FlushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushError::Analysis(e) => write!(f, "analysis flush failed: {e}"),
            FlushError::Spec(e) => write!(f, "suite re-binding failed: {e}"),
            FlushError::Checkpoint { path, failure, .. } => {
                write!(f, "checkpoint {}: {failure}", path.display())
            }
        }
    }
}

impl std::error::Error for FlushError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlushError::Analysis(e) => Some(e),
            FlushError::Spec(e) => Some(e),
            FlushError::Checkpoint { failure, .. } => Some(failure),
        }
    }
}

impl From<AnalysisError> for FlushError {
    fn from(e: AnalysisError) -> Self {
        // A preparation failure inside an analysis pass is a Spec failure;
        // keep the two distinguishable at this level too.
        match e {
            AnalysisError::Spec(s) => FlushError::Spec(s),
            other => FlushError::Analysis(other),
        }
    }
}

impl From<SpecError> for FlushError {
    fn from(e: SpecError) -> Self {
        FlushError::Spec(e)
    }
}
