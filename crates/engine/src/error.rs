//! The unified engine error hierarchy.
//!
//! Every [`crate::AnalysisEngine`] operation fails with one
//! [`EngineError`], whose variants wrap the precise typed error of the
//! layer that failed — construction ([`SpecError`]), ingestion
//! ([`IngestError`]), evaluation/checkpointing ([`FlushError`]) or
//! restart ([`RecoveryError`]). `From` impls exist for all four, so code
//! written against one concrete engine lifts to the trait with `?` alone.

use cosy::{AnalysisError, SpecError};
use online::{FlushError, IngestError, RecoveryError};
use std::fmt;

/// Any failure of an [`crate::AnalysisEngine`].
#[derive(Debug)]
pub enum EngineError {
    /// The engine was asked for something its configuration cannot do
    /// (e.g. reintegrating a shard that does not exist).
    Config {
        /// What was wrong with the requested configuration.
        detail: String,
    },
    /// The builder's [`lint::LintGate::Deny`] gate rejected the suite:
    /// the static-analysis pass reported findings the configuration does
    /// not tolerate. The rejection carries the findings and their full
    /// caret-snippet rendering.
    Lint(lint::GateRejection),
    /// Constructing the engine (or binding its suite to a store) failed.
    Spec(SpecError),
    /// An event was rejected at ingestion.
    Ingest(IngestError),
    /// A flush — property evaluation or the checkpoint riding on it —
    /// failed.
    Flush(FlushError),
    /// Recovering durable state at open failed.
    Recovery(RecoveryError),
}

impl EngineError {
    /// True when an ingest error means the batch (from the failing event
    /// on) did not reach the engine at all — retrying it later could
    /// succeed, so it must not be acknowledged or dropped. Per-event
    /// rejections, by contrast, are final: the engine counted and skipped
    /// them, the rest of the batch applied, and a resend would only
    /// reject again. The sharded session quarantines a shard on a
    /// wholesale failure; the net server refuses to acknowledge one.
    pub fn failed_wholesale(&self) -> bool {
        let EngineError::Ingest(e) = self else {
            return true;
        };
        // No wildcard arm: a new `IngestError` variant must be classified
        // here before it compiles.
        match e {
            IngestError::UnknownRun(_)
            | IngestError::DuplicateRun(_)
            | IngestError::NoProcessors(_)
            | IngestError::UnknownFunction { .. }
            | IngestError::UnknownRegion { .. }
            | IngestError::UnknownParent { .. } => false,
            IngestError::Wal { .. } => true,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config { detail } => write!(f, "invalid engine configuration: {detail}"),
            EngineError::Lint(e) => write!(f, "{e}"),
            EngineError::Spec(e) => write!(f, "spec error: {e}"),
            EngineError::Ingest(e) => write!(f, "ingest error: {e}"),
            EngineError::Flush(e) => write!(f, "flush error: {e}"),
            EngineError::Recovery(e) => write!(f, "recovery error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config { .. } => None,
            EngineError::Lint(e) => Some(e),
            EngineError::Spec(e) => Some(e),
            EngineError::Ingest(e) => Some(e),
            EngineError::Flush(e) => Some(e),
            EngineError::Recovery(e) => Some(e),
        }
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<lint::GateRejection> for EngineError {
    fn from(e: lint::GateRejection) -> Self {
        EngineError::Lint(e)
    }
}

impl From<AnalysisError> for EngineError {
    fn from(e: AnalysisError) -> Self {
        EngineError::Flush(FlushError::from(e))
    }
}

impl From<IngestError> for EngineError {
    fn from(e: IngestError) -> Self {
        EngineError::Ingest(e)
    }
}

impl From<FlushError> for EngineError {
    fn from(e: FlushError) -> Self {
        EngineError::Flush(e)
    }
}

impl From<RecoveryError> for EngineError {
    fn from(e: RecoveryError) -> Self {
        EngineError::Recovery(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use online::{RegionRef, RunKey};

    /// Every `IngestError` variant, by name: per-event rejections are
    /// final, only a failed WAL append leaves the batch unapplied.
    #[test]
    fn failed_wholesale_classifies_every_ingest_variant() {
        let run = RunKey(1);
        let function = String::from("f");
        let per_event = [
            IngestError::UnknownRun(run),
            IngestError::DuplicateRun(run),
            IngestError::NoProcessors(run),
            IngestError::UnknownFunction {
                run,
                function: function.clone(),
            },
            IngestError::UnknownRegion {
                run,
                function: function.clone(),
                region: RegionRef::new("r", 1),
            },
            IngestError::UnknownParent {
                run,
                function,
                parent: RegionRef::new("p", 1),
            },
        ];
        for e in per_event {
            assert!(!EngineError::Ingest(e.clone()).failed_wholesale(), "{e}");
        }
        let wal = IngestError::Wal {
            op: online::WalOp::Append,
            kind: std::io::ErrorKind::Other,
            detail: String::from("disk full"),
        };
        assert!(EngineError::Ingest(wal).failed_wholesale());
        // Anything that is not an ingest rejection applied nothing.
        let config = EngineError::Config {
            detail: String::new(),
        };
        assert!(config.failed_wholesale());
    }
}
