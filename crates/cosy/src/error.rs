//! Typed analysis errors.
//!
//! The two failure families of the batch analyzer, kept separate because
//! they happen at different times and demand different reactions:
//!
//! * [`SpecError`] — *construction* failed: the suite could not be bound
//!   to the store (a property signature the engine cannot instantiate, no
//!   ranking basis yet, constant evaluation failed, SQL schema/load
//!   failed). Callers typically wait for more data or fix the spec.
//! * [`AnalysisError`] — *evaluation* failed mid-pass: one property
//!   instance raised a genuine error (division by zero, ambiguous
//!   `UNIQUE`, a SQL execution failure). Callers surface the property and
//!   context; the online engine re-queues the invalidated delta so the
//!   same work is retried on the next flush.
//!
//! Both wrap the precise source error (`asl_eval::EvalError`,
//! `asl_sql::SqlGenError`) instead of flattening it to a string, so
//! callers can match on the machine-readable kind (the online engine's
//! typed `FlushError` and the `kojak::engine::EngineError` hierarchy build
//! on these).

use crate::backend::Backend;
use asl_eval::EvalError;
use asl_sql::SqlGenError;
use std::fmt;

/// Why an [`crate::Analyzer`] or [`crate::backend::PreparedBackend`] could
/// not be constructed from a spec and a store.
#[derive(Debug)]
pub enum SpecError {
    /// A property is not declared `(Region | FunctionCall, TestRun,
    /// Region)` — subject, analyzed run, ranking basis — the one signature
    /// the engine knows how to enumerate instances for.
    Signature {
        /// The property.
        property: String,
        /// Its parameter list (the property name, if the list is empty).
        span: asl_core::Span,
    },
    /// The analyzed version has no `main` region to serve as the ranking
    /// basis (§4: every severity is a fraction of `Duration(Basis, t)`).
    /// Online, this simply means the structure has not streamed in yet.
    NoMainRegion,
    /// Binding the spec to the store failed in the client-side engine
    /// (global-constant evaluation during interpreter/compiled-IR
    /// preparation).
    Bind {
        /// The backend being prepared.
        backend: Backend,
        /// The evaluation error.
        source: EvalError,
    },
    /// SQL schema generation, table creation, or store loading failed
    /// while preparing a database backend.
    Sql {
        /// The backend being prepared.
        backend: Backend,
        /// The SQL-side error.
        source: SqlGenError,
    },
}

impl SpecError {
    /// The source span of the failing spec expression, when the wrapped
    /// evaluation error carries one.
    pub fn span(&self) -> Option<asl_core::Span> {
        match self {
            SpecError::Signature { span, .. } => Some(*span),
            SpecError::Bind { source, .. } => source.span,
            SpecError::NoMainRegion | SpecError::Sql { .. } => None,
        }
    }

    /// Render the error against the spec source it came from: the message,
    /// followed by a caret snippet when the error carries a span.
    pub fn render(&self, source: &str) -> String {
        render_spanned(self, self.span(), source)
    }
}

fn render_spanned(error: &dyn fmt::Display, span: Option<asl_core::Span>, source: &str) -> String {
    match span {
        None => error.to_string(),
        Some(span) => {
            let map = asl_core::SourceMap::new(source);
            let d = asl_core::Diagnostic::error(span, error.to_string());
            d.render_snippet(source, &map)
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Signature { property, .. } => write!(
                f,
                "property `{property}` cannot be instantiated: expected parameters \
                 (Region | FunctionCall, TestRun, Region)"
            ),
            SpecError::NoMainRegion => write!(f, "version has no main region"),
            SpecError::Bind { backend, source } => {
                write!(f, "binding spec to store for {backend:?} failed: {source}")
            }
            SpecError::Sql { backend, source } => {
                write!(f, "preparing {backend:?} database failed: {source}")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Signature { .. } | SpecError::NoMainRegion => None,
            SpecError::Bind { source, .. } => Some(source),
            SpecError::Sql { source, .. } => Some(source),
        }
    }
}

/// Why a property-evaluation pass failed. `Ok(None)`-style skips
/// ("property not applicable in this context") never become errors — these
/// are genuine specification or data problems.
#[derive(Debug)]
pub enum AnalysisError {
    /// Preparing the evaluation backend failed (the pass never started).
    Spec(SpecError),
    /// A property instance failed to evaluate on a client-side engine.
    Property {
        /// The failing property.
        property: String,
        /// The evaluation error (kind + message).
        source: EvalError,
    },
    /// The SQL backend failed to compile or execute a property instance.
    Sql {
        /// The failing property.
        property: String,
        /// The SQL-side error.
        source: SqlGenError,
    },
    /// A property instance had an argument shape the backend cannot
    /// handle (e.g. a non-object subject passed to the batched SQL
    /// translation).
    BadInstance {
        /// The failing property.
        property: String,
        /// What was wrong with the instance.
        detail: String,
    },
}

impl AnalysisError {
    /// The source span of the failing spec expression, when the wrapped
    /// evaluation error carries one.
    pub fn span(&self) -> Option<asl_core::Span> {
        match self {
            AnalysisError::Spec(e) => e.span(),
            AnalysisError::Property { source, .. } => source.span,
            AnalysisError::Sql { .. } | AnalysisError::BadInstance { .. } => None,
        }
    }

    /// Render the error against the spec source it came from. With a span,
    /// this is the one-line message followed by a caret snippet pointing at
    /// the failing expression; without one, just the message.
    pub fn render(&self, source: &str) -> String {
        render_spanned(self, self.span(), source)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Spec(e) => write!(f, "backend preparation failed: {e}"),
            AnalysisError::Property { property, source } => write!(f, "{property}: {source}"),
            AnalysisError::Sql { property, source } => write!(f, "{property}: {source}"),
            AnalysisError::BadInstance { property, detail } => write!(f, "{property}: {detail}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Spec(e) => Some(e),
            AnalysisError::Property { source, .. } => Some(source),
            AnalysisError::Sql { source, .. } => Some(source),
            AnalysisError::BadInstance { .. } => None,
        }
    }
}

impl From<SpecError> for AnalysisError {
    fn from(e: SpecError) -> Self {
        AnalysisError::Spec(e)
    }
}
