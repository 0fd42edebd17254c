//! Evaluation errors.

use asl_core::Span;
use std::fmt;

/// Why an evaluation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// `UNIQUE` applied to an empty set — usually means the property is
    /// not applicable in this context (e.g. no timing recorded for a run).
    EmptySet,
    /// `UNIQUE` applied to a set with more than one element.
    Ambiguous,
    /// Division by zero.
    DivByZero,
    /// Dynamic type mismatch (should be prevented by the checker).
    Type,
    /// Unknown name (should be prevented by the checker).
    Unknown,
    /// Call-depth limit exceeded.
    Recursion,
    /// Anything else.
    Other,
}

/// An evaluation error with context. One pointer wide, so that the
/// `EvalResult<Value>` every IR node returns stays small — the error path
/// pays an allocation, the success path does not carry its size. Reads
/// (and writes) as its [`EvalErrorData`]: `e.kind`, `e.message`, `e.span`.
#[derive(Debug, Clone)]
pub struct EvalError(Box<EvalErrorData>);

/// The fields of an [`EvalError`].
#[derive(Debug, Clone)]
pub struct EvalErrorData {
    /// Machine-readable kind.
    pub kind: EvalErrorKind,
    /// Human-readable message.
    pub message: String,
    /// Source span of the deepest expression that failed, when known.
    /// Diagnostic metadata only — excluded from equality (see below).
    pub span: Option<Span>,
}

impl std::ops::Deref for EvalError {
    type Target = EvalErrorData;
    fn deref(&self) -> &EvalErrorData {
        &self.0
    }
}

impl std::ops::DerefMut for EvalError {
    fn deref_mut(&mut self) -> &mut EvalErrorData {
        &mut self.0
    }
}

/// Equality compares `(kind, message)` only. The span is diagnostic
/// metadata: the interpreter and the compiled engine may attribute the
/// same failure to slightly different (nested) expressions, and the
/// interpreter≡compiled equivalence suite must not care.
impl PartialEq for EvalError {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.message == other.message
    }
}

impl EvalError {
    /// Construct an error.
    pub fn new(kind: EvalErrorKind, message: impl Into<String>) -> Self {
        EvalError(Box::new(EvalErrorData {
            kind,
            message: message.into(),
            span: None,
        }))
    }

    /// Attach a source span, replacing any existing one.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a source span only if none is present yet. Used while an
    /// error bubbles out of nested expressions so the *deepest* (most
    /// precise) span wins.
    pub fn or_span(mut self, span: Span) -> Self {
        if self.span.is_none() && span != Span::default() {
            self.span = Some(span);
        }
        self
    }

    /// True if this error means "property not applicable in this context"
    /// rather than "specification bug" (COSY skips such contexts).
    pub fn is_not_applicable(&self) -> bool {
        matches!(self.kind, EvalErrorKind::EmptySet)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

impl std::error::Error for EvalError {}

/// Result alias.
pub type EvalResult<T> = Result<T, EvalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_span() {
        let a = EvalError::new(EvalErrorKind::DivByZero, "division by zero");
        let b = a.clone().with_span(Span::new(10, 14));
        assert_eq!(a, b);
    }

    #[test]
    fn or_span_keeps_deepest() {
        let e = EvalError::new(EvalErrorKind::Type, "bad")
            .or_span(Span::new(5, 9))
            .or_span(Span::new(0, 100));
        assert_eq!(e.span, Some(Span::new(5, 9)));
    }

    #[test]
    fn or_span_ignores_default_span() {
        let e = EvalError::new(EvalErrorKind::Type, "bad").or_span(Span::default());
        assert_eq!(e.span, None);
    }
}
