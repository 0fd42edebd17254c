//! Diagnostics produced by the ASL front-end.

use crate::span::{SourceMap, Span};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advice that does not block acceptance of the specification.
    Warning,
    /// The specification is invalid.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single message attached to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class of the message.
    pub severity: Severity,
    /// Where in the source the problem was detected.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    pub fn error(span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            span,
            message: message.into(),
        }
    }

    /// Construct a warning diagnostic.
    pub fn warning(span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            span,
            message: message.into(),
        }
    }

    /// Render the diagnostic as `line:col: severity: message` using a map.
    pub fn render(&self, map: &SourceMap) -> String {
        format!(
            "{}: {}: {}",
            map.locate(self.span.start),
            self.severity,
            self.message
        )
    }

    /// Render the diagnostic as a rustc-style caret snippet:
    ///
    /// ```text
    /// warning: confidence constant 1.5 lies outside [0, 1]
    ///   --> 4:18
    ///    |
    ///  4 |     CONFIDENCE 1.5;
    ///    |                ^^^
    /// ```
    ///
    /// The source line is taken from `source`; `map` must have been built
    /// from the same text. Spans past the end of the source degrade to the
    /// plain one-line rendering rather than panicking.
    pub fn render_snippet(&self, source: &str, map: &SourceMap) -> String {
        let loc = map.locate(self.span.start);
        let mut out = format!("{}: {}\n  --> {}\n", self.severity, self.message, loc);
        let start = self.span.start as usize;
        if start > source.len() || !source.is_char_boundary(start) {
            return out;
        }
        let line_start = start - (loc.col as usize - 1);
        let line_end = source[line_start..]
            .find('\n')
            .map(|i| line_start + i)
            .unwrap_or(source.len());
        let line_text = &source[line_start..line_end];
        // Width of the caret run: the spanned bytes that fall on this line,
        // but at least one caret so point spans stay visible.
        let span_on_line = (self.span.end as usize).min(line_end).saturating_sub(start);
        let carets = span_on_line.max(1);
        let gutter = loc.line.to_string();
        let pad = " ".repeat(gutter.len());
        out.push_str(&format!("{pad} |\n{gutter} | {line_text}\n{pad} | "));
        out.push_str(&" ".repeat(loc.col as usize - 1));
        out.push_str(&"^".repeat(carets));
        out.push('\n');
        out
    }
}

/// An ordered collection of diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Append an error at `span`.
    pub fn error(&mut self, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::error(span, message));
    }

    /// Append a warning at `span`.
    pub fn warning(&mut self, span: Span, message: impl Into<String>) {
        self.push(Diagnostic::warning(span, message));
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// True if no diagnostics were recorded at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of recorded diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterate over diagnostics in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Render all diagnostics against the given source, one per line.
    pub fn render(&self, source: &str) -> String {
        let map = SourceMap::new(source);
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render(&map));
            out.push('\n');
        }
        out
    }

    /// Render all diagnostics as caret snippets separated by blank lines.
    pub fn render_snippets(&self, source: &str) -> String {
        let map = SourceMap::new(source);
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.render_snippet(source, &map));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.items {
            writeln!(f, "{}: {} (at {})", d.severity, d.message, d.span)?;
        }
        Ok(())
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl From<Diagnostic> for Diagnostics {
    fn from(d: Diagnostic) -> Self {
        Diagnostics { items: vec![d] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_errors_distinguishes_warnings() {
        let mut ds = Diagnostics::new();
        ds.warning(Span::new(0, 1), "just a warning");
        assert!(!ds.has_errors());
        ds.error(Span::new(1, 2), "a real error");
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn render_includes_position() {
        let src = "ab\ncd";
        let mut ds = Diagnostics::new();
        ds.error(Span::new(3, 4), "bad token");
        let rendered = ds.render(src);
        assert!(rendered.contains("2:1: error: bad token"), "{rendered}");
    }

    #[test]
    fn snippet_renders_caret_under_span() {
        let src = "PROPERTY P\n  CONFIDENCE 1.5;\nEND";
        let map = SourceMap::new(src);
        let d = Diagnostic::warning(Span::new(24, 27), "constant out of range");
        let s = d.render_snippet(src, &map);
        assert!(s.contains("warning: constant out of range"), "{s}");
        assert!(s.contains("--> 2:14"), "{s}");
        assert!(s.contains("2 |   CONFIDENCE 1.5;"), "{s}");
        assert!(s.contains("|              ^^^"), "{s}");
    }

    #[test]
    fn snippet_point_span_gets_one_caret() {
        let src = "abc";
        let map = SourceMap::new(src);
        let d = Diagnostic::error(Span::point(1), "here");
        let s = d.render_snippet(src, &map);
        assert!(s.ends_with(" ^\n"), "{s}");
        assert!(!s.contains("^^"), "{s}");
    }

    #[test]
    fn snippet_out_of_range_span_degrades_gracefully() {
        let src = "ab";
        let map = SourceMap::new(src);
        let d = Diagnostic::error(Span::new(50, 60), "past the end");
        let s = d.render_snippet(src, &map);
        assert!(s.contains("error: past the end"), "{s}");
    }

    #[test]
    fn display_lists_all() {
        let mut ds = Diagnostics::new();
        ds.error(Span::new(0, 1), "one");
        ds.error(Span::new(1, 2), "two");
        let s = ds.to_string();
        assert!(s.contains("one") && s.contains("two"));
    }
}
