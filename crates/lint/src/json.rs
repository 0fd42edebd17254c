//! Machine-readable (JSON) rendering of a lint report.
//!
//! Hand-rolled serialization: the workspace's `serde` shim is
//! marker-only (no registry access), so the renderer writes the JSON
//! text directly. The schema is stable, versioned by the top-level
//! `"schema"` field, and covered by golden tests:
//!
//! ```json
//! {
//!   "schema":     1,
//!   "findings":   [{"rule", "message", "owner", "verdict", "line", "col",
//!                   "start", "end", "notes": [{"message", "line", "col",
//!                   "start", "end"}]}],
//!   "suppressed": [ same shape ],
//!   "proofs":     [ same shape; verdict is always "proven-safe" ],
//!   "costs":      [{"property", "ir_nodes", "indexed_loads", "scan_constructs",
//!                   "cached_subtrees", "max_loop_depth", "estimated_units"}]
//! }
//! ```
//!
//! `"verdict"` is `null` for syntactic findings; flow-decided findings
//! carry the verdict tag (`"proven-div-by-zero"`, `"possible"`,
//! `"proven"`, `"proven-safe"`). `"notes"` is the dominating span
//! chain (proving guards, unsatisfiable conditions, mismatched
//! operands).

use crate::{Finding, LintReport};
use asl_core::{SourceMap, Span};
use std::fmt::Write;

/// Append `s`, escaped for a JSON string literal, to `out`: the runs
/// between characters that need an escape are copied whole.
fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (at, c) in s.char_indices() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[clean..at]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        clean = at + c.len_utf8();
    }
    out.push_str(&s[clean..]);
}

/// Append `"key":"<escaped value>"`.
fn string_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Append `,"line":…,"col":…,"start":…,"end":…` for a span.
fn location(out: &mut String, span: Span, map: &SourceMap) {
    let loc = map.locate(span.start);
    let _ = write!(
        out,
        ",\"line\":{},\"col\":{},\"start\":{},\"end\":{}",
        loc.line, loc.col, span.start, span.end
    );
}

/// Append `"key":[item,item,…]`, one `item` call per element.
fn list<T>(out: &mut String, key: &str, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    let _ = write!(out, "\"{key}\":[");
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, it);
    }
    out.push(']');
}

fn finding_json(out: &mut String, f: &Finding, map: &SourceMap) {
    out.push('{');
    string_field(out, "rule", f.rule);
    out.push(',');
    string_field(out, "message", &f.message);
    out.push(',');
    string_field(out, "owner", &f.owner);
    out.push(',');
    match f.verdict {
        Some(v) => string_field(out, "verdict", v),
        None => out.push_str("\"verdict\":null"),
    }
    location(out, f.span, map);
    out.push(',');
    list(out, "notes", &f.notes, |out, n| {
        out.push('{');
        string_field(out, "message", &n.message);
        location(out, n.span, map);
        out.push('}');
    });
    out.push('}');
}

/// Render a full report as a single JSON object.
pub fn report_to_json(report: &LintReport, source: &str) -> String {
    let map = SourceMap::new(source);
    let mut out = String::from("{\"schema\":1,");
    for (key, findings) in [
        ("findings", &report.findings),
        ("suppressed", &report.suppressed),
        ("proofs", &report.proofs),
    ] {
        list(&mut out, key, findings, |out, f| finding_json(out, f, &map));
        out.push(',');
    }
    list(&mut out, "costs", &report.costs, |out, c| {
        out.push('{');
        string_field(out, "property", &c.property);
        let _ = write!(
            out,
            ",\"ir_nodes\":{},\"indexed_loads\":{},\
             \"scan_constructs\":{},\"cached_subtrees\":{},\
             \"max_loop_depth\":{},\"estimated_units\":{}}}",
            c.ir_nodes,
            c.indexed_loads,
            c.scan_constructs,
            c.cached_subtrees,
            c.max_loop_depth,
            c.estimated_units
        );
    });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
