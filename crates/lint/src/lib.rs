//! # `kojak-lint` — static analysis for COSY/ASL specifications
//!
//! A span-precise lint pass over a type-checked specification
//! ([`asl_core::CheckedSpec`]) *and* its compiled slot IR
//! ([`asl_eval::CompiledSpec`]). Two rule tiers:
//!
//! * **Correctness lints** — dead declarations (constants, helper
//!   functions, fully isolated classes/enums), identifier shadowing,
//!   constant conditions and unreachable guarded arms, overlapping
//!   `MAX` arms, divisions by a provably-zero denominator, unit
//!   mismatches, and whole-suite property subsumption.
//! * **Performance lints** — grounded in the compiled engine's actual
//!   lowering rules (`asl_eval::compile::shape`) and the COSY store's
//!   native index coverage (`asl_eval::native_index`): two-key
//!   `Run == t AND Type == X` filters the store cannot serve with one
//!   indexed load, full scans where an indexed load exists but the
//!   conjunct order hides it, and per-element set clones. A static
//!   [IR cost estimator](asl_eval::CompiledSpec::property_costs) ranks
//!   properties by estimated evaluation cost.
//!
//! The pass runs the `kojak-flow` abstract interpreter over the
//! compiled IR ([`flow::analyze`]) once, and every semantic rule reads
//! its results: division sites are triaged into
//! proven-safe / possible / proven-div-by-zero verdicts,
//! unreachable/overlapping arms are decided by guard implication over
//! arbitrary expressions, unit mismatches are reported from the inferred
//! dimension lattice, and flow-proven cardinality bounds sharpen the
//! cost ranking.
//!
//! Every [`Finding`] carries a real [`Span`], an optional flow
//! *verdict* tag, and [`Note`]s pointing at the dominating spans (the
//! guard that proves a division safe, the condition proven
//! unsatisfiable). Reports render as rustc-style caret snippets
//! ([`LintReport::render_text`]) or JSON ([`LintReport::to_json`]).
//! Findings can be suppressed per rule with a file-wide comment
//! directive:
//!
//! ```text
//! // cosy-lint: allow(residual-filter-scan): accepted until the store
//! // serves two-key filters natively.
//! ```
//!
//! A directive that suppresses nothing is itself reported
//! (`unused-allow`), so stale suppressions cannot linger silently.
//!
//! The [`LintGate`] integrates the pass into engine construction:
//! `Warn` surfaces findings, `Deny` refuses to load a dirty suite —
//! including suites with a proven division by zero or a unit mismatch.
//!
//! ```
//! use asl_core::parse_and_check;
//!
//! let src = "class TestRun { int NoPe; }\n\
//!            class Dead { int X; }\n\
//!            float Answer = 42.0;\n\
//!            PROPERTY P(TestRun t) {\n\
//!                CONDITION: t.NoPe > 1;\n\
//!                CONFIDENCE: 1;\n\
//!                SEVERITY: 1.0;\n\
//!            }";
//! let spec = parse_and_check(src).unwrap();
//! let report = lint::lint(&spec, src);
//! let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
//! assert!(rules.contains(&"unused-type"));     // class Dead
//! assert!(rules.contains(&"unused-constant")); // Answer
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fold;
pub mod json;
pub mod rules;

use asl_core::{CheckedSpec, Diagnostic, Diagnostics, SourceMap, Span};
use asl_eval::PropCost;
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;

/// A secondary span attached to a finding: part of the dominating span
/// chain (the guard condition that proves a division safe, the
/// condition an unreachable arm is guarded by, the two operands of a
/// unit mismatch).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Note {
    /// The span the note points at.
    pub span: Span,
    /// What that span contributes to the finding.
    pub message: String,
}

/// One lint finding, attributed to a rule and a source span.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Finding {
    /// Stable kebab-case rule name (also the `allow(...)` key).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
    /// The most precise source span the rule could attribute.
    pub span: Span,
    /// The enclosing declaration (`property X`, `function F`, …), or
    /// empty when the finding is not owned by one declaration.
    pub owner: String,
    /// Flow verdict tag, when the finding was decided by the abstract
    /// interpreter: `"proven-div-by-zero"`, `"possible"`, `"proven"`
    /// (unreachable arms, overlaps, unit mismatches, subsumption) or
    /// `"proven-safe"` (proof entries). `None` for syntactic findings.
    pub verdict: Option<&'static str>,
    /// The dominating span chain, innermost first.
    pub notes: Vec<Note>,
}

/// The result of one lint run: active findings, findings suppressed by
/// `allow(...)` directives, flow proofs, and the static per-property
/// cost ranking.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Findings not suppressed by any directive, in source order.
    pub findings: Vec<Finding>,
    /// Findings matched by an `allow(...)` directive, in source order.
    pub suppressed: Vec<Finding>,
    /// Flow proofs: division sites of a flagged shape that the abstract
    /// interpreter proved safe (verdict `"proven-safe"`).
    /// Informational — proofs never make a report dirty.
    pub proofs: Vec<Finding>,
    /// Per-property static cost estimates, most expensive first,
    /// sharpened by flow-proven cardinality bounds.
    pub costs: Vec<PropCost>,
}

impl LintReport {
    /// True when no active finding remains.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the active findings as rustc-style caret snippets against
    /// the source, followed by proof lines and a one-line summary.
    pub fn render_text(&self, source: &str) -> String {
        let map = SourceMap::new(source);
        let mut out = String::new();
        for f in &self.findings {
            let d = Diagnostic::warning(f.span, format!("[{}] {}", f.rule, f.message));
            out.push_str(&d.render_snippet(source, &map));
            if let Some(v) = f.verdict {
                let _ = writeln!(out, "   = verdict: {v}");
            }
            for n in &f.notes {
                let loc = map.locate(n.span.start);
                let _ = writeln!(out, "   = note (line {}): {}", loc.line, n.message);
            }
            if !f.owner.is_empty() {
                let _ = writeln!(out, "   = in {}", f.owner);
            }
        }
        for p in &self.proofs {
            let loc = map.locate(p.span.start);
            let owner = if p.owner.is_empty() {
                String::new()
            } else {
                format!(" (in {})", p.owner)
            };
            let _ = writeln!(
                out,
                "proof: [{}] line {}:{}: {}{}",
                p.rule, loc.line, loc.col, p.message, owner
            );
        }
        let n = self.findings.len();
        let mut extras = Vec::new();
        if !self.suppressed.is_empty() {
            extras.push(format!(
                "{} suppressed by allow directives",
                self.suppressed.len()
            ));
        }
        if !self.proofs.is_empty() {
            extras.push(format!("{} proven safe", self.proofs.len()));
        }
        let extras = if extras.is_empty() {
            String::new()
        } else {
            format!(" ({})", extras.join(", "))
        };
        if n == 0 {
            let _ = writeln!(out, "lint: clean{extras}");
        } else {
            let _ = writeln!(out, "lint: {n} warning{}{extras}", plural(n));
        }
        out
    }

    /// Render the static cost ranking as an aligned text table.
    pub fn render_costs(&self) -> String {
        let mut out = String::from(
            "property                       est.units  ir  idx-loads  scans  cached  depth\n",
        );
        for c in &self.costs {
            let _ = writeln!(
                out,
                "{:<30} {:>9}  {:>2}  {:>9}  {:>5}  {:>6}  {:>5}",
                c.property,
                c.estimated_units,
                c.ir_nodes,
                c.indexed_loads,
                c.scan_constructs,
                c.cached_subtrees,
                c.max_loop_depth
            );
        }
        out
    }

    /// Render the full report (findings, suppressions, proofs, costs)
    /// as JSON.
    pub fn to_json(&self, source: &str) -> String {
        json::report_to_json(self, source)
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// One file-wide `cosy-lint: allow(rule)` directive occurrence, with
/// the span of the rule name inside the directive (so an unused
/// directive can be reported at a real location).
#[derive(Debug, Clone)]
struct AllowDirective {
    rule: String,
    span: Span,
}

/// Scan the source for `cosy-lint: allow(...)` directives (inside
/// comments; the scan is line-based and does not require the directive
/// to parse as ASL).
fn allow_directives(source: &str) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    let mut line_start = 0usize;
    for line in source.split_inclusive('\n') {
        let mut scan = || -> Option<()> {
            let idx = line.find("cosy-lint:")?;
            let rest = &line[idx + "cosy-lint:".len()..];
            let open = rest.find("allow(")?;
            // Byte offset of the first character inside `allow(...)`.
            let inner_start = idx + "cosy-lint:".len() + open + "allow(".len();
            let inner = &line[inner_start..];
            let close = inner.find(')')?;
            let mut at = inner_start;
            for rule in inner[..close].split(',') {
                let trimmed = rule.trim();
                if !trimmed.is_empty() {
                    let lead = rule.len() - rule.trim_start().len();
                    let start = (line_start + at + lead) as u32;
                    out.push(AllowDirective {
                        rule: trimmed.to_string(),
                        span: Span::new(start, start + trimmed.len() as u32),
                    });
                }
                at += rule.len() + 1; // past the comma
            }
            None
        };
        let _ = scan();
        line_start += line.len();
    }
    out
}

/// Run every registered rule over a checked spec.
///
/// `source` must be the text the spec was parsed from: it feeds the
/// `allow(...)` directive scan and all span rendering. Checker warnings
/// recorded on the success path ([`CheckedSpec::warnings`]) are included
/// as `checker-warning` findings, so one gate covers both passes. The
/// spec is compiled to the slot IR, the `kojak-flow` abstract
/// interpreter analyzes it, and the semantic rules (div-by-zero triage,
/// unreachable/overlapping arms, unit mismatch, property subsumption)
/// and the static cost ranking read its results.
pub fn lint(spec: &CheckedSpec, source: &str) -> LintReport {
    let comp = asl_eval::compile(spec);
    let flow_report = flow::analyze(spec, &comp);
    let cx = rules::LintCx::new(spec, &flow_report);
    let mut findings: Vec<Finding> = spec
        .warnings
        .iter()
        .map(|w| Finding {
            rule: "checker-warning",
            message: w.message.clone(),
            span: w.span,
            owner: "checker".to_string(),
            ..Finding::default()
        })
        .collect();
    for rule in rules::all() {
        rule.run(&cx, &mut findings);
    }
    let by_span = |a: &Finding, b: &Finding| {
        (a.span.start, a.span.end, a.rule).cmp(&(b.span.start, b.span.end, b.rule))
    };
    findings.sort_by(by_span);

    // Proof entries (verdict "proven-safe") are informational: they
    // never dirty the report and are not subject to allow directives.
    let (proofs, findings): (Vec<_>, Vec<_>) = findings
        .into_iter()
        .partition(|f| f.verdict == Some("proven-safe"));

    let directives = allow_directives(source);
    let allowed: HashSet<&str> = directives.iter().map(|d| d.rule.as_str()).collect();
    let (mut suppressed, mut findings): (Vec<_>, Vec<_>) =
        findings.into_iter().partition(|f| allowed.contains(f.rule));

    // `unused-allow`: a directive that suppressed nothing is itself a
    // finding, reported at the rule name inside the directive. An
    // `allow(unused-allow)` directive suppresses those in turn — and is
    // itself unused when there was nothing to suppress.
    let used: HashSet<&str> = suppressed.iter().map(|f| f.rule).collect();
    let as_unused = |d: &AllowDirective| Finding {
        rule: "unused-allow",
        message: format!(
            "allow({}) suppresses no findings; remove the stale directive",
            d.rule
        ),
        span: d.span,
        ..Finding::default()
    };
    let mut unused: Vec<Finding> = directives
        .iter()
        .filter(|d| d.rule != "unused-allow" && !used.contains(d.rule.as_str()))
        .map(as_unused)
        .collect();
    let meta: Vec<&AllowDirective> = directives
        .iter()
        .filter(|d| d.rule == "unused-allow")
        .collect();
    if unused.is_empty() {
        unused.extend(meta.into_iter().map(as_unused));
    } else if !meta.is_empty() {
        suppressed.append(&mut unused);
    }
    findings.append(&mut unused);
    findings.sort_by(by_span);
    suppressed.sort_by(by_span);

    let mut costs = comp.property_costs_with_bounds(&|n| flow_report.loop_bound(n));
    costs.sort_by_key(|c| std::cmp::Reverse(c.estimated_units));

    LintReport {
        findings,
        suppressed,
        proofs,
        costs,
    }
}

/// [`lint`], kept for callers written when the flow pass could be
/// switched off: the flag is ignored, and the flow pass always runs.
pub fn lint_with(spec: &CheckedSpec, source: &str, _flow: bool) -> LintReport {
    lint(spec, source)
}

/// Parse, check and lint a source text in one step. Front-end errors
/// (parse or type-check) are returned as [`Diagnostics`]; lint findings
/// are never errors and land in the report.
pub fn lint_source(source: &str) -> Result<LintReport, Diagnostics> {
    let spec = asl_core::parse_and_check(source)?;
    Ok(lint(&spec, source))
}

/// Name and one-line description of every registered rule (plus the
/// pseudo-rules handled outside the registry), for `--help`-style
/// listings.
pub fn rule_catalog() -> Vec<(&'static str, &'static str)> {
    let mut out = vec![
        (
            "checker-warning",
            "warning recorded by the type checker on the success path",
        ),
        (
            "unused-allow",
            "allow(...) directive that suppresses no findings",
        ),
    ];
    out.extend(rules::all().iter().map(|r| (r.name(), r.description())));
    out
}

/// How strictly engine construction treats lint findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintGate {
    /// Accept the suite whatever the pass finds.
    #[default]
    Warn,
    /// Refuse to load a suite with any active finding — including
    /// proven divisions by zero and unit mismatches from the flow pass.
    Deny,
}

/// Why a suite was rejected by a [`LintGate::Deny`] gate.
#[derive(Debug, Clone)]
pub struct GateRejection {
    /// The active findings that caused the rejection.
    pub findings: Vec<Finding>,
    /// The full caret-snippet rendering of those findings.
    pub rendered: String,
}

impl fmt::Display for GateRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lint gate rejected the specification: {} finding{}",
            self.findings.len(),
            plural(self.findings.len())
        )
    }
}

impl std::error::Error for GateRejection {}

impl LintGate {
    /// Apply the gate to a report. `Deny` with any active finding is a
    /// rejection; `Warn` always passes (the caller decides how to surface
    /// the findings).
    pub fn evaluate(self, report: &LintReport, source: &str) -> Result<(), GateRejection> {
        match self {
            LintGate::Deny if !report.is_clean() => Err(GateRejection {
                findings: report.findings.clone(),
                rendered: report.render_text(source),
            }),
            LintGate::Deny | LintGate::Warn => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIRTY: &str = "class TestRun { int NoPe; }\n\
                         float Unused = 1.0;\n\
                         PROPERTY P(TestRun t) {\n\
                             CONDITION: t.NoPe > 0;\n\
                             CONFIDENCE: 1;\n\
                             SEVERITY: 1.0;\n\
                         }";

    #[test]
    fn allow_directive_suppresses_by_rule() {
        let with_allow = format!("// cosy-lint: allow(unused-constant): kept\n{DIRTY}");
        let report = lint_source(&with_allow).unwrap();
        assert!(report.is_clean(), "unexpected: {:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, "unused-constant");
    }

    #[test]
    fn unused_allow_directive_is_reported_at_its_span() {
        let src = format!("// cosy-lint: allow(shadowing): nothing shadows\n{DIRTY}");
        let report = lint_source(&src).unwrap();
        let ua: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.rule == "unused-allow")
            .collect();
        assert_eq!(ua.len(), 1, "{:?}", report.findings);
        assert_eq!(ua[0].span.slice(&src), "shadowing");
        // ... and allow(unused-allow) suppresses it.
        let src2 = format!("// cosy-lint: allow(unused-allow)\n{src}");
        let report2 = lint_source(&src2).unwrap();
        assert!(!report2.findings.iter().any(|f| f.rule == "unused-allow"));
        assert!(report2.suppressed.iter().any(|f| f.rule == "unused-allow"));
        // A lone allow(unused-allow) with nothing to suppress is itself
        // unused.
        let src3 = format!("// cosy-lint: allow(unused-allow)\n{DIRTY}");
        let report3 = lint_source(&src3).unwrap();
        assert!(report3.findings.iter().any(|f| f.rule == "unused-allow"));
    }

    #[test]
    fn gate_deny_rejects_and_warn_passes() {
        let report = lint_source(DIRTY).unwrap();
        assert!(!report.is_clean());
        assert!(LintGate::Warn.evaluate(&report, DIRTY).is_ok());
        let err = LintGate::Deny.evaluate(&report, DIRTY).unwrap_err();
        assert_eq!(err.findings.len(), report.findings.len());
        assert!(err.rendered.contains("unused-constant"));
    }

    #[test]
    fn findings_are_source_ordered_with_real_spans() {
        let report = lint_source(DIRTY).unwrap();
        for f in &report.findings {
            assert_ne!(f.span, Span::default(), "{}: span missing", f.rule);
        }
        let starts: Vec<u32> = report.findings.iter().map(|f| f.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn cost_ranking_is_descending() {
        let report = lint_source(DIRTY).unwrap();
        assert_eq!(report.costs.len(), 1);
        let json = report.to_json(DIRTY);
        assert!(json.contains("\"property\":\"P\""));
        assert!(json.contains("\"schema\":1"));
    }
}
