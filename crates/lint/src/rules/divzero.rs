//! `possible-div-by-zero`: a division (or modulo) whose denominator
//! *provably* can be zero — it folds to zero, it is a `COUNT` (zero on
//! an empty set), or it is `E - E`, possibly through one `LET` binding,
//! so the common `LET int N = COUNT(…) … / N` idiom is caught.
//!
//! The rule is deliberately one-sided: attribute loads and calls have
//! unknown ranges and stay quiet. Every site of one of those shapes is
//! triaged by the abstract interpreter ([`LintCx::flow`]): a finding
//! carries a verdict (`proven-div-by-zero` / `possible`), and sites the
//! interpreter proves safe — by their value range or by a guarding
//! condition such as `N > 0` — become [proof
//! entries](crate::LintReport::proofs) with the proving guard in the span
//! chain.

use super::{LintCx, LintRule};
use crate::{Finding, Note};
use flow::{DivSite, DivVerdict};

/// See module docs.
pub struct PossibleDivByZero;

/// Translate flow division sites for one owner into findings/proofs.
/// Only *triggered* sites (denominators of one of the shapes above)
/// surface at all; the interpreter decides their verdicts.
fn emit_flow_sites(rule: &'static str, owner: &str, sites: &[DivSite], out: &mut Vec<Finding>) {
    for s in sites.iter().filter(|s| s.triggered) {
        let what = if s.is_mod { "modulo" } else { "division" };
        let (verdict, message) = match s.verdict {
            DivVerdict::ProvenZero => (
                "proven-div-by-zero",
                format!("proven {what} by zero: {}", s.reason),
            ),
            DivVerdict::Possible => ("possible", format!("possible {what} by zero: {}", s.reason)),
            DivVerdict::ProvenSafe => ("proven-safe", format!("{what} proven safe: {}", s.reason)),
            DivVerdict::Unknown => continue,
        };
        let notes = match (&s.guard, s.guard_span) {
            (Some(g), Some(span)) => vec![Note {
                span,
                message: format!("condition {g} proves the denominator nonzero"),
            }],
            _ => Vec::new(),
        };
        out.push(Finding {
            rule,
            message,
            span: s.span,
            owner: owner.to_string(),
            verdict: Some(verdict),
            notes,
        });
    }
}

impl LintRule for PossibleDivByZero {
    fn name(&self) -> &'static str {
        "possible-div-by-zero"
    }

    fn description(&self) -> &'static str {
        "division whose denominator provably can be zero"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        let rule = LintRule::name(self);
        for d in cx.flow.consts.iter().chain(&cx.flow.functions) {
            emit_flow_sites(rule, &d.owner, &d.divisions, out);
        }
        for p in &cx.flow.properties {
            let owner = format!("property {}", p.name);
            emit_flow_sites(rule, &owner, &p.divisions, out);
        }
    }
}
