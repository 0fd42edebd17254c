//! `unit-mismatch`: the flow pass infers a unit/dimension for every
//! numeric expression (time, count, bytes and their quotients, seeded
//! from the `perfdata` attribute schema) and this rule reports the
//! sites where an addition, subtraction or ordered comparison mixes
//! two *different proven* dimensions — adding a time to a count,
//! comparing a ratio against a time. Dimensionless or unknown operands
//! never fire, so the common `Ratio > 0.25` threshold idiom stays
//! quiet.

use super::{LintCx, LintRule};
use crate::{Finding, Note};
use asl_core::ast::BinOp;
use flow::UnitMismatch;

/// See module docs.
pub struct UnitMismatchRule;

fn emit(owner: &str, mismatches: &[UnitMismatch], out: &mut Vec<Finding>) {
    for m in mismatches {
        let message = match m.op {
            BinOp::Add | BinOp::Sub => format!(
                "unit mismatch: cannot {} `{}` ({}) and `{}` ({})",
                if m.op == BinOp::Add {
                    "add"
                } else {
                    "subtract"
                },
                m.left.display,
                m.left.unit,
                m.right.display,
                m.right.unit
            ),
            _ => format!(
                "unit mismatch: comparing `{}` ({}) against `{}` ({})",
                m.left.display, m.left.unit, m.right.display, m.right.unit
            ),
        };
        out.push(Finding {
            rule: "unit-mismatch",
            message,
            span: m.span,
            owner: owner.to_string(),
            verdict: Some("proven"),
            notes: vec![
                Note {
                    span: m.left.span,
                    message: format!("`{}` has unit {}", m.left.display, m.left.unit),
                },
                Note {
                    span: m.right.span,
                    message: format!("`{}` has unit {}", m.right.display, m.right.unit),
                },
            ],
        });
    }
}

impl LintRule for UnitMismatchRule {
    fn name(&self) -> &'static str {
        "unit-mismatch"
    }

    fn description(&self) -> &'static str {
        "arithmetic or comparison mixing two different proven units"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        for d in cx.flow.consts.iter().chain(&cx.flow.functions) {
            emit(&d.owner, &d.units, out);
        }
        for p in &cx.flow.properties {
            emit(&format!("property {}", p.name), &p.units, out);
        }
    }
}
