//! Condition/arm lints: constant conditions, unreachable guarded arms,
//! and overlapping `MAX` arms.
//!
//! Constant conditions are found by constant folding. The other two are
//! decided by the abstract interpreter over arbitrary guard expressions:
//! an arm is unreachable when it proves the arm's guard condition
//! `False`, and two `MAX` arms overlap when one guard's constraint set
//! implies the other's.

use super::{LintCx, LintRule};
use crate::fold::Const;
use crate::{Finding, Note};
use asl_core::ast::Condition;
use flow::Tri;
use std::collections::HashMap;

/// Display label for a condition: its id when named, its 1-based index
/// otherwise.
fn cond_label(c: &Condition, index: usize) -> String {
    match &c.id {
        Some(id) => format!("({})", id.name),
        None => format!("#{}", index + 1),
    }
}

/// `constant-condition`: a property condition folds to a constant.
pub struct ConstantCondition;

impl LintRule for ConstantCondition {
    fn name(&self) -> &'static str {
        "constant-condition"
    }

    fn description(&self) -> &'static str {
        "property condition that folds to a compile-time constant"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        for p in &cx.spec.spec.properties {
            for (i, c) in p.conditions.iter().enumerate() {
                if let Some(Const::Bool(b)) = cx.folder.fold(&c.expr) {
                    out.push(Finding {
                        rule: self.name(),
                        message: format!(
                            "condition `{}` is constantly {}",
                            cond_label(c, i),
                            if b { "TRUE" } else { "FALSE" }
                        ),
                        span: c.span,
                        owner: format!("property {}", p.name.name),
                        ..Finding::default()
                    });
                }
            }
        }
    }
}

/// `unreachable-arm`: a confidence/severity arm whose guard condition the
/// abstract interpreter proves `False` over all runs can never be
/// selected — constant folding is the simplest case, a provably empty
/// solution set of an arbitrary guard the general one.
pub struct UnreachableArm;

impl LintRule for UnreachableArm {
    fn name(&self) -> &'static str {
        "unreachable-arm"
    }

    fn description(&self) -> &'static str {
        "guarded arm whose condition can never hold"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        for p in &cx.spec.spec.properties {
            let Some(pf) = cx.flow.property(&p.name.name) else {
                continue;
            };
            let false_conds: Vec<&flow::CondFlow> = pf
                .conditions
                .iter()
                .filter(|c| c.value == Tri::False && c.id.is_some())
                .collect();
            if false_conds.is_empty() {
                continue;
            }
            for (section, spec) in [("confidence", &p.confidence), ("severity", &p.severity)] {
                for arm in &spec.arms {
                    let Some(guard) = &arm.guard else { continue };
                    let Some(cf) = false_conds
                        .iter()
                        .find(|c| c.id.as_deref() == Some(guard.name.as_str()))
                    else {
                        continue;
                    };
                    // Name the stronger reason when folding alone decides
                    // it; the lint goldens and the benchmark's lint-JSON
                    // hashes pin both wordings.
                    let folded = p
                        .conditions
                        .iter()
                        .find(|c| c.id.as_ref().is_some_and(|i| i.name == guard.name))
                        .is_some_and(|c| cx.folder.fold(&c.expr) == Some(Const::Bool(false)));
                    let how = if folded {
                        "the condition is constantly FALSE"
                    } else {
                        "the condition can never hold"
                    };
                    out.push(Finding {
                        rule: LintRule::name(self),
                        message: format!(
                            "{section} arm guarded by `({})` is unreachable: {how}",
                            guard.name
                        ),
                        span: arm.span,
                        owner: format!("property {}", p.name.name),
                        verdict: Some("proven"),
                        notes: vec![Note {
                            span: cf.span,
                            message: format!(
                                "guard condition {} proven unsatisfiable here",
                                cf.label
                            ),
                        }],
                    });
                }
            }
        }
    }
}

/// `overlapping-arms`: two arms of one `MAX` section are guarded by
/// conditions where one's constraint set implies the other's — the
/// "specialized" arm never fires alone, which usually means the
/// thresholds were meant to be mutually exclusive.
pub struct OverlappingArms;

impl LintRule for OverlappingArms {
    fn name(&self) -> &'static str {
        "overlapping-arms"
    }

    fn description(&self) -> &'static str {
        "MAX arms guarded by conditions where one implies the other"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        for p in &cx.spec.spec.properties {
            let Some(pf) = cx.flow.property(&p.name.name) else {
                continue;
            };
            // Constraint view (and span) per named condition.
            let by_id: HashMap<&str, &flow::CondFlow> = pf
                .conditions
                .iter()
                .filter_map(|c| c.id.as_deref().map(|i| (i, c)))
                .collect();
            for (section, spec) in [("confidence", &p.confidence), ("severity", &p.severity)] {
                if !spec.is_max {
                    continue;
                }
                let guards: Vec<&asl_core::ast::Arm> = spec
                    .arms
                    .iter()
                    .filter(|a| {
                        a.guard
                            .as_ref()
                            .is_some_and(|g| by_id.contains_key(g.name.as_str()))
                    })
                    .collect();
                for (i, a) in guards.iter().enumerate() {
                    for b in &guards[i + 1..] {
                        let (ga, gb) = (
                            a.guard.as_ref().expect("filtered on guard"),
                            b.guard.as_ref().expect("filtered on guard"),
                        );
                        if ga.name == gb.name {
                            continue;
                        }
                        let (ca, cb) = (by_id[ga.name.as_str()], by_id[gb.name.as_str()]);
                        // An unsatisfiable premise implies everything;
                        // that is unreachable-arm's finding, not ours.
                        // A conclusion with no representable atom would
                        // make the implication vacuous — require one.
                        let fwd = !ca.constraints.unsat()
                            && !cb.constraints.atoms.is_empty()
                            && ca.constraints.implies(&cb.constraints);
                        let bwd = !cb.constraints.unsat()
                            && !ca.constraints.atoms.is_empty()
                            && cb.constraints.implies(&ca.constraints);
                        // Report at the implied (weaker) guard; on
                        // mutual implication report only once.
                        let (strong, weak, sc, wc) = if fwd {
                            (ga, gb, ca, cb)
                        } else if bwd {
                            (gb, ga, cb, ca)
                        } else {
                            continue;
                        };
                        out.push(Finding {
                            rule: self.name(),
                            message: format!(
                                "{section} arms overlap: whenever `({})` holds, `({})` \
                                 holds too (the guard constraints are nested, not \
                                 exclusive)",
                                strong.name, weak.name
                            ),
                            span: weak.span,
                            owner: format!("property {}", p.name.name),
                            verdict: Some("proven"),
                            notes: vec![
                                Note {
                                    span: sc.span,
                                    message: format!("the stronger condition {} …", sc.label),
                                },
                                Note {
                                    span: wc.span,
                                    message: format!("… implies the weaker condition {}", wc.label),
                                },
                            ],
                        });
                    }
                }
            }
        }
    }
}
