//! `subsumed-property`: a whole-suite pass over the flow results. A
//! property `P` is *subsumed* by `Q` when they range over the same
//! parameter signature, `P`'s condition provably implies `Q`'s
//! (constraint-set implication over canonical expression keys), and
//! `Q` reports at equal-or-higher severity — so every apprenticeship
//! bottleneck `P` would flag, `Q` already flags at least as loudly and
//! on a strictly larger run set. `P` is redundant.
//!
//! The comparison is deliberately narrow: single-condition properties
//! with a single severity arm, implication only through representable
//! interval atoms (opaque conjuncts on the conclusion side block it),
//! and an unsatisfiable premise never counts (that is dead code,
//! reported elsewhere). On mutual implication the later-declared
//! property is reported.

use super::{LintCx, LintRule};
use crate::{Finding, Note};
use flow::PropFlow;

/// See module docs.
pub struct SubsumedProperty;

/// Is `p`'s single severity arm dominated by `q`'s (equal canonical
/// expression, or both constants with `p`'s not above `q`'s)?
fn severity_dominated(p: &PropFlow, q: &PropFlow) -> bool {
    let [a] = p.severity.as_slice() else {
        return false;
    };
    let [b] = q.severity.as_slice() else {
        return false;
    };
    a.key == b.key || matches!((a.konst, b.konst), (Some(x), Some(y)) if x <= y)
}

/// Does `q` subsume `p`?
fn subsumes(q: &PropFlow, p: &PropFlow) -> bool {
    if p.param_sig != q.param_sig || p.param_sig.is_empty() {
        return false;
    }
    let ([pc], [qc]) = (p.conditions.as_slice(), q.conditions.as_slice()) else {
        return false;
    };
    !pc.constraints.unsat()
        && !qc.constraints.atoms.is_empty()
        && pc.constraints.implies(&qc.constraints)
        && severity_dominated(p, q)
}

impl LintRule for SubsumedProperty {
    fn name(&self) -> &'static str {
        "subsumed-property"
    }

    fn description(&self) -> &'static str {
        "property whose condition implies another's at equal-or-lower severity"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        let props = &cx.flow.properties;
        for i in 0..props.len() {
            for j in i + 1..props.len() {
                let (a, b) = (&props[i], &props[j]);
                // On mutual implication the properties are equivalent:
                // keep the first-declared one, report the later.
                let (subsumed, by) = if subsumes(a, b) {
                    (b, a)
                } else if subsumes(b, a) {
                    (a, b)
                } else {
                    continue;
                };
                let (sc, bc) = (&subsumed.conditions[0], &by.conditions[0]);
                out.push(Finding {
                    rule: self.name(),
                    message: format!(
                        "property `{}` is subsumed by `{}`: whenever its condition \
                         holds, `{}`'s condition holds too, at equal-or-higher severity",
                        subsumed.name, by.name, by.name
                    ),
                    span: sc.span,
                    owner: format!("property {}", subsumed.name),
                    verdict: Some("proven"),
                    notes: vec![Note {
                        span: bc.span,
                        message: format!("the subsuming condition of `{}`", by.name),
                    }],
                });
            }
        }
    }
}
