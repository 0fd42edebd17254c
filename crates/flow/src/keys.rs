//! Structural expression keys.
//!
//! Guard facts, constraint atoms and severity arms are matched by *what
//! an expression is*, not by where it sits in the IR: `COUNT(r.TotTimes)`
//! in a guard and the same count in a severity are two nodes with one
//! [`ExprKey`]. A key is interned from the node's operation, its payload
//! and its children's keys, so it is exact — two expressions share a key
//! iff they have the same structure, never because two hashes or two
//! renderings happen to agree (a false match would make a "proven"
//! verdict unsound). One interner serves a whole [`analyze`] call, so
//! keys compare across every property of the spec.
//!
//! What a key abstracts from:
//! - `Cached` wrappers are transparent;
//! - binders are named by their nesting level within the keyed subtree
//!   (alpha-renaming: `{x IN S WITH …}` and `{y IN S WITH …}` agree);
//! - a `LET` load is replaced by its bound expression one level deep —
//!   a `LET` inside that expression stays a slot reference;
//! - parameters are named by position, so keys match across properties
//!   of the same signature.
//!
//! [`analyze`]: crate::analyze

use asl_core::Symbol;
use asl_eval::{CompiledSpec, Ir, NodeRef};
use std::collections::HashMap;

/// Exact structural identity of an expression within one
/// [`analyze`](crate::analyze) call (see the module docs for what it
/// abstracts from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprKey(u32);

/// The declaration body a node is keyed in: what its key depends on
/// besides the node itself.
#[derive(Clone, Copy)]
pub(crate) struct Body<'e> {
    /// Index of the body in the spec, unique per body (constants, then
    /// functions, then properties).
    pub id: u32,
    /// Parameters occupy slots `0..n_params`.
    pub n_params: usize,
    /// `(slot, value)` LET bindings.
    pub lets: &'e [(u32, NodeRef)],
}

impl Body<'_> {
    /// The expression a LET slot is bound to.
    pub fn let_body(&self, slot: u32) -> Option<NodeRef> {
        self.lets.iter().find(|(s, _)| *s == slot).map(|(_, b)| *b)
    }
}

/// The operation of a node in a key: its variant and what it carries
/// besides its children.
type Head = (u8, u64, u64);

/// An absent child (an aggregate without a predicate, a short list).
const NONE: u32 = u32::MAX;
/// The head of a list node holding the fourth and later children.
const LIST: u8 = u8::MAX;
/// A memo entry no body has filled.
const UNSET: (u32, u32) = (u32::MAX, NONE);

/// The interner: one per analysis.
pub(crate) struct Keys {
    /// The operation and up to three child keys; a fourth child and more
    /// are the key of a list node in the third.
    ids: HashMap<(Head, [u32; 3]), u32>,
    /// Per IR node, with LETs resolved and without: the body it was last
    /// keyed in and its key there. Only keys taken outside any binder of
    /// the keyed subtree are kept; they depend on the body alone.
    memo: Vec<[(u32, u32); 2]>,
    /// The binders around the node being keyed; `scope..` of them belong
    /// to the current subtree.
    binders: Vec<u32>,
    /// Child keys of the n-ary nodes being keyed.
    kids: Vec<u32>,
}

impl Keys {
    pub fn new(comp: &CompiledSpec) -> Keys {
        Keys {
            ids: HashMap::new(),
            memo: vec![[UNSET; 2]; comp.node_count()],
            binders: Vec::new(),
            kids: Vec::new(),
        }
    }

    /// The key of `node` in `body`, LETs resolved one level.
    pub fn key(&mut self, comp: &CompiledSpec, body: &Body, node: NodeRef) -> ExprKey {
        let scope = self.binders.len();
        ExprKey(self.of(comp, body, node, true, scope))
    }

    /// The key of `COUNT(source)` in `body`, if any expression keyed so
    /// far has it (a guard fact on it must have been keyed first).
    pub fn count_of(
        &mut self,
        comp: &CompiledSpec,
        body: &Body,
        source: NodeRef,
    ) -> Option<ExprKey> {
        let src = self.key(comp, body, source).0;
        self.ids
            .get(&(count_head(), [src, NONE, NONE]))
            .copied()
            .map(ExprKey)
    }

    /// The key of `node`: `resolve` replaces a LET load by its value,
    /// `self.binders[scope..]` are the binders of the keyed subtree
    /// around it. Memoized when there are none.
    fn of(
        &mut self,
        comp: &CompiledSpec,
        body: &Body,
        node: NodeRef,
        resolve: bool,
        scope: usize,
    ) -> u32 {
        let open = self.binders.len() == scope;
        if open {
            let (owner, key) = self.memo[node as usize][resolve as usize];
            if owner == body.id {
                return key;
            }
        }
        let key = self.build(comp, body, node, resolve, scope);
        if open {
            self.memo[node as usize][resolve as usize] = (body.id, key);
        }
        key
    }

    /// The key of `node`, its children keyed first.
    fn build(
        &mut self,
        comp: &CompiledSpec,
        body: &Body,
        node: NodeRef,
        resolve: bool,
        scope: usize,
    ) -> u32 {
        let level = (self.binders.len() - scope) as u64;
        let mut kids = [NONE; 3];
        let ir = comp.node(node);
        match ir {
            Ir::Load(slot) => {
                let head = match self.binders[scope..].iter().rposition(|b| b == slot) {
                    Some(at) => (0, at as u64, 0),
                    None => match body.let_body(*slot).filter(|_| resolve) {
                        // The bound expression, keyed on its own: no
                        // binder of this subtree reaches into it.
                        Some(value) => {
                            return self.of(comp, body, value, false, self.binders.len())
                        }
                        None if (*slot as usize) < body.n_params => (1, u64::from(*slot), 0),
                        None => (2, u64::from(*slot), 0),
                    },
                };
                return intern(&mut self.ids, head, &[]);
            }
            Ir::Cached { expr, .. } => return self.of(comp, body, *expr, resolve, scope),
            Ir::Call { args, .. } | Ir::CallUnknown { args, .. } | Ir::MinMax { args, .. } => {
                let start = self.kids.len();
                for a in args.iter() {
                    let k = self.of(comp, body, *a, resolve, scope);
                    self.kids.push(k);
                }
                let key = intern(&mut self.ids, head(ir, level), &self.kids[start..]);
                self.kids.truncate(start);
                return key;
            }
            Ir::Attr { base: i, .. } | Ir::Unary(_, i) | Ir::Unique(i) | Ir::CountSet(i) => {
                kids[0] = self.of(comp, body, *i, resolve, scope);
            }
            Ir::Binary(_, l, r) => {
                kids[0] = self.of(comp, body, *l, resolve, scope);
                kids[1] = self.of(comp, body, *r, resolve, scope);
            }
            Ir::FilterEq { obj, key, .. } => {
                kids[0] = self.of(comp, body, *obj, resolve, scope);
                kids[1] = self.of(comp, body, *key, resolve, scope);
            }
            Ir::SetComp {
                slot, source, pred, ..
            } => {
                kids[0] = self.of(comp, body, *source, resolve, scope);
                self.binders.push(*slot);
                kids[1] = self.of(comp, body, *pred, resolve, scope);
                self.binders.pop();
            }
            Ir::Aggregate {
                slot,
                source,
                value,
                pred,
                ..
            } => {
                kids[0] = self.of(comp, body, *source, resolve, scope);
                self.binders.push(*slot);
                kids[1] = self.of(comp, body, *value, resolve, scope);
                if let Some(p) = pred {
                    kids[2] = self.of(comp, body, *p, resolve, scope);
                }
                self.binders.pop();
            }
            Ir::Quantifier {
                slot, source, pred, ..
            } => {
                kids[0] = self.of(comp, body, *source, resolve, scope);
                self.binders.push(*slot);
                if let Some(p) = pred {
                    kids[1] = self.of(comp, body, *p, resolve, scope);
                }
                self.binders.pop();
            }
            _ => {}
        }
        intern(&mut self.ids, head(ir, level), &kids)
    }
}

/// The key of `head` over `kids`, interned.
fn intern(ids: &mut HashMap<(Head, [u32; 3]), u32>, head: Head, kids: &[u32]) -> u32 {
    let mut slots = [NONE; 3];
    if kids.len() <= 3 {
        slots[..kids.len()].copy_from_slice(kids);
    } else {
        slots[..2].copy_from_slice(&kids[..2]);
        slots[2] = intern(ids, (LIST, kids.len() as u64, 0), &kids[2..]);
    }
    let next = ids.len() as u32;
    *ids.entry((head, slots)).or_insert(next)
}

fn count_head() -> Head {
    head(&Ir::CountSet(0), 0)
}

/// The head of a node that is neither a load nor a cache wrapper;
/// `level` is the number of binders of the keyed subtree around it.
fn head(ir: &Ir, level: u64) -> Head {
    let sym = |s: &str| u64::from(Symbol::intern(s).id());
    match ir {
        Ir::Int(v) => (3, *v as u64, 0),
        // Every NaN is one value to the analysis; `0.0` and `-0.0` are two.
        Ir::Float(v) if v.is_nan() => (4, f64::NAN.to_bits(), 0),
        Ir::Float(v) => (4, v.to_bits(), 0),
        Ir::Bool(b) => (5, u64::from(*b), 0),
        Ir::Str(i) => (6, u64::from(*i), 0),
        Ir::Const(i) => (7, u64::from(*i), 0),
        Ir::EnumVal(owner, variant) => (8, u64::from(owner.id()), u64::from(variant.id())),
        Ir::UnknownVar(i) => (9, u64::from(*i), 0),
        Ir::Attr { attr, .. } => (10, sym(attr), 0),
        Ir::Call { func, .. } => (11, u64::from(*func), 0),
        Ir::CallUnknown { name, .. } => (12, u64::from(*name), 0),
        Ir::MinMax { is_max, .. } => (13, u64::from(*is_max), 0),
        Ir::Unary(op, _) => (14, *op as u64, 0),
        Ir::Binary(op, ..) => (15, *op as u64, 0),
        // A binder's level is part of its construct, as it is part of the
        // construct's meaning to the loads below it.
        Ir::SetComp { .. } => (16, level, 0),
        Ir::Unique(_) => (17, 0, 0),
        Ir::Aggregate { op, .. } => (18, *op as u64, level),
        Ir::Quantifier { forall, .. } => (19, u64::from(*forall), level),
        Ir::CountSet(_) => (20, 0, 0),
        Ir::FilterEq {
            set_attr,
            elem_attr,
            ..
        } => (21, sym(set_attr), sym(elem_attr)),
        Ir::Load(_) | Ir::Cached { .. } => {
            unreachable!("loads and caches key through their target")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, DivVerdict, FlowReport, PropFlow};
    use asl_eval::COSY_DATA_MODEL;

    fn leaf(ids: &mut HashMap<(Head, [u32; 3]), u32>, ir: Ir) -> u32 {
        intern(ids, head(&ir, 0), &[])
    }

    #[test]
    fn literals_key_by_value_and_kind() {
        let mut ids = HashMap::new();
        let nan = leaf(&mut ids, Ir::Float(f64::NAN));
        assert_eq!(
            nan,
            leaf(&mut ids, Ir::Float(-f64::NAN)),
            "every NaN is one key"
        );
        assert_eq!(
            nan,
            leaf(&mut ids, Ir::Float(f64::from_bits(0x7ff8_0000_0000_0001)))
        );
        assert_ne!(
            leaf(&mut ids, Ir::Float(0.0)),
            leaf(&mut ids, Ir::Float(-0.0))
        );
        assert_ne!(leaf(&mut ids, Ir::Int(1)), leaf(&mut ids, Ir::Float(1.0)));
        assert_eq!(leaf(&mut ids, Ir::Int(1)), leaf(&mut ids, Ir::Int(1)));
    }

    /// Analyze `properties` under the COSY data model.
    fn flow_of(properties: &str) -> (asl_eval::CompiledSpec, FlowReport) {
        let src = format!("{COSY_DATA_MODEL}\n{properties}");
        let spec = asl_core::parse_and_check(&src)
            .unwrap_or_else(|d| panic!("does not check:\n{}", d.render(&src)));
        let comp = asl_eval::compile(&spec);
        let report = analyze(&spec, &comp);
        (comp, report)
    }

    fn prop<'r>(report: &'r FlowReport, name: &str) -> &'r PropFlow {
        report.property(name).expect("property analyzed")
    }

    /// The key of a property's sole severity arm.
    fn arm(report: &FlowReport, name: &str) -> ExprKey {
        let [arm] = prop(report, name).severity.as_slice() else {
            panic!("{name} has one severity arm");
        };
        arm.key
    }

    /// The key of the first atom of a property's first condition.
    fn atom(report: &FlowReport, name: &str) -> ExprKey {
        prop(report, name).conditions[0].constraints.atoms[0].key
    }

    #[test]
    fn a_literal_one_and_one_point_zero_are_two_arms() {
        let (_, report) = flow_of(
            "Property I(Region r, TestRun t) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1; }
             Property F(Region r, TestRun t) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1.0; }
             Property G(Region r, TestRun t) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1.0; }",
        );
        assert_ne!(arm(&report, "I"), arm(&report, "F"));
        assert_eq!(arm(&report, "F"), arm(&report, "G"));
    }

    #[test]
    fn binders_are_alpha_renamed_across_properties() {
        // `B` binds a LET first, so its binder sits in another slot.
        let (_, report) = flow_of(
            "Property A(Region r, TestRun t) {
                 CONDITION: TRUE; CONFIDENCE: 1;
                 SEVERITY: SUM(s.Excl WHERE s IN r.TotTimes AND s.Incl > 0.0);
             }
             Property B(Region r, TestRun t) {
                 LET float Unused = 1.0
                 IN CONDITION: Unused > 0.0; CONFIDENCE: 1;
                 SEVERITY: SUM(u.Excl WHERE u IN r.TotTimes AND u.Incl > 0.0);
             }
             Property C(Region r, TestRun t) {
                 CONDITION: TRUE; CONFIDENCE: 1;
                 SEVERITY: SUM(s.Incl WHERE s IN r.TotTimes AND s.Incl > 0.0);
             }",
        );
        assert_eq!(arm(&report, "A"), arm(&report, "B"));
        assert_ne!(arm(&report, "A"), arm(&report, "C"));
    }

    #[test]
    fn a_parameter_is_not_a_constant_of_its_positional_name() {
        let (_, report) = flow_of(
            "float p0 = 5.0;
             Property Collide(float x, Region r) {
                 CONDITION: x > 1.0; CONFIDENCE: 1; SEVERITY: 1.0 / (x - p0);
             }
             Property Same(float x, Region r) {
                 CONDITION: x > 1.0; CONFIDENCE: 1; SEVERITY: 1.0 / (x - x);
             }",
        );
        let collide = &prop(&report, "Collide").divisions[0];
        assert_eq!(collide.verdict, DivVerdict::Unknown, "{}", collide.reason);
        assert!(!collide.triggered);
        let same = &prop(&report, "Same").divisions[0];
        assert_eq!(same.verdict, DivVerdict::ProvenZero);
    }

    #[test]
    fn a_let_of_a_let_resolves_once() {
        // `M` resolves to `N`'s slot, not on through `N` to the count;
        // `Twin` has the same slots, `Direct` guards the count itself.
        let (_, report) = flow_of(
            "Property Chained(Region r, TestRun t) {
                 LET int N = COUNT(r.TotTimes); int M = N
                 IN CONDITION: M > 0; CONFIDENCE: 1; SEVERITY: 1.0;
             }
             Property Twin(Region r, TestRun t) {
                 LET int K = COUNT(r.TypTimes); int J = K
                 IN CONDITION: J > 0; CONFIDENCE: 1; SEVERITY: 1.0;
             }
             Property Direct(Region r, TestRun t) {
                 LET int N = COUNT(r.TotTimes)
                 IN CONDITION: N > 0; CONFIDENCE: 1; SEVERITY: 1.0;
             }
             Property Written(Region r, TestRun t) {
                 CONDITION: COUNT(r.TotTimes) > 0; CONFIDENCE: 1; SEVERITY: 1.0;
             }",
        );
        assert_eq!(atom(&report, "Chained"), atom(&report, "Twin"));
        assert_ne!(atom(&report, "Chained"), atom(&report, "Direct"));
        assert_eq!(atom(&report, "Direct"), atom(&report, "Written"));
    }

    #[test]
    fn a_count_guard_bounds_a_cached_loop_source() {
        // The inner SUM reads the outer binder `tt`, so only its source is
        // hoisted: the loop runs over a `Cached` set comprehension.
        let (comp, report) = flow_of(
            "Property Bounded(Region r, TestRun t) {
                 CONDITION: (few) COUNT({s IN r.TotTimes WITH s.Excl > 0.0}) <= 8;
                 CONFIDENCE: 1;
                 SEVERITY: MAX((few) -> SUM(SUM(x.Incl WHERE x IN
                     {s IN r.TotTimes WITH s.Excl > 0.0} AND x.Incl > tt.Time)
                     WHERE tt IN r.TypTimes));
             }",
        );
        let cached: Vec<NodeRef> = (0..comp.node_count() as NodeRef)
            .filter_map(|n| match comp.node(n) {
                Ir::Aggregate { source, .. } => match comp.node(*source) {
                    Ir::Cached { expr, .. } => Some(*expr),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(cached.len(), 1, "one loop over a hoisted source");
        assert_eq!(report.loop_bound(cached[0]), Some(8));
    }

    #[test]
    fn a_guard_reaches_a_cached_denominator() {
        // The count is loop-invariant in the SUM, so the denominator the
        // division reads is a `Cached` wrapper around it.
        let (comp, report) = flow_of(
            "Property PerType(Region r, TestRun t) {
                 CONDITION: (has) COUNT(r.TotTimes) > 0;
                 CONFIDENCE: 1;
                 SEVERITY: MAX((has) -> SUM(x.Time / COUNT(r.TotTimes) WHERE x IN r.TypTimes));
             }",
        );
        let cached_den = (0..comp.node_count() as NodeRef).any(|n| {
            matches!(comp.node(n), Ir::Binary(asl_core::ast::BinOp::Div, _, d)
                if matches!(comp.node(*d), Ir::Cached { .. }))
        });
        assert!(cached_den, "the denominator is hoisted");
        let div = &prop(&report, "PerType").divisions[0];
        assert_eq!(div.verdict, DivVerdict::ProvenSafe);
        assert_eq!(div.guard.as_deref(), Some("(has)"), "{}", div.reason);
    }
}
