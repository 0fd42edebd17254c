//! The fixpoint abstract interpreter over the compiled IR.
//!
//! [`analyze`] walks the exact slot-indexed program the compiled engine
//! executes ([`asl_eval::CompiledSpec`]) — not the AST — so every claim
//! it makes is about the code that actually runs:
//!
//! 1. **Fixpoint over declarations.** Global constants and helper
//!    functions are summarized bottom-up: summaries start at `Bottom`,
//!    are joined round-by-round (widening after a few rounds bounds the
//!    iteration), and anything still `Bottom` afterwards (dead or
//!    recursive beyond the cutoff) is topped off from its declared type.
//! 2. **Per-property pass.** Parameters are seeded from the model
//!    signature (with units from [`perfdata::attr_unit`] propagating
//!    through attribute loads), `LET`s are evaluated in order,
//!    conditions are decided three-valued, and each confidence/severity
//!    arm is re-evaluated under the *facts* of its guard — the
//!    conjunction of interval constraints the guard condition implies.
//! 3. **Verdicts.** Every division/modulo site gets a [`DivVerdict`];
//!    unit mismatches and per-condition constraint sets are recorded;
//!    `COUNT`-guard upper bounds are exported for the static cost
//!    model ([`asl_eval::CompiledSpec::property_costs_with_bounds`]).
//!
//! Everything is conservative: `Unknown` never justifies a finding, and
//! the soundness property test checks `ProvenSafe` / proven-`False`
//! claims against both runtime backends.

use crate::domain::{cmp_tri, AbsVal, Itv, Tri, Unit};
use asl_core::ast::{AggOp, BinOp, UnOp};
use asl_core::types::Type;
use asl_core::{CheckedSpec, Span};
use asl_eval::{CompiledSpec, FnIr, Ir, NodeRef, PropIr};
use std::collections::HashMap;

/// Verdict for one division/modulo site, ordered from worst to best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivVerdict {
    /// The denominator is provably zero whenever the site executes.
    ProvenZero,
    /// The denominator's shape can produce zero and the analysis cannot
    /// rule it out (the classic "possible division by zero").
    Possible,
    /// No claim either way (silent in the lint: the denominator's shape
    /// is not one whose range provably includes zero).
    Unknown,
    /// The denominator is provably nonzero whenever the site executes.
    ProvenSafe,
}

impl DivVerdict {
    /// Stable lowercase tag (JSON output, golden files).
    pub fn tag(self) -> &'static str {
        match self {
            DivVerdict::ProvenZero => "proven-div-by-zero",
            DivVerdict::Possible => "possible",
            DivVerdict::Unknown => "unknown",
            DivVerdict::ProvenSafe => "proven-safe",
        }
    }
}

/// One division/modulo site the interpreter visited.
#[derive(Debug, Clone)]
pub struct DivSite {
    /// Span of the denominator expression.
    pub span: Span,
    /// `true` for `%`, `false` for `/`.
    pub is_mod: bool,
    /// The verdict.
    pub verdict: DivVerdict,
    /// Whether the denominator has a *trigger shape* — one of the forms
    /// whose range provably includes zero (constant zero, `COUNT`,
    /// `E - E`, possibly through one `LET`). Only triggered sites
    /// surface as lint findings; a denominator of unknown range, such as
    /// an attribute load, stays silent.
    pub triggered: bool,
    /// Human-readable reason: why zero is possible/proven, or what
    /// proves the site safe.
    pub reason: String,
    /// Label of the guard condition whose facts proved safety, if
    /// safety came from a guard rather than the value range itself.
    pub guard: Option<String>,
    /// Span of the guard condition (for the dominating span chain).
    pub guard_span: Option<Span>,
}

/// A provable unit mismatch at an arithmetic/comparison site.
#[derive(Debug, Clone)]
pub struct UnitMismatch {
    /// Span of the whole offending expression.
    pub span: Span,
    /// The operator.
    pub op: BinOp,
    /// Left operand.
    pub left: OperandUnit,
    /// Right operand.
    pub right: OperandUnit,
}

/// One operand of a [`UnitMismatch`].
#[derive(Debug, Clone)]
pub struct OperandUnit {
    /// Display rendering of the operand expression.
    pub display: String,
    /// Its inferred unit.
    pub unit: Unit,
    /// Its span (for the span chain in the report).
    pub span: Span,
}

/// One interval constraint `key ∈ itv` extracted from a guard conjunct.
#[derive(Debug, Clone)]
pub struct Atom {
    /// Canonical rendering of the constrained expression (structural
    /// key; LETs resolved one level, binders alpha-renamed).
    pub key: String,
    /// Human-readable rendering (real parameter/LET names).
    pub display: String,
    /// The solution interval, already met with the expression's own
    /// abstract range.
    pub itv: Itv,
    /// Span of the conjunct the atom came from.
    pub span: Span,
}

/// A guard condition as a conjunction of interval constraints plus a
/// count of conjuncts the solver could not represent.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    /// Representable conjuncts.
    pub atoms: Vec<Atom>,
    /// Conjuncts the solver had to treat as opaque. They strengthen the
    /// premise side of an implication but block the conclusion side.
    pub opaque: usize,
    /// A conjunct folded to literal `FALSE`.
    pub unsat_literal: bool,
}

impl ConstraintSet {
    /// Is the conjunction provably unsatisfiable?
    pub fn unsat(&self) -> bool {
        self.unsat_literal || self.atoms.iter().any(|a| a.itv.is_empty())
    }

    /// Does this conjunction imply `other`? (Sound: every atom of
    /// `other` must be entailed by an atom of `self` on the same key;
    /// opaque conjuncts on the conclusion side block the implication.)
    pub fn implies(&self, other: &ConstraintSet) -> bool {
        if self.unsat() {
            return true;
        }
        if other.opaque > 0 || other.unsat_literal {
            return false;
        }
        other.atoms.iter().all(|b| {
            self.atoms
                .iter()
                .any(|a| a.key == b.key && a.itv.subset_of(&b.itv))
        })
    }

    /// Look up the atom constraining `key`.
    pub fn find(&self, key: &str) -> Option<&Atom> {
        self.atoms.iter().find(|a| a.key == key)
    }

    fn add_atom(&mut self, key: String, display: String, itv: Itv, span: Span) {
        if let Some(a) = self.atoms.iter_mut().find(|a| a.key == key) {
            a.itv = a.itv.meet(&itv);
        } else {
            self.atoms.push(Atom {
                key,
                display,
                itv,
                span,
            });
        }
    }
}

/// Flow results for one property condition.
#[derive(Debug, Clone)]
pub struct CondFlow {
    /// Declared id, if any.
    pub id: Option<String>,
    /// Display label: `(id)` or `#N`.
    pub label: String,
    /// Span of the predicate.
    pub span: Span,
    /// Three-valued outcome over all runs.
    pub value: Tri,
    /// The guard-implication view of the predicate.
    pub constraints: ConstraintSet,
}

/// Canonical view of one severity arm (for cross-property subsumption).
#[derive(Debug, Clone)]
pub struct ArmCanon {
    /// Guard condition index (`None` = unguarded).
    pub guard: Option<usize>,
    /// Canonical rendering of the arm expression.
    pub key: String,
    /// Constant value, when the expression folds.
    pub konst: Option<f64>,
}

/// Flow results for one property.
#[derive(Debug, Clone)]
pub struct PropFlow {
    /// Property name.
    pub name: String,
    /// Canonical parameter type signature (`["Region", "TestRun"]`).
    pub param_sig: Vec<String>,
    /// Per-condition flow, in declaration order.
    pub conditions: Vec<CondFlow>,
    /// Division/modulo sites, in evaluation order.
    pub divisions: Vec<DivSite>,
    /// Unit mismatches, in evaluation order.
    pub units: Vec<UnitMismatch>,
    /// Canonical severity arms.
    pub severity: Vec<ArmCanon>,
}

/// Flow results for one constant or helper-function declaration.
#[derive(Debug, Clone)]
pub struct DeclFlow {
    /// Owner label as the lint prints it (`constant X` / `function F`).
    pub owner: String,
    /// Division/modulo sites in the body.
    pub divisions: Vec<DivSite>,
    /// Unit mismatches in the body.
    pub units: Vec<UnitMismatch>,
}

/// The complete result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Per-constant flow, in declaration order.
    pub consts: Vec<DeclFlow>,
    /// Per-function flow, in declaration order.
    pub functions: Vec<DeclFlow>,
    /// Per-property flow, in declaration order.
    pub properties: Vec<PropFlow>,
    /// Proven loop-source cardinality bounds, keyed by the source's
    /// `NodeRef` (`Cached` wrappers unwrapped).
    bounds: HashMap<NodeRef, u64>,
}

impl FlowReport {
    /// Flow results for a property, by name.
    pub fn property(&self, name: &str) -> Option<&PropFlow> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Proven upper bound on a loop source's cardinality (the oracle for
    /// [`CompiledSpec::property_costs_with_bounds`]).
    pub fn loop_bound(&self, source: NodeRef) -> Option<u64> {
        self.bounds.get(&source).copied()
    }
}

/// Run the abstract interpreter over a compiled specification.
pub fn analyze(spec: &CheckedSpec, comp: &CompiledSpec) -> FlowReport {
    let mut az = Analyzer::new(spec, comp);
    az.fixpoint();
    az.backfill();
    az.report()
}

/// Evaluation context flags threaded through [`Analyzer::eval`].
#[derive(Clone, Copy, Default)]
struct Cx<'e> {
    /// Facts from the active guard condition, keyed by canonical key.
    facts: Option<&'e HashMap<String, Fact>>,
    /// Record division/unit sites (off during the fixpoint and during
    /// re-evaluation, so each site is reported exactly once).
    record: bool,
}

impl<'e> Cx<'e> {
    const QUIET: Cx<'static> = Cx {
        facts: None,
        record: false,
    };
}

/// One fact derived from a guard condition.
#[derive(Debug, Clone)]
struct Fact {
    itv: Itv,
    label: String,
    span: Span,
}

/// Mutable evaluation state for one declaration body.
struct Env<'e> {
    slots: Vec<AbsVal>,
    n_params: usize,
    lets: &'e [(u32, NodeRef)],
    slot_names: HashMap<u32, Box<str>>,
}

impl<'e> Env<'e> {
    fn new(n_slots: usize, n_params: usize, lets: &'e [(u32, NodeRef)]) -> Env<'e> {
        Env {
            slots: vec![AbsVal::Bottom; n_slots],
            n_params,
            lets,
            slot_names: HashMap::new(),
        }
    }

    fn let_body(&self, slot: u32) -> Option<NodeRef> {
        self.lets.iter().find(|(s, _)| *s == slot).map(|(_, b)| *b)
    }
}

/// Collected sites for one declaration body.
#[derive(Default)]
struct Sink {
    divisions: Vec<DivSite>,
    units: Vec<UnitMismatch>,
}

struct Analyzer<'a> {
    spec: &'a CheckedSpec,
    comp: &'a CompiledSpec,
    fns: Vec<FnIr<'a>>,
    /// Abstract values of the global constants (fixpoint state).
    consts: Vec<AbsVal>,
    /// Return summaries of the helper functions (fixpoint state).
    summaries: Vec<AbsVal>,
    /// Exported loop bounds (filled during the property passes).
    bounds: HashMap<NodeRef, u64>,
}

/// Maximum fixpoint rounds; widening kicks in at [`WIDEN_AFTER`].
const MAX_ROUNDS: usize = 8;
const WIDEN_AFTER: usize = 4;

impl<'a> Analyzer<'a> {
    fn new(spec: &'a CheckedSpec, comp: &'a CompiledSpec) -> Analyzer<'a> {
        let fns: Vec<FnIr<'a>> = comp.functions_ir().collect();
        Analyzer {
            spec,
            comp,
            consts: vec![AbsVal::Bottom; comp.consts_ir().count()],
            summaries: vec![AbsVal::Bottom; fns.len()],
            fns,
            bounds: HashMap::new(),
        }
    }

    /// Chaotic iteration over constants and function summaries.
    fn fixpoint(&mut self) {
        for round in 0..MAX_ROUNDS {
            let mut changed = false;
            let consts: Vec<_> = self.comp.consts_ir().collect();
            for (i, c) in consts.iter().enumerate() {
                let mut env = Env::new(c.n_slots, 0, &[]);
                let mut sink = Sink::default();
                let v = self.eval(&mut env, &mut sink, Cx::QUIET, c.body);
                changed |= self.step(round, v, StepTarget::Const(i));
            }
            for f in 0..self.fns.len() {
                let view = self.fns[f];
                let mut env = Env::new(view.n_slots, view.n_params, &[]);
                self.seed_fn_params(&mut env, view.name);
                let mut sink = Sink::default();
                let v = self.eval(&mut env, &mut sink, Cx::QUIET, view.body);
                changed |= self.step(round, v, StepTarget::Fn(f));
            }
            if !changed {
                break;
            }
        }
    }

    fn step(&mut self, round: usize, v: AbsVal, tgt: StepTarget) -> bool {
        let cell = match tgt {
            StepTarget::Const(i) => &mut self.consts[i],
            StepTarget::Fn(i) => &mut self.summaries[i],
        };
        let joined = cell.join(&v);
        let next = if round >= WIDEN_AFTER {
            joined.widen_from(cell)
        } else {
            joined
        };
        if next != *cell {
            *cell = next;
            true
        } else {
            false
        }
    }

    /// Replace any summary still `Bottom` after the fixpoint (recursion
    /// beyond the round cutoff) with the top of its declared type.
    fn backfill(&mut self) {
        let names: Vec<String> = self.comp.consts_ir().map(|c| c.name.to_string()).collect();
        for (i, name) in names.iter().enumerate() {
            if self.consts[i] == AbsVal::Bottom {
                self.consts[i] = match self.spec.model.constants.get(name) {
                    Some(ty) => AbsVal::top_of(ty),
                    None => AbsVal::Other,
                };
            }
        }
        for (i, f) in self.fns.iter().enumerate() {
            if self.summaries[i] == AbsVal::Bottom {
                self.summaries[i] = match self.spec.model.functions.get(f.name) {
                    Some(sig) => AbsVal::top_of(&sig.ret),
                    None => AbsVal::Other,
                };
            }
        }
    }

    fn seed_fn_params(&self, env: &mut Env, name: &str) {
        if let Some(sig) = self.spec.model.functions.get(name) {
            for (i, (pname, ty)) in sig.params.iter().enumerate() {
                if i < env.slots.len() {
                    env.slots[i] = AbsVal::top_of(ty);
                    env.slot_names.insert(i as u32, pname.as_str().into());
                }
            }
        }
    }

    /// Final recording passes: constants, functions, then properties.
    fn report(mut self) -> FlowReport {
        let record = Cx {
            facts: None,
            record: true,
        };
        let mut consts_flow = Vec::new();
        let consts: Vec<_> = self.comp.consts_ir().collect();
        for c in &consts {
            let mut env = Env::new(c.n_slots, 0, &[]);
            let mut sink = Sink::default();
            self.eval(&mut env, &mut sink, record, c.body);
            consts_flow.push(DeclFlow {
                owner: format!("constant {}", c.name),
                divisions: sink.divisions,
                units: sink.units,
            });
        }
        let mut fns_flow = Vec::new();
        for f in self.fns.clone() {
            let mut env = Env::new(f.n_slots, f.n_params, &[]);
            self.seed_fn_params(&mut env, f.name);
            let mut sink = Sink::default();
            self.eval(&mut env, &mut sink, record, f.body);
            fns_flow.push(DeclFlow {
                owner: format!("function {}", f.name),
                divisions: sink.divisions,
                units: sink.units,
            });
        }
        let props: Vec<PropIr<'a>> = self.comp.properties_ir().collect();
        let properties = props.iter().map(|p| self.analyze_property(p)).collect();
        FlowReport {
            consts: consts_flow,
            functions: fns_flow,
            properties,
            bounds: self.bounds,
        }
    }

    fn analyze_property(&mut self, p: &PropIr<'a>) -> PropFlow {
        let record = Cx {
            facts: None,
            record: true,
        };
        let ast = self
            .spec
            .spec
            .properties
            .iter()
            .find(|d| d.name.name == p.name);
        let mut env = Env::new(p.n_slots, p.n_params, p.lets);
        let mut param_sig = Vec::new();
        if let Some(sig) = self.spec.model.properties.get(p.name) {
            for (i, (pname, ty)) in sig.params.iter().enumerate() {
                if i < env.slots.len() {
                    env.slots[i] = AbsVal::top_of(ty);
                    env.slot_names.insert(i as u32, pname.as_str().into());
                }
                param_sig.push(ty.to_string());
            }
        }
        if let Some(decl) = ast {
            for (ldecl, (slot, _)) in decl.lets.iter().zip(p.lets) {
                env.slot_names
                    .insert(*slot, ldecl.name.name.as_str().into());
            }
        }
        let mut sink = Sink::default();
        for &(slot, value) in p.lets {
            let v = self.eval(&mut env, &mut sink, record, value);
            env.slots[slot as usize] = v;
        }
        let mut conditions = Vec::new();
        for (i, (id, pred)) in p.conditions.iter().enumerate() {
            let v = self.eval(&mut env, &mut sink, record, *pred);
            let constraints = self.constraints(&mut env, &mut sink, *pred);
            let mut value = match v {
                AbsVal::Bool(t) => t,
                _ => Tri::Unknown,
            };
            if value == Tri::Unknown && constraints.unsat() {
                value = Tri::False;
            }
            let label = match id {
                Some(name) => format!("({name})"),
                None => format!("#{}", i + 1),
            };
            conditions.push(CondFlow {
                id: id.clone(),
                label,
                span: self.comp.node_span(*pred),
                value,
                constraints,
            });
        }
        // Facts per condition: the constraint atoms, labeled.
        let fact_maps: Vec<HashMap<String, Fact>> = conditions
            .iter()
            .map(|c| {
                c.constraints
                    .atoms
                    .iter()
                    .map(|a| {
                        (
                            a.key.clone(),
                            Fact {
                                itv: a.itv,
                                label: c.label.clone(),
                                span: c.span,
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        // An unguarded arm inherits the sole condition's facts (when the
        // property has exactly one condition, holding implies it fired).
        let sole = (conditions.len() == 1).then_some(0);
        for arm in p.confidence.iter().chain(p.severity) {
            let fid = arm.guard.or(sole);
            let cx = Cx {
                facts: fid.map(|i| &fact_maps[i]),
                record: true,
            };
            self.eval(&mut env, &mut sink, cx, arm.expr);
            // Export COUNT-guard loop bounds for the cost model.
            if let Some(i) = fid {
                self.harvest_bounds(&env, &fact_maps[i], arm.expr);
            }
        }
        let severity = p
            .severity
            .iter()
            .map(|a| ArmCanon {
                guard: a.guard,
                key: self.render(&env, a.expr, RenderMode::CANON, &mut Vec::new()),
                konst: self.const_value(a.expr),
            })
            .collect();
        PropFlow {
            name: p.name.to_string(),
            param_sig,
            conditions,
            divisions: sink.divisions,
            units: sink.units,
            severity,
        }
    }

    /// Walk an arm expression and export proven cardinality bounds for
    /// its loop sources: a guard fact `COUNT(src) ∈ [_, hi]` bounds the
    /// loop over `src` by `hi`.
    fn harvest_bounds(&mut self, env: &Env, facts: &HashMap<String, Fact>, root: NodeRef) {
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            match self.comp.node(n) {
                Ir::Attr { base, .. } => stack.push(*base),
                Ir::Call { args, .. } | Ir::CallUnknown { args, .. } | Ir::MinMax { args, .. } => {
                    stack.extend(args.iter().copied())
                }
                Ir::Unary(_, i) | Ir::Unique(i) | Ir::CountSet(i) => stack.push(*i),
                Ir::Binary(_, l, r) => {
                    stack.push(*l);
                    stack.push(*r);
                }
                Ir::Cached { expr, .. } => stack.push(*expr),
                Ir::FilterEq { obj, key, .. } => {
                    stack.push(*obj);
                    stack.push(*key);
                }
                Ir::SetComp { source, pred, .. } => {
                    self.bound_source(env, facts, *source);
                    stack.push(*source);
                    stack.push(*pred);
                }
                Ir::Aggregate {
                    source,
                    value,
                    pred,
                    ..
                } => {
                    self.bound_source(env, facts, *source);
                    stack.push(*source);
                    stack.push(*value);
                    stack.extend(pred.iter().copied());
                }
                Ir::Quantifier { source, pred, .. } => {
                    self.bound_source(env, facts, *source);
                    stack.push(*source);
                    stack.extend(pred.iter().copied());
                }
                _ => {}
            }
        }
    }

    fn bound_source(&mut self, env: &Env, facts: &HashMap<String, Fact>, source: NodeRef) {
        let src = self.unwrap_cached(source);
        let key = format!(
            "COUNT({})",
            self.render(env, src, RenderMode::CANON, &mut Vec::new())
        );
        if let Some(f) = facts.get(&key) {
            let itv = f.itv.norm();
            if itv.hi.is_finite() && itv.hi >= 0.0 {
                let b = itv.hi as u64;
                self.bounds
                    .entry(src)
                    .and_modify(|cur| *cur = (*cur).min(b))
                    .or_insert(b);
            }
        }
    }

    fn unwrap_cached(&self, mut n: NodeRef) -> NodeRef {
        while let Ir::Cached { expr, .. } = self.comp.node(n) {
            n = *expr;
        }
        n
    }

    // ---- The abstract transfer function ----------------------------

    fn eval(&self, env: &mut Env, sink: &mut Sink, cx: Cx, node: NodeRef) -> AbsVal {
        macro_rules! bot {
            ($v:expr) => {
                if matches!($v, AbsVal::Bottom) {
                    return AbsVal::Bottom;
                }
            };
        }
        let out = match self.comp.node(node) {
            Ir::Int(v) => AbsVal::Num {
                itv: Itv::exact(*v as f64, true),
                unit: Unit::Scalar,
            },
            Ir::Float(v) => AbsVal::Num {
                itv: Itv::exact(*v, false),
                unit: Unit::Scalar,
            },
            Ir::Bool(b) => AbsVal::Bool(Tri::of(*b)),
            Ir::Str(_) | Ir::EnumVal(..) | Ir::UnknownVar(_) => AbsVal::Other,
            Ir::Load(slot) => env.slots[*slot as usize].clone(),
            Ir::Const(i) => self.consts[*i as usize].clone(),
            Ir::Attr { base, attr } => {
                let b = self.eval(env, sink, cx, *base);
                bot!(b);
                self.attr_value(&b, attr)
            }
            Ir::Call { func, args } => {
                let mut any_bot = false;
                for a in args.iter() {
                    any_bot |= matches!(self.eval(env, sink, cx, *a), AbsVal::Bottom);
                }
                if any_bot {
                    AbsVal::Bottom
                } else {
                    self.summaries[*func as usize].clone()
                }
            }
            Ir::CallUnknown { args, .. } => {
                for a in args.iter() {
                    self.eval(env, sink, cx, *a);
                }
                AbsVal::Other
            }
            Ir::MinMax { is_max, args } => {
                let vals: Vec<AbsVal> = args.iter().map(|a| self.eval(env, sink, cx, *a)).collect();
                if vals.iter().any(|v| matches!(v, AbsVal::Bottom)) {
                    return AbsVal::Bottom;
                }
                self.minmax_value(*is_max, &vals)
            }
            Ir::Unary(UnOp::Neg, i) => {
                let v = self.eval(env, sink, cx, *i);
                bot!(v);
                match v.as_num() {
                    Some((itv, unit)) => AbsVal::Num {
                        itv: itv.neg(),
                        unit,
                    },
                    None => AbsVal::Other,
                }
            }
            Ir::Unary(UnOp::Not, i) => {
                let v = self.eval(env, sink, cx, *i);
                bot!(v);
                match v {
                    AbsVal::Bool(t) => AbsVal::Bool(t.not()),
                    _ => AbsVal::Other,
                }
            }
            Ir::Binary(op, l, r) => return self.eval_binary(env, sink, cx, node, *op, *l, *r),
            Ir::SetComp {
                slot, source, pred, ..
            } => {
                let s = self.eval(env, sink, cx, *source);
                bot!(s);
                let (card, class) = set_parts(&s);
                env.slots[*slot as usize] = AbsVal::Obj {
                    class: class.clone(),
                };
                self.eval(env, sink, cx, *pred);
                // Filtering can only shrink the set.
                AbsVal::Set {
                    card: Itv {
                        lo: 0.0,
                        lo_open: false,
                        nonzero: false,
                        ..card
                    },
                    class,
                }
            }
            Ir::Unique(i) => {
                let s = self.eval(env, sink, cx, *i);
                bot!(s);
                let (_, class) = set_parts(&s);
                AbsVal::Obj { class }
            }
            Ir::Aggregate {
                op,
                slot,
                source,
                value,
                pred,
                ..
            } => {
                let s = self.eval(env, sink, cx, *source);
                bot!(s);
                let (card, class) = set_parts(&s);
                env.slots[*slot as usize] = AbsVal::Obj { class };
                if let Some(p) = pred {
                    self.eval(env, sink, cx, *p);
                }
                let v = self.eval(env, sink, cx, *value);
                bot!(v);
                self.aggregate_value(*op, &card, &v)
            }
            Ir::Quantifier {
                slot, source, pred, ..
            } => {
                let s = self.eval(env, sink, cx, *source);
                bot!(s);
                let (_, class) = set_parts(&s);
                env.slots[*slot as usize] = AbsVal::Obj { class };
                if let Some(p) = pred {
                    self.eval(env, sink, cx, *p);
                }
                AbsVal::Bool(Tri::Unknown)
            }
            Ir::CountSet(i) => {
                let s = self.eval(env, sink, cx, *i);
                bot!(s);
                let (card, _) = set_parts(&s);
                AbsVal::Num {
                    itv: card.norm(),
                    unit: Unit::count(),
                }
            }
            Ir::Cached { expr, .. } => self.eval(env, sink, cx, *expr),
            Ir::FilterEq {
                obj, key, set_attr, ..
            } => {
                let o = self.eval(env, sink, cx, *obj);
                bot!(o);
                let k = self.eval(env, sink, cx, *key);
                bot!(k);
                let class = match &o {
                    AbsVal::Obj { class: Some(c) } => {
                        match self.spec.model.attr(c, set_attr).map(|a| &a.ty) {
                            Some(Type::Set(elem)) => match elem.as_ref() {
                                Type::Class(ec) => Some(ec.clone()),
                                _ => None,
                            },
                            _ => None,
                        }
                    }
                    _ => None,
                };
                AbsVal::Set {
                    card: Itv::at_least(0.0, false, true),
                    class,
                }
            }
        };
        self.refine(env, cx, node, out)
    }

    /// Meet a numeric result with the active guard fact for this
    /// expression, if one exists.
    fn refine(&self, env: &Env, cx: Cx, node: NodeRef, out: AbsVal) -> AbsVal {
        let Some(facts) = cx.facts else { return out };
        let AbsVal::Num { itv, unit } = out else {
            return out;
        };
        let key = self.render(env, node, RenderMode::CANON, &mut Vec::new());
        match facts.get(&key) {
            Some(f) => AbsVal::Num {
                itv: itv.meet(&f.itv),
                unit,
            },
            None => AbsVal::Num { itv, unit },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_binary(
        &self,
        env: &mut Env,
        sink: &mut Sink,
        cx: Cx,
        node: NodeRef,
        op: BinOp,
        l: NodeRef,
        r: NodeRef,
    ) -> AbsVal {
        if op == BinOp::And || op == BinOp::Or {
            let lv = self.eval(env, sink, cx, l);
            let rv = self.eval(env, sink, cx, r);
            if matches!(lv, AbsVal::Bottom) {
                return AbsVal::Bottom;
            }
            let lt = as_tri(&lv);
            let rt = if matches!(rv, AbsVal::Bottom) {
                Tri::Unknown
            } else {
                as_tri(&rv)
            };
            let out = if op == BinOp::And {
                lt.and(rt)
            } else {
                lt.or(rt)
            };
            return AbsVal::Bool(out);
        }
        let lv = self.eval(env, sink, cx, l);
        let rv = self.eval(env, sink, cx, r);
        if matches!(lv, AbsVal::Bottom) || matches!(rv, AbsVal::Bottom) {
            return AbsVal::Bottom;
        }
        let (ln, rn) = (lv.as_num(), rv.as_num());
        if op.is_arithmetic() {
            let (Some((li, lu)), Some((ri, ru))) = (ln, rn) else {
                return AbsVal::Other;
            };
            if cx.record && matches!(op, BinOp::Add | BinOp::Sub) && lu.add_sub_mismatch(ru) {
                self.record_unit(env, sink, node, op, l, lu, r, ru);
            }
            if matches!(op, BinOp::Div | BinOp::Mod) && cx.record {
                self.record_div(env, sink, cx, r, ri, op == BinOp::Mod);
            }
            let itv = match op {
                BinOp::Add => li.add(&ri),
                BinOp::Sub => {
                    if self.same_canon(env, l, r) {
                        // E - E is identically zero whatever E is.
                        Itv::exact(0.0, li.int_only && ri.int_only)
                    } else {
                        li.sub(&ri)
                    }
                }
                BinOp::Mul => li.mul(&ri),
                BinOp::Div => li.div(&ri),
                // `%`: int-only; keep just the integrality.
                _ => Itv::int_top(),
            };
            let unit = match op {
                BinOp::Add | BinOp::Sub => lu.add_sub(ru),
                BinOp::Mul => lu.mul(ru),
                BinOp::Div => lu.div(ru),
                _ => Unit::Unknown,
            };
            let out = AbsVal::Num {
                itv: itv.norm(),
                unit,
            };
            return self.refine(env, cx, node, out);
        }
        if op.is_comparison() {
            if let (Some((li, lu)), Some((ri, ru))) = (ln, rn) {
                let ordered = matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge);
                if cx.record && ordered && lu.add_sub_mismatch(ru) {
                    self.record_unit(env, sink, node, op, l, lu, r, ru);
                }
                return AbsVal::Bool(cmp_tri(op, &li, &ri));
            }
            return AbsVal::Bool(Tri::Unknown);
        }
        AbsVal::Other
    }

    #[allow(clippy::too_many_arguments)]
    fn record_unit(
        &self,
        env: &Env,
        sink: &mut Sink,
        node: NodeRef,
        op: BinOp,
        l: NodeRef,
        lu: Unit,
        r: NodeRef,
        ru: Unit,
    ) {
        sink.units.push(UnitMismatch {
            span: self.comp.node_span(node),
            op,
            left: OperandUnit {
                display: self.render(env, l, RenderMode::DISPLAY, &mut Vec::new()),
                unit: lu,
                span: self.comp.node_span(l),
            },
            right: OperandUnit {
                display: self.render(env, r, RenderMode::DISPLAY, &mut Vec::new()),
                unit: ru,
                span: self.comp.node_span(r),
            },
        });
    }

    /// Classify one division/modulo site.
    fn record_div(
        &self,
        env: &mut Env,
        sink: &mut Sink,
        cx: Cx,
        den: NodeRef,
        ri: Itv,
        is_mod: bool,
    ) {
        let trigger = self.zero_trigger(env, den);
        let mut guard = None;
        let mut guard_span = None;
        let (verdict, reason) = if ri.is_exact_zero() && trigger.is_some() {
            (DivVerdict::ProvenZero, trigger.clone().unwrap())
        } else if ri.excludes_zero() {
            // Did a guard fact do the proving, or the shape itself?
            let mut reason = "its value range excludes zero".to_string();
            if cx.facts.is_some() {
                let mut sub = Sink::default();
                let unrefined = self.eval(env, &mut sub, Cx::QUIET, den);
                let zero_without_guard = match unrefined.as_num() {
                    Some((itv, _)) => itv.contains_zero(),
                    None => true,
                };
                if zero_without_guard {
                    let key = self.render(env, den, RenderMode::CANON, &mut Vec::new());
                    if let Some(f) = cx.facts.and_then(|m| m.get(&key)) {
                        reason = format!(
                            "condition {} bounds `{}` away from zero",
                            f.label,
                            self.render(env, den, RenderMode::DISPLAY, &mut Vec::new()),
                        );
                        guard = Some(f.label.clone());
                        guard_span = Some(f.span);
                    }
                }
            }
            (DivVerdict::ProvenSafe, reason)
        } else if let Some(t) = trigger.clone() {
            (DivVerdict::Possible, t)
        } else {
            (DivVerdict::Unknown, String::new())
        };
        sink.divisions.push(DivSite {
            span: self.comp.node_span(den),
            is_mod,
            verdict,
            triggered: trigger.is_some(),
            reason,
            guard,
            guard_span,
        });
    }

    /// Does the denominator have a shape whose range provably includes
    /// zero? Returns the reason when so.
    fn zero_trigger(&self, env: &Env, den: NodeRef) -> Option<String> {
        let n = self.unwrap_cached(den);
        if let Some(v) = self.const_value(n) {
            return (v == 0.0).then(|| "the denominator is constantly zero".to_string());
        }
        match self.comp.node(n) {
            Ir::CountSet(_) => {
                Some("the denominator is a `COUNT`, which is zero on an empty set".to_string())
            }
            Ir::Aggregate {
                op: AggOp::Count, ..
            } => Some(
                "the denominator is a `COUNT`, which is zero when no element passes the filter"
                    .to_string(),
            ),
            Ir::Binary(BinOp::Sub, l, r) if self.same_canon(env, *l, *r) => Some(format!(
                "the denominator `{} - {}` is identically zero",
                self.render(env, *l, RenderMode::DISPLAY, &mut Vec::new()),
                self.render(env, *r, RenderMode::DISPLAY, &mut Vec::new()),
            )),
            Ir::Load(slot) => {
                let body = env.let_body(*slot)?;
                let why = self.zero_trigger(env, body)?;
                let name = env
                    .slot_names
                    .get(slot)
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("s{slot}"));
                Some(format!("{why} (`{name}` is LET-bound to it)"))
            }
            _ => None,
        }
    }

    /// Value of a constant-shaped subtree (literals, global constants,
    /// arithmetic thereof), mirroring the engines' semantics.
    fn const_value(&self, node: NodeRef) -> Option<f64> {
        match self.comp.node(node) {
            Ir::Int(v) => Some(*v as f64),
            Ir::Float(v) => Some(*v),
            Ir::Const(i) => self.consts.get(*i as usize)?.as_num()?.0.as_exact(),
            Ir::Unary(UnOp::Neg, i) => Some(-self.const_value(*i)?),
            Ir::Cached { expr, .. } => self.const_value(*expr),
            Ir::Binary(op, l, r) if op.is_arithmetic() => {
                let (a, b) = (self.const_value(*l)?, self.const_value(*r)?);
                match op {
                    BinOp::Add => Some(a + b),
                    BinOp::Sub => Some(a - b),
                    BinOp::Mul => Some(a * b),
                    BinOp::Div if b != 0.0 => Some(a / b),
                    BinOp::Mod if b != 0.0 => Some(a % b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn same_canon(&self, env: &Env, l: NodeRef, r: NodeRef) -> bool {
        self.render(env, l, RenderMode::CANON, &mut Vec::new())
            == self.render(env, r, RenderMode::CANON, &mut Vec::new())
    }

    // ---- Guard constraints -----------------------------------------

    /// Extract the conjunction of interval constraints a condition
    /// imposes. Conjuncts that are not representable count as opaque.
    fn constraints(&self, env: &mut Env, sink: &mut Sink, cond: NodeRef) -> ConstraintSet {
        let mut cs = ConstraintSet::default();
        let mut stack = vec![cond];
        while let Some(raw) = stack.pop() {
            let n = self.unwrap_cached(raw);
            match self.comp.node(n) {
                Ir::Binary(BinOp::And, l, r) => {
                    stack.push(*l);
                    stack.push(*r);
                }
                Ir::Binary(op, l, r) if op.is_comparison() => {
                    let lv = self.eval(env, sink, Cx::QUIET, *l);
                    let rv = self.eval(env, sink, Cx::QUIET, *r);
                    match (lv.as_num(), rv.as_num()) {
                        (Some((li, _)), Some((ri, _))) => {
                            match (li.as_exact(), ri.as_exact()) {
                                (Some(a), Some(b)) => {
                                    // Both sides constant: the conjunct is
                                    // decided outright.
                                    if cmp_tri(*op, &Itv::exact(a, false), &Itv::exact(b, false))
                                        == Tri::False
                                    {
                                        cs.unsat_literal = true;
                                    }
                                }
                                (None, Some(k)) => match solution_itv(*op, k) {
                                    Some(itv) => cs.add_atom(
                                        self.render(env, *l, RenderMode::CANON, &mut Vec::new()),
                                        self.render(env, *l, RenderMode::DISPLAY, &mut Vec::new()),
                                        itv.meet(&li),
                                        self.comp.node_span(n),
                                    ),
                                    None => cs.opaque += 1,
                                },
                                (Some(k), None) => match solution_itv(flip(*op), k) {
                                    Some(itv) => cs.add_atom(
                                        self.render(env, *r, RenderMode::CANON, &mut Vec::new()),
                                        self.render(env, *r, RenderMode::DISPLAY, &mut Vec::new()),
                                        itv.meet(&ri),
                                        self.comp.node_span(n),
                                    ),
                                    None => cs.opaque += 1,
                                },
                                (None, None) => cs.opaque += 1,
                            }
                        }
                        _ => cs.opaque += 1,
                    }
                }
                Ir::Bool(true) => {}
                Ir::Bool(false) => cs.unsat_literal = true,
                _ => cs.opaque += 1,
            }
        }
        cs
    }

    // ---- Abstract helpers ------------------------------------------

    fn attr_value(&self, base: &AbsVal, attr: &str) -> AbsVal {
        let AbsVal::Obj { class: Some(c) } = base else {
            return AbsVal::Other;
        };
        let Some(info) = self.spec.model.attr(c, attr) else {
            return AbsVal::Other;
        };
        let mut v = AbsVal::top_of(&info.ty);
        if let AbsVal::Num { unit, .. } = &mut v {
            *unit = match perfdata::attr_unit(c, attr) {
                Some(perfdata::AttrUnit::Time) => Unit::time(),
                Some(perfdata::AttrUnit::Count) => Unit::count(),
                Some(perfdata::AttrUnit::Bytes) => Unit::bytes(),
                None => Unit::Unknown,
            };
        }
        v
    }

    fn minmax_value(&self, is_max: bool, vals: &[AbsVal]) -> AbsVal {
        let mut itv: Option<Itv> = None;
        let mut unit: Option<Unit> = None;
        for v in vals {
            let Some((vi, vu)) = v.as_num() else {
                return AbsVal::Other;
            };
            itv = Some(match itv {
                None => vi,
                Some(cur) => {
                    if is_max {
                        // max of two ranges: both bounds take the max.
                        Itv {
                            lo: cur.lo.max(vi.lo),
                            hi: cur.hi.max(vi.hi),
                            lo_open: false,
                            hi_open: false,
                            nonzero: false,
                            int_only: cur.int_only && vi.int_only,
                        }
                    } else {
                        Itv {
                            lo: cur.lo.min(vi.lo),
                            hi: cur.hi.min(vi.hi),
                            lo_open: false,
                            hi_open: false,
                            nonzero: false,
                            int_only: cur.int_only && vi.int_only,
                        }
                    }
                }
            });
            unit = Some(match unit {
                None => vu,
                Some(cur) => cur.join(vu),
            });
        }
        match (itv, unit) {
            (Some(itv), Some(unit)) => AbsVal::Num { itv, unit },
            _ => AbsVal::Other,
        }
    }

    fn aggregate_value(&self, op: AggOp, card: &Itv, v: &AbsVal) -> AbsVal {
        match op {
            AggOp::Count => AbsVal::Num {
                itv: Itv {
                    lo: 0.0,
                    lo_open: false,
                    nonzero: false,
                    int_only: true,
                    ..*card
                }
                .norm(),
                unit: Unit::count(),
            },
            _ => {
                let Some((vi, vu)) = v.as_num() else {
                    return AbsVal::Other;
                };
                match op {
                    // Empty sum is 0; k summands of nonnegative values
                    // stay nonnegative. Anything else: no range claim.
                    AggOp::Sum => AbsVal::Num {
                        itv: if vi.lo >= 0.0 {
                            Itv::at_least(0.0, false, vi.int_only)
                        } else if vi.int_only {
                            Itv::int_top()
                        } else {
                            Itv::top()
                        },
                        unit: vu,
                    },
                    // MIN/MAX/AVG of attained values stay within the
                    // element range (empty sets error at runtime, which
                    // is outside the value abstraction).
                    _ => AbsVal::Num {
                        itv: Itv {
                            nonzero: false,
                            ..vi
                        },
                        unit: vu,
                    },
                }
            }
        }
    }

    // ---- Rendering --------------------------------------------------

    /// Render an IR subtree to a string. `CANON` resolves `LET`s one
    /// level, names parameters positionally (`p0`) and alpha-renames
    /// binders (`b0`, `b1`, …) so keys match across properties;
    /// `DISPLAY` uses the declared names for messages.
    fn render(&self, env: &Env, node: NodeRef, m: RenderMode, binders: &mut Vec<u32>) -> String {
        match self.comp.node(node) {
            Ir::Int(v) => v.to_string(),
            Ir::Float(v) => format!("{v:?}"),
            Ir::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Ir::Str(i) => format!("{:?}", self.comp.str_lit(*i)),
            Ir::EnumVal(e, v) => format!("{}::{}", e.as_str(), v.as_str()),
            Ir::UnknownVar(i) => self.comp.str_lit(*i).to_string(),
            Ir::Load(slot) => {
                if let Some(pos) = binders.iter().rposition(|s| s == slot) {
                    return format!("b{pos}");
                }
                if m.names {
                    if let Some(name) = env.slot_names.get(slot) {
                        return name.to_string();
                    }
                }
                if m.resolve_lets {
                    if let Some(body) = env.let_body(*slot) {
                        return self.render(
                            env,
                            body,
                            RenderMode {
                                resolve_lets: false,
                                ..m
                            },
                            &mut Vec::new(),
                        );
                    }
                }
                if (*slot as usize) < env.n_params {
                    format!("p{slot}")
                } else {
                    format!("s{slot}")
                }
            }
            Ir::Const(i) => self
                .comp
                .consts_ir()
                .nth(*i as usize)
                .map(|c| c.name.to_string())
                .unwrap_or_else(|| format!("const{i}")),
            Ir::Attr { base, attr } => {
                format!("{}.{attr}", self.render(env, *base, m, binders))
            }
            Ir::Call { func, args } => {
                let name = self.fns.get(*func as usize).map(|f| f.name).unwrap_or("?");
                format!("{name}({})", self.render_list(env, args, m, binders))
            }
            Ir::CallUnknown { name, args } => format!(
                "{}({})",
                self.comp.str_lit(*name),
                self.render_list(env, args, m, binders)
            ),
            Ir::MinMax { is_max, args } => format!(
                "{}({})",
                if *is_max { "MAX" } else { "MIN" },
                self.render_list(env, args, m, binders)
            ),
            Ir::Unary(UnOp::Neg, i) => format!("(-{})", self.render(env, *i, m, binders)),
            Ir::Unary(UnOp::Not, i) => format!("(NOT {})", self.render(env, *i, m, binders)),
            Ir::Binary(op, l, r) => format!(
                "({} {} {})",
                self.render(env, *l, m, binders),
                op.symbol(),
                self.render(env, *r, m, binders)
            ),
            Ir::SetComp {
                slot, source, pred, ..
            } => {
                let src = self.render(env, *source, m, binders);
                binders.push(*slot);
                let b = format!("b{}", binders.len() - 1);
                let p = self.render(env, *pred, m, binders);
                binders.pop();
                format!("{{{b} IN {src} WITH {p}}}")
            }
            Ir::Unique(i) => format!("UNIQUE({})", self.render(env, *i, m, binders)),
            Ir::Aggregate {
                op,
                slot,
                source,
                value,
                pred,
                ..
            } => {
                let src = self.render(env, *source, m, binders);
                binders.push(*slot);
                let b = format!("b{}", binders.len() - 1);
                let v = self.render(env, *value, m, binders);
                let p = pred
                    .map(|p| format!(" AND {}", self.render(env, p, m, binders)))
                    .unwrap_or_default();
                binders.pop();
                format!("{}({v} WHERE {b} IN {src}{p})", agg_name(*op))
            }
            Ir::Quantifier {
                forall,
                slot,
                source,
                pred,
                ..
            } => {
                let src = self.render(env, *source, m, binders);
                binders.push(*slot);
                let b = format!("b{}", binders.len() - 1);
                let p = pred
                    .map(|p| format!(" AND {}", self.render(env, p, m, binders)))
                    .unwrap_or_default();
                binders.pop();
                format!(
                    "{}({b} IN {src}{p})",
                    if *forall { "FORALL" } else { "EXISTS" }
                )
            }
            Ir::CountSet(i) => format!("COUNT({})", self.render(env, *i, m, binders)),
            Ir::Cached { expr, .. } => self.render(env, *expr, m, binders),
            Ir::FilterEq {
                obj,
                set_attr,
                elem_attr,
                key,
                ..
            } => format!(
                "{{* IN {}.{set_attr} WITH .{elem_attr} == {}}}",
                self.render(env, *obj, m, binders),
                self.render(env, *key, m, binders)
            ),
        }
    }

    fn render_list(
        &self,
        env: &Env,
        args: &[NodeRef],
        m: RenderMode,
        binders: &mut Vec<u32>,
    ) -> String {
        args.iter()
            .map(|a| self.render(env, *a, m, binders))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

enum StepTarget {
    Const(usize),
    Fn(usize),
}

#[derive(Clone, Copy)]
struct RenderMode {
    resolve_lets: bool,
    names: bool,
}

impl RenderMode {
    const CANON: RenderMode = RenderMode {
        resolve_lets: true,
        names: false,
    };
    const DISPLAY: RenderMode = RenderMode {
        resolve_lets: false,
        names: true,
    };
}

fn agg_name(op: AggOp) -> &'static str {
    match op {
        AggOp::Sum => "SUM",
        AggOp::Min => "MIN",
        AggOp::Max => "MAX",
        AggOp::Avg => "AVG",
        AggOp::Count => "COUNT",
    }
}

fn as_tri(v: &AbsVal) -> Tri {
    match v {
        AbsVal::Bool(t) => *t,
        _ => Tri::Unknown,
    }
}

fn set_parts(v: &AbsVal) -> (Itv, Option<String>) {
    match v {
        AbsVal::Set { card, class } => (*card, class.clone()),
        _ => (Itv::at_least(0.0, false, true), None),
    }
}

/// The solution interval of `x op k`.
fn solution_itv(op: BinOp, k: f64) -> Option<Itv> {
    match op {
        BinOp::Lt => Some(Itv::at_most(k, true, false)),
        BinOp::Le => Some(Itv::at_most(k, false, false)),
        BinOp::Gt => Some(Itv::at_least(k, true, false)),
        BinOp::Ge => Some(Itv::at_least(k, false, false)),
        BinOp::Eq => Some(Itv::exact(k, false)),
        BinOp::Ne if k == 0.0 => Some(Itv {
            nonzero: true,
            ..Itv::top()
        }),
        _ => None,
    }
}

/// Mirror a comparison across `==`: `k op E` ⇔ `E flip(op) k`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}
