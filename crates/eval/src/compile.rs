//! Compilation of checked ASL specifications to a slot-indexed IR.
//!
//! The tree-walking [`crate::Interpreter`] re-resolves every name on every
//! property instance: variables through a stack of `String`-keyed hash
//! maps, functions and constants through by-name lookups, enum variants
//! through the model's variant table. That is fine as a reference
//! semantics, but the analyzers evaluate the same dozen property bodies
//! across thousands of `(context, run)` instances — all of that resolution
//! work is loop-invariant.
//!
//! [`compile`] lowers each constant, helper function and property of a
//! [`CheckedSpec`] **once** into a flat node pool ([`CompiledSpec`]):
//!
//! * every identifier is resolved at compile time — variables become
//!   register-file **slots** (plain `Vec<Value>` indices; binders of nested
//!   comprehensions reuse slots sibling-to-sibling), constants become
//!   indices into an evaluated constant pool, user functions become
//!   function ids, and enum variants become interned [`Symbol`] pairs;
//! * attribute names are resolved to `&'static str` interned strings, so
//!   the data source is called without any per-instance allocation;
//! * `x IN obj.Set WITH x.Attr == key` filters (the shape of the paper's
//!   `Summary`, `SyncCost`, `LoadImbalance`, …) are recognized and lowered
//!   to an indexed [`Ir::FilterEq`] load, which the [`ObjectModel`] can
//!   answer from a secondary index in O(matches) instead of scanning the
//!   whole set (see [`ObjectModel::visit_set`]).
//!
//! [`CompiledEvaluator`] then executes the IR against an [`ObjectModel`].
//! It is a drop-in replacement for the interpreter: same outcomes, same
//! severities, same error kinds and messages (enforced by the
//! interpreter-equivalence proptest in `tests/compiled_equiv.rs`). All
//! value-level semantics are shared with the interpreter through
//! [`crate::ops`], so the two engines cannot drift.
//!
//! The unit of execution is a [`Batch`]: one property, one shared context
//! (every argument but the first) and any number of *subjects* (the first
//! argument). A batch resolves the property once and runs every instance
//! on one reusable register/cache stack. What need not be computed per
//! instance is not: an expensive subtree that reads nothing but the shared
//! context is evaluated once per batch, one that reads nothing but the
//! subject once per subject for as long as the evaluator is bound to its
//! data — across runs, properties and workers — and a predicate that only
//! selects elements by a set of constants (`tt.Type == A OR tt.Type == B`)
//! is handed to the data source with the filter in front of it
//! ([`SetFilter::among`]) instead of being run per element. Which
//! subtrees and predicates those are is a plan computed *beside* the node
//! pool on first bind ([`CompiledSpec::node_count`] and the pool that
//! kojak-lint and kojak-flow walk are exactly what [`compile`] emitted).

use crate::error::{EvalError, EvalErrorKind, EvalResult};
use crate::interp::{ObjectModel, PropertyOutcome, SetFilter};
use crate::ops;
use crate::value::{ObjRef, Value};
use asl_core::ast::*;
use asl_core::check::CheckedSpec;
use asl_core::intern::Symbol;
use asl_core::Span;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Maximum user-function call depth (mirrors the interpreter).
const MAX_CALL_DEPTH: u32 = 64;

/// Process-wide hit counter of the evaluator's lazy cells: loop-invariant
/// ([`Ir::Cached`]), per-batch context (hoisted subtrees) and per-flush
/// subject (subtrees kept per subject while the evaluator lives). `const`-
/// constructed — no registration, no startup cost; the observability
/// layer reads it via [`cache_counters`]. Executing a node only bumps a
/// plain integer in the batch's scratch; the sum is added here once, when
/// the batch ends.
static CACHE_HITS: obs::Counter = obs::Counter::new();
/// Process-wide miss counter of the lazy cells.
static CACHE_MISSES: obs::Counter = obs::Counter::new();

/// Lifetime `(hits, misses)` of the compiled evaluator's lazy cells,
/// summed over every evaluator in the process (the statics are
/// process-global: a sharded engine's shards all bump the same pair, so
/// add these to a merged snapshot exactly once, at the top level).
pub fn cache_counters() -> (u64, u64) {
    (CACHE_HITS.get(), CACHE_MISSES.get())
}

/// Always `(0, 0)`: the helper-function result memo this counted is gone
/// (run-invariant calls are hoisted per batch instead). The benchmark
/// package under `benchmark/` — which a change to this crate may not edit
/// — still reads the pair; nothing else does.
pub fn fn_memo_counters() -> (u64, u64) {
    (0, 0)
}

/// Reference to a node in the [`CompiledSpec`] pool.
pub type NodeRef = u32;

/// Which syntactic construct a lowered set source belongs to — only used
/// to reproduce the interpreter's exact error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceCtx {
    /// A set comprehension `{ x IN s WITH p }`.
    Comp,
    /// A quantified aggregate `SUM(v WHERE x IN s AND p)`.
    Agg,
}

impl SourceCtx {
    fn word(self) -> &'static str {
        match self {
            SourceCtx::Comp => "comprehension",
            SourceCtx::Agg => "aggregate",
        }
    }
}

/// One IR node. References are indices into the owning spec's node pool;
/// all names are resolved (slots, const indices, function ids, interned
/// strings) — executing a node never hashes a string.
///
/// The enum is public (read-only, via [`CompiledSpec::node`]) so that
/// analysis passes such as `kojak-flow` can walk the exact program the
/// engine executes rather than re-deriving semantics from the AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Ir {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal (index into the spec's string pool).
    Str(u32),
    /// Read a register-file slot.
    Load(u32),
    /// Read an evaluated global constant.
    Const(u32),
    /// An enum variant value: (enum name, variant name).
    EnumVal(Symbol, Symbol),
    /// A name the checker could not have admitted; evaluates to the
    /// interpreter's "unknown variable" error (kept for exact parity).
    UnknownVar(u32),
    /// `base.attr` — the attribute name is pre-interned.
    Attr {
        /// The object expression.
        base: NodeRef,
        /// Attribute name.
        attr: &'static str,
    },
    /// Call of a compiled helper function.
    Call {
        /// Index into the spec's function table.
        func: u32,
        /// Argument expressions, in declaration order.
        args: Box<[NodeRef]>,
    },
    /// Call of an undeclared function: evaluates the arguments, then fails
    /// exactly like the interpreter.
    CallUnknown {
        /// Index of the unknown name in the string pool.
        name: u32,
        /// Argument expressions.
        args: Box<[NodeRef]>,
    },
    /// The n-ary `MAX(a, b, …)` / `MIN(a, b, …)` builtin.
    MinMax {
        /// `true` for `MAX`, `false` for `MIN`.
        is_max: bool,
        /// Argument expressions.
        args: Box<[NodeRef]>,
    },
    /// Unary operator application.
    Unary(UnOp, NodeRef),
    /// Binary operator application (`AND`/`OR` short-circuit).
    Binary(BinOp, NodeRef, NodeRef),
    /// `{ binder IN source WITH pred }` (pred not fully absorbed by an
    /// indexed filter). `resets` is the cache range invalidated on entry.
    SetComp {
        /// Register slot the binder occupies per iteration.
        slot: u32,
        /// Set expression iterated over.
        source: NodeRef,
        /// Per-element predicate.
        pred: NodeRef,
        /// Cache range invalidated on construct entry.
        resets: (u32, u32),
    },
    /// `UNIQUE(set)` — exactly-one-element extraction.
    Unique(NodeRef),
    /// Quantified aggregate `SUM(value WHERE slot IN source AND pred)`.
    Aggregate {
        /// Aggregate operator.
        op: AggOp,
        /// Register slot the binder occupies per iteration.
        slot: u32,
        /// Set expression iterated over.
        source: NodeRef,
        /// Per-element value expression.
        value: NodeRef,
        /// Optional per-element predicate.
        pred: Option<NodeRef>,
        /// Cache range invalidated on construct entry.
        resets: (u32, u32),
    },
    /// `FORALL`/`EXISTS` over a set.
    Quantifier {
        /// `true` for `FORALL`, `false` for `EXISTS`.
        forall: bool,
        /// Register slot the binder occupies per iteration.
        slot: u32,
        /// Set expression iterated over.
        source: NodeRef,
        /// Optional per-element predicate.
        pred: Option<NodeRef>,
        /// Cache range invalidated on construct entry.
        resets: (u32, u32),
    },
    /// `COUNT(set)` without a quantifier — set cardinality.
    CountSet(NodeRef),
    /// Loop-invariant subexpression hoisted out of a set construct:
    /// evaluated lazily on first touch per construct entry, then reused
    /// across the construct's iterations. Lazy evaluation keeps error
    /// order and short-circuiting bit-identical to re-evaluating — the
    /// first iteration that would have reached the expression still
    /// evaluates it, and iterations that never reach it never pay for it.
    Cached {
        /// Cache slot index.
        cache: u32,
        /// The hoisted expression.
        expr: NodeRef,
    },
    /// Indexed set filter: the elements of `obj.set_attr` whose
    /// `elem_attr` equals `key`. Served by [`ObjectModel::visit_set`] when
    /// the data source has an index, otherwise by a scan that reproduces
    /// the generic `==` filter element-by-element.
    FilterEq {
        /// The object whose set attribute is filtered.
        obj: NodeRef,
        /// The set-valued attribute on `obj`.
        set_attr: &'static str,
        /// The element attribute compared against `key`.
        elem_attr: &'static str,
        /// The filter key expression.
        key: NodeRef,
        /// Which construct the filter was lowered from (error parity).
        ctx: SourceCtx,
    },
}

impl Ir {
    /// Call `f` on every direct child reference, in evaluation order.
    fn for_each_child(&self, f: &mut dyn FnMut(NodeRef)) {
        match self {
            Ir::Int(_)
            | Ir::Float(_)
            | Ir::Bool(_)
            | Ir::Str(_)
            | Ir::Load(_)
            | Ir::Const(_)
            | Ir::EnumVal(..)
            | Ir::UnknownVar(_) => {}
            Ir::Attr { base: i, .. }
            | Ir::Unary(_, i)
            | Ir::Unique(i)
            | Ir::CountSet(i)
            | Ir::Cached { expr: i, .. } => f(*i),
            Ir::Call { args, .. } | Ir::CallUnknown { args, .. } | Ir::MinMax { args, .. } => {
                args.iter().copied().for_each(f)
            }
            Ir::Binary(_, l, r) => {
                f(*l);
                f(*r);
            }
            Ir::SetComp { source, pred, .. } => {
                f(*source);
                f(*pred);
            }
            Ir::Aggregate {
                source,
                value,
                pred,
                ..
            } => {
                f(*source);
                pred.iter().for_each(|p| f(*p));
                f(*value);
            }
            Ir::Quantifier { source, pred, .. } => {
                f(*source);
                pred.iter().for_each(|p| f(*p));
            }
            Ir::FilterEq { obj, key, .. } => {
                f(*obj);
                f(*key);
            }
        }
    }

    /// Replace every direct child reference by `f` of it — in the order
    /// [`Compiler::hoist`] rewrites them, which numbers the cache cells (an
    /// aggregate's value before its predicate), not in evaluation order.
    fn map_children(&mut self, f: &mut dyn FnMut(NodeRef) -> NodeRef) {
        match self {
            Ir::Int(_)
            | Ir::Float(_)
            | Ir::Bool(_)
            | Ir::Str(_)
            | Ir::Load(_)
            | Ir::Const(_)
            | Ir::EnumVal(..)
            | Ir::UnknownVar(_) => {}
            Ir::Attr { base: i, .. }
            | Ir::Unary(_, i)
            | Ir::Unique(i)
            | Ir::CountSet(i)
            | Ir::Cached { expr: i, .. } => *i = f(*i),
            Ir::Call { args, .. } | Ir::CallUnknown { args, .. } | Ir::MinMax { args, .. } => {
                args.iter_mut().for_each(|a| *a = f(*a))
            }
            Ir::Binary(_, l, r) => {
                *l = f(*l);
                *r = f(*r);
            }
            Ir::SetComp { source, pred, .. } => {
                *source = f(*source);
                *pred = f(*pred);
            }
            Ir::Aggregate {
                source,
                value,
                pred,
                ..
            } => {
                *source = f(*source);
                *value = f(*value);
                pred.iter_mut().for_each(|p| *p = f(*p));
            }
            Ir::Quantifier { source, pred, .. } => {
                *source = f(*source);
                pred.iter_mut().for_each(|p| *p = f(*p));
            }
            Ir::FilterEq { obj, key, .. } => {
                *obj = f(*obj);
                *key = f(*key);
            }
        }
    }
}

/// A confidence/severity arm with its guard resolved to a condition index.
#[derive(Debug, Clone)]
pub struct CompiledArm {
    /// `None` = unguarded; `Some(i)` = applicable iff condition `i` fired.
    pub guard: Option<usize>,
    /// Root node of the arm's value expression.
    pub expr: NodeRef,
}

#[derive(Debug)]
struct ConstBody {
    name: String,
    n_slots: usize,
    n_caches: usize,
    body: NodeRef,
}

#[derive(Debug)]
struct FnBody {
    name: String,
    n_params: usize,
    n_slots: usize,
    n_caches: usize,
    body: NodeRef,
}

#[derive(Debug)]
struct PropBody {
    n_params: usize,
    n_slots: usize,
    n_caches: usize,
    /// `(slot, value)` in declaration order.
    lets: Vec<(u32, NodeRef)>,
    /// `(condition id, predicate)` in declaration order.
    conditions: Vec<(Option<String>, NodeRef)>,
    confidence: Vec<CompiledArm>,
    severity: Vec<CompiledArm>,
}

/// A specification lowered to the slot-indexed IR. Compile once (pure,
/// data-independent), share via `Arc`, and bind to any number of data
/// sources with [`CompiledEvaluator::new`].
#[derive(Debug)]
pub struct CompiledSpec {
    nodes: Vec<Ir>,
    /// Source span of each node, parallel to `nodes` (the span of the AST
    /// expression the node was lowered from; `Span::default()` for
    /// synthesized nodes). Used to attach source positions to runtime
    /// errors and by the static cost model.
    spans: Vec<Span>,
    strings: Vec<Arc<String>>,
    consts: Vec<ConstBody>,
    functions: Vec<FnBody>,
    properties: Vec<PropBody>,
    prop_names: Vec<String>,
    fn_ids: HashMap<String, usize>,
    prop_ids: HashMap<String, usize>,
    /// Which subtrees a [`Batch`] keeps alive across its instances.
    /// Computed on first bind, never by [`compile`]: the spec front end
    /// (parse → check → compile → lint) does not pay for it.
    plan: OnceLock<BatchPlan>,
}

impl CompiledSpec {
    fn plan(&self) -> &BatchPlan {
        self.plan.get_or_init(|| BatchPlan::build(self))
    }

    /// Number of IR nodes (diagnostics/benchmarks).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// What the evaluator's plan holds beside those nodes (diagnostics and
    /// tests; builds the plan if no evaluator has been bound yet).
    pub fn plan_stats(&self) -> PlanStats {
        let plan = self.plan();
        let sites = |subject| {
            let marked = plan.cell.iter().filter(|&&c| c != NO_CELL);
            marked
                .filter(|&&c| (c & SUBJECT_CELL != 0) == subject)
                .count()
        };
        PlanStats {
            hoist_sites: sites(false),
            subject_sites: sites(true),
            subject_cells: plan.subject_roots.len(),
            second_keys: plan.second_keys.len(),
        }
    }

    /// The IR node behind a reference (read-only; analysis passes).
    pub fn node(&self, r: NodeRef) -> &Ir {
        &self.nodes[r as usize]
    }

    /// Source span of a node (`Span::default()` for synthesized nodes).
    pub fn node_span(&self, r: NodeRef) -> Span {
        self.spans[r as usize]
    }

    /// A string-pool entry (string literals, unknown names).
    pub fn str_lit(&self, i: u32) -> &str {
        &self.strings[i as usize]
    }

    /// Read-only views of the compiled global constants, in declaration
    /// order (the order [`Ir::Const`] indexes them).
    pub fn consts_ir(&self) -> impl Iterator<Item = ConstIr<'_>> {
        self.consts.iter().map(|c| ConstIr {
            name: &c.name,
            n_slots: c.n_slots,
            body: c.body,
        })
    }

    /// Read-only views of the compiled helper functions, in declaration
    /// order (the order [`Ir::Call`] indexes them). Parameters occupy
    /// slots `0..n_params`.
    pub fn functions_ir(&self) -> impl Iterator<Item = FnIr<'_>> {
        self.functions.iter().map(|f| FnIr {
            name: &f.name,
            n_params: f.n_params,
            n_slots: f.n_slots,
            body: f.body,
        })
    }

    /// Read-only views of the compiled properties, in declaration order.
    /// Parameters occupy slots `0..n_params`.
    pub fn properties_ir(&self) -> impl Iterator<Item = PropIr<'_>> {
        self.properties
            .iter()
            .zip(&self.prop_names)
            .map(|(p, name)| PropIr {
                name,
                n_params: p.n_params,
                n_slots: p.n_slots,
                lets: &p.lets,
                conditions: &p.conditions,
                confidence: &p.confidence,
                severity: &p.severity,
            })
    }

    /// Statically estimated evaluation cost of every property, in
    /// declaration order. See [`PropCost`] for the model's assumptions.
    pub fn property_costs(&self) -> Vec<PropCost> {
        self.property_costs_with_bounds(&|_| None)
    }

    /// [`property_costs`](Self::property_costs) with an external
    /// cardinality oracle: `bounds` may return a proven upper bound on
    /// the element count of a loop-source node (keyed by the source's
    /// [`NodeRef`], `Cached` wrappers already unwrapped). Dataflow
    /// analysis (`kojak-flow`) derives such bounds from COUNT guards and
    /// comprehension structure; sources the oracle cannot bound fall
    /// back to the model's fixed scan/filter assumptions.
    pub fn property_costs_with_bounds(
        &self,
        bounds: &dyn Fn(NodeRef) -> Option<u64>,
    ) -> Vec<PropCost> {
        // Helper-function body costs first, in declaration order. A call
        // to a callee whose cost is not known yet (self-recursion, forward
        // or mutual recursion) is charged a flat penalty instead of
        // recursing — the walk always terminates.
        let mut fn_costs: Vec<Option<CostSum>> = vec![None; self.functions.len()];
        for fid in 0..self.functions.len() {
            let mut stats = CostStats::default();
            let sum = self.cost_walk(self.functions[fid].body, 0, &fn_costs, bounds, &mut stats);
            fn_costs[fid] = Some(sum);
        }
        self.properties
            .iter()
            .zip(&self.prop_names)
            .map(|(p, name)| {
                let mut stats = CostStats::default();
                let mut total = CostSum::default();
                for &(_, value) in &p.lets {
                    total.add(self.cost_walk(value, 0, &fn_costs, bounds, &mut stats));
                }
                for (_, pred) in &p.conditions {
                    total.add(self.cost_walk(*pred, 0, &fn_costs, bounds, &mut stats));
                }
                for arm in p.confidence.iter().chain(&p.severity) {
                    total.add(self.cost_walk(arm.expr, 0, &fn_costs, bounds, &mut stats));
                }
                PropCost {
                    property: name.clone(),
                    ir_nodes: stats.nodes,
                    indexed_loads: stats.indexed_loads,
                    scan_constructs: stats.scan_constructs,
                    cached_subtrees: stats.cached_subtrees,
                    max_loop_depth: stats.max_loop_depth,
                    estimated_units: total.per + total.once,
                }
            })
            .collect()
    }

    /// Walk a subtree accumulating the cost model. Returns the cost split
    /// into a per-evaluation part and a once-per-construct-entry part
    /// (the lazily `Cached` subtrees, which an enclosing loop must not
    /// multiply).
    fn cost_walk(
        &self,
        node: NodeRef,
        depth: u64,
        fn_costs: &[Option<CostSum>],
        bounds: &dyn Fn(NodeRef) -> Option<u64>,
        stats: &mut CostStats,
    ) -> CostSum {
        stats.nodes += 1;
        let mut sum = CostSum::default();
        match &self.nodes[node as usize] {
            Ir::Int(_) | Ir::Float(_) | Ir::Bool(_) | Ir::Str(_) | Ir::EnumVal(..) => sum.per += 1,
            Ir::Load(_) | Ir::Const(_) | Ir::UnknownVar(_) => sum.per += 1,
            Ir::Attr { base, .. } => {
                sum.add(self.cost_walk(*base, depth, fn_costs, bounds, stats));
                sum.per += COST_ATTR;
            }
            Ir::Call { func, args } => {
                for a in args.iter() {
                    sum.add(self.cost_walk(*a, depth, fn_costs, bounds, stats));
                }
                match fn_costs.get(*func as usize).and_then(|c| c.as_ref()) {
                    // Body cost flattened into the call site; the callee's
                    // caches are per-call, so its `once` is per-call too.
                    Some(c) => sum.per += c.per + c.once + COST_CALL,
                    // Self/forward recursion while the callee's own cost is
                    // still being computed: flat penalty.
                    None => sum.per += COST_RECURSIVE_CALL,
                }
            }
            Ir::CallUnknown { args, .. } => {
                for a in args.iter() {
                    sum.add(self.cost_walk(*a, depth, fn_costs, bounds, stats));
                }
                sum.per += COST_CALL;
            }
            Ir::MinMax { args, .. } => {
                for a in args.iter() {
                    sum.add(self.cost_walk(*a, depth, fn_costs, bounds, stats));
                }
                sum.per += 1;
            }
            Ir::Unary(_, i) | Ir::Unique(i) | Ir::CountSet(i) => {
                sum.add(self.cost_walk(*i, depth, fn_costs, bounds, stats));
                sum.per += 1;
            }
            Ir::Binary(_, l, r) => {
                sum.add(self.cost_walk(*l, depth, fn_costs, bounds, stats));
                sum.add(self.cost_walk(*r, depth, fn_costs, bounds, stats));
                sum.per += 1;
            }
            Ir::Cached { expr, .. } => {
                stats.cached_subtrees += 1;
                let inner = self.cost_walk(*expr, depth, fn_costs, bounds, stats);
                // Evaluated once per construct entry, then a cache hit.
                sum.once += inner.per + inner.once;
                sum.per += 1;
            }
            Ir::SetComp { source, pred, .. } => {
                let n = self.loop_cardinality(*source, bounds, stats);
                stats.max_loop_depth = stats.max_loop_depth.max(depth + 1);
                sum.add(self.cost_walk(*source, depth, fn_costs, bounds, stats));
                let body = self.cost_walk(*pred, depth + 1, fn_costs, bounds, stats);
                sum.per += n * body.per + body.once + COST_LOOP;
            }
            Ir::Aggregate {
                source,
                value,
                pred,
                ..
            } => {
                let n = self.loop_cardinality(*source, bounds, stats);
                stats.max_loop_depth = stats.max_loop_depth.max(depth + 1);
                sum.add(self.cost_walk(*source, depth, fn_costs, bounds, stats));
                let mut body = self.cost_walk(*value, depth + 1, fn_costs, bounds, stats);
                if let Some(p) = pred {
                    body.add(self.cost_walk(*p, depth + 1, fn_costs, bounds, stats));
                }
                sum.per += n * body.per + body.once + COST_LOOP;
            }
            Ir::Quantifier { source, pred, .. } => {
                let n = self.loop_cardinality(*source, bounds, stats);
                stats.max_loop_depth = stats.max_loop_depth.max(depth + 1);
                sum.add(self.cost_walk(*source, depth, fn_costs, bounds, stats));
                if let Some(p) = pred {
                    let body = self.cost_walk(*p, depth + 1, fn_costs, bounds, stats);
                    sum.per += n * body.per + body.once;
                }
                sum.per += COST_LOOP;
            }
            Ir::FilterEq { obj, key, .. } => {
                stats.indexed_loads += 1;
                sum.add(self.cost_walk(*obj, depth, fn_costs, bounds, stats));
                sum.add(self.cost_walk(*key, depth, fn_costs, bounds, stats));
                sum.per += COST_FILTER_EQ;
            }
        }
        sum
    }

    /// Assumed element count of a loop source: a proven bound from the
    /// oracle wins; otherwise indexed filters are presumed selective
    /// ([`CARD_FILTERED`]) and anything else is a full-set scan
    /// ([`CARD_SCAN`], also counted in `scan_constructs`).
    fn loop_cardinality(
        &self,
        source: NodeRef,
        bounds: &dyn Fn(NodeRef) -> Option<u64>,
        stats: &mut CostStats,
    ) -> u64 {
        // A hoisted source is still whatever it wraps.
        let mut n = source;
        while let Ir::Cached { expr, .. } = &self.nodes[n as usize] {
            n = *expr;
        }
        let indexed = matches!(self.nodes[n as usize], Ir::FilterEq { .. });
        if !indexed {
            stats.scan_constructs += 1;
        }
        if let Some(b) = bounds(n) {
            return b;
        }
        if indexed {
            CARD_FILTERED
        } else {
            CARD_SCAN
        }
    }
}

/// Sizes of the plan a [`CompiledSpec`] is evaluated by — which subtrees
/// are evaluated once and which predicates the data source answers; see
/// [`CompiledSpec::plan_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Subtrees that read only a batch's shared context: evaluated once
    /// per batch.
    pub hoist_sites: usize,
    /// Subtrees that read only the subject: evaluated once per subject and
    /// binding.
    pub subject_sites: usize,
    /// Distinct cells behind the subject sites (equal subtrees share one).
    pub subject_cells: usize,
    /// Selecting constructs whose predicate `x.A == c₁ OR …` is handed to
    /// the data source as a second filter key.
    pub second_keys: usize,
}

/// Read-only view of a compiled global constant (analysis passes).
#[derive(Debug, Clone, Copy)]
pub struct ConstIr<'a> {
    /// Declared name.
    pub name: &'a str,
    /// Register slots the body needs.
    pub n_slots: usize,
    /// Root node of the value expression.
    pub body: NodeRef,
}

/// Read-only view of a compiled helper function (analysis passes).
#[derive(Debug, Clone, Copy)]
pub struct FnIr<'a> {
    /// Declared name.
    pub name: &'a str,
    /// Parameter count; parameters occupy slots `0..n_params`.
    pub n_params: usize,
    /// Register slots the body needs (including the parameters).
    pub n_slots: usize,
    /// Root node of the body expression.
    pub body: NodeRef,
}

/// Read-only view of a compiled property (analysis passes).
#[derive(Debug, Clone, Copy)]
pub struct PropIr<'a> {
    /// Declared name.
    pub name: &'a str,
    /// Parameter count; parameters occupy slots `0..n_params`.
    pub n_params: usize,
    /// Register slots the property needs.
    pub n_slots: usize,
    /// `(slot, value)` LET bindings in declaration order.
    pub lets: &'a [(u32, NodeRef)],
    /// `(condition id, predicate)` in declaration order.
    pub conditions: &'a [(Option<String>, NodeRef)],
    /// Compiled confidence arms.
    pub confidence: &'a [CompiledArm],
    /// Compiled severity arms.
    pub severity: &'a [CompiledArm],
}

/// Assumed cardinality of an unindexed (full-scan) loop source.
const CARD_SCAN: u64 = 16;
/// Assumed cardinality of an indexed `FilterEq` loop source.
const CARD_FILTERED: u64 = 4;
/// Cost of an attribute access (string-match dispatch in the data source).
const COST_ATTR: u64 = 4;
/// Fixed overhead of a helper-function call (frame setup).
const COST_CALL: u64 = 2;
/// Flat charge for a call whose cost is unknown at this point (recursion).
const COST_RECURSIVE_CALL: u64 = 64;
/// Fixed overhead of entering a set construct (set materialization).
const COST_LOOP: u64 = 4;
/// Cost of an indexed filter load answered from a secondary index.
const COST_FILTER_EQ: u64 = 6;

/// Accumulator for [`CompiledSpec::cost_walk`].
#[derive(Default, Clone, Copy)]
struct CostSum {
    /// Units paid every time the subtree is evaluated.
    per: u64,
    /// Units paid once per enclosing construct entry (lazy caches).
    once: u64,
}

impl CostSum {
    fn add(&mut self, other: CostSum) {
        self.per += other.per;
        self.once += other.once;
    }
}

#[derive(Default)]
struct CostStats {
    nodes: u64,
    indexed_loads: u64,
    scan_constructs: u64,
    cached_subtrees: u64,
    max_loop_depth: u64,
}

/// Statically estimated evaluation cost of one property, produced by
/// [`CompiledSpec::property_costs`].
///
/// The estimate is a *ranking* heuristic, not a prediction: set sizes are
/// unknown at compile time, so every unindexed loop is assumed to visit a
/// fixed fan-out (16 elements) and every indexed (`FilterEq`) loop a
/// smaller one (4). Units are abstract (≈ IR dispatches); compare
/// properties against each other, not against wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropCost {
    /// Property name.
    pub property: String,
    /// IR nodes visited by the walk (call bodies counted per call site).
    pub ir_nodes: u64,
    /// Indexed `FilterEq` loads (served in O(matches) on indexed models).
    pub indexed_loads: u64,
    /// Loops over a full, unindexed set materialization.
    pub scan_constructs: u64,
    /// Loop-invariant subtrees hoisted into lazy caches.
    pub cached_subtrees: u64,
    /// Deepest loop nesting (1 = a flat aggregate/comprehension).
    pub max_loop_depth: u64,
    /// Total estimated units under the model's cardinality assumptions.
    pub estimated_units: u64,
}

/// Lower a checked specification into the slot-indexed IR.
///
/// Compilation is total: name shapes the checker would reject are lowered
/// to nodes that reproduce the interpreter's runtime errors, so a
/// `CheckedSpec` always compiles and the two engines agree even on the
/// error paths.
pub fn compile(spec: &CheckedSpec) -> CompiledSpec {
    Compiler::new(spec).run()
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Compiler<'s> {
    spec: &'s CheckedSpec,
    nodes: Vec<Ir>,
    /// Parallel to `nodes`; see [`CompiledSpec::spans`].
    spans: Vec<Span>,
    /// Span of the AST expression currently being lowered — the span
    /// recorded by [`Compiler::push`].
    cur_span: Span,
    strings: Vec<Arc<String>>,
    /// Lexical scopes: innermost last; each frame maps name → slot.
    scopes: Vec<Vec<(String, u32)>>,
    next_slot: u32,
    max_slots: u32,
    /// Loop-invariant cache cells allocated in the current body.
    n_caches: u32,
    /// Constants visible so far (grows as constant bodies are compiled, so
    /// forward references fall through to the interpreter-identical
    /// "unknown variable" behavior).
    const_ids: HashMap<String, u32>,
    fn_ids: HashMap<String, usize>,
}

impl<'s> Compiler<'s> {
    fn new(spec: &'s CheckedSpec) -> Self {
        let fn_ids = spec
            .spec
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.name.clone(), i))
            .collect();
        Compiler {
            spec,
            nodes: Vec::new(),
            spans: Vec::new(),
            cur_span: Span::default(),
            strings: Vec::new(),
            scopes: Vec::new(),
            next_slot: 0,
            max_slots: 0,
            n_caches: 0,
            const_ids: HashMap::new(),
            fn_ids,
        }
    }

    fn run(mut self) -> CompiledSpec {
        let mut consts = Vec::new();
        for (i, c) in self.spec.spec.constants.iter().enumerate() {
            self.begin_body();
            let body = self.lower(&c.value);
            consts.push(ConstBody {
                name: c.name.name.clone(),
                n_slots: self.max_slots as usize,
                n_caches: self.n_caches as usize,
                body,
            });
            self.const_ids.insert(c.name.name.clone(), i as u32);
        }

        let mut functions = Vec::new();
        for f in &self.spec.spec.functions {
            self.begin_body();
            for p in &f.params {
                self.bind(&p.name.name);
            }
            let body = self.lower(&f.body);
            functions.push(FnBody {
                name: f.name.name.clone(),
                n_params: f.params.len(),
                n_slots: self.max_slots as usize,
                n_caches: self.n_caches as usize,
                body,
            });
        }

        let mut properties = Vec::new();
        let mut prop_names = Vec::new();
        let mut prop_ids = HashMap::new();
        for p in &self.spec.spec.properties {
            prop_ids.insert(p.name.name.clone(), properties.len());
            prop_names.push(p.name.name.clone());
            properties.push(self.lower_property(p));
        }

        CompiledSpec {
            nodes: self.nodes,
            spans: self.spans,
            strings: self.strings,
            consts,
            functions,
            properties,
            prop_names,
            fn_ids: self.fn_ids,
            prop_ids,
            plan: OnceLock::new(),
        }
    }

    fn lower_property(&mut self, p: &PropertyDecl) -> PropBody {
        self.begin_body();
        for param in &p.params {
            self.bind(&param.name.name);
        }
        let mut lets = Vec::new();
        for l in &p.lets {
            let value = self.lower(&l.value);
            // The binding becomes visible only after its value expression
            // (the interpreter binds after evaluating).
            let slot = self.bind(&l.name.name);
            lets.push((slot, value));
        }
        let mut conditions = Vec::new();
        for c in &p.conditions {
            let pred = self.lower(&c.expr);
            conditions.push((c.id.as_ref().map(|i| i.name.clone()), pred));
        }
        let cond_index = |guard: &Option<Ident>| -> Option<usize> {
            guard.as_ref().map(|g| {
                conditions
                    .iter()
                    .position(|(id, _)| id.as_deref() == Some(g.name.as_str()))
                    .expect("checker verified guard names a declared condition id")
            })
        };
        let lower_arms = |this: &mut Self, spec: &ArmSpec| -> Vec<CompiledArm> {
            spec.arms
                .iter()
                .map(|arm| CompiledArm {
                    guard: cond_index(&arm.guard),
                    expr: this.lower(&arm.expr),
                })
                .collect()
        };
        let confidence = lower_arms(&mut *self, &p.confidence);
        let severity = lower_arms(&mut *self, &p.severity);
        PropBody {
            n_params: p.params.len(),
            n_slots: self.max_slots as usize,
            n_caches: self.n_caches as usize,
            lets,
            conditions,
            confidence,
            severity,
        }
    }

    // ---- scope / pool helpers -------------------------------------------

    fn begin_body(&mut self) {
        self.scopes = vec![Vec::new()];
        self.next_slot = 0;
        self.max_slots = 0;
        self.n_caches = 0;
    }

    fn open_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    fn close_scope(&mut self) {
        let frame = self.scopes.pop().expect("scope underflow");
        // Slots of a closed scope are reused by sibling scopes.
        self.next_slot -= frame.len() as u32;
    }

    fn bind(&mut self, name: &str) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .push((name.to_string(), slot));
        slot
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.scopes
            .iter()
            .rev()
            .find_map(|f| f.iter().rev().find(|(n, _)| n == name).map(|(_, s)| *s))
    }

    fn push(&mut self, ir: Ir) -> NodeRef {
        let span = self.cur_span;
        self.push_at(ir, span)
    }

    fn push_at(&mut self, ir: Ir, span: Span) -> NodeRef {
        self.nodes.push(ir);
        self.spans.push(span);
        (self.nodes.len() - 1) as NodeRef
    }

    fn pool_str(&mut self, s: &str) -> u32 {
        if let Some(i) = self.strings.iter().position(|x| **x == s) {
            return i as u32;
        }
        self.strings.push(Arc::new(s.to_string()));
        (self.strings.len() - 1) as u32
    }

    // ---- expression lowering --------------------------------------------

    fn lower(&mut self, e: &Expr) -> NodeRef {
        // Nodes pushed while lowering `e` (that are not inside a nested
        // `lower` call) carry `e`'s span; save/restore keeps the parent's
        // span intact for siblings.
        let saved = self.cur_span;
        self.cur_span = e.span;
        let node = self.lower_inner(e);
        self.cur_span = saved;
        node
    }

    fn lower_inner(&mut self, e: &Expr) -> NodeRef {
        match &e.kind {
            ExprKind::IntLit(v) => self.push(Ir::Int(*v)),
            ExprKind::FloatLit(v) => self.push(Ir::Float(*v)),
            ExprKind::BoolLit(b) => self.push(Ir::Bool(*b)),
            ExprKind::StrLit(s) => {
                let i = self.pool_str(s);
                self.push(Ir::Str(i))
            }
            ExprKind::Var(name) => self.lower_var(name),
            ExprKind::Attr(base, attr) => {
                let b = self.lower(base);
                let a = Symbol::intern(&attr.name).as_str();
                self.push(Ir::Attr { base: b, attr: a })
            }
            ExprKind::Call(name, args) => {
                if name.name == "MAX" || name.name == "MIN" {
                    let is_max = name.name == "MAX";
                    let args: Box<[NodeRef]> = args.iter().map(|a| self.lower(a)).collect();
                    return self.push(Ir::MinMax { is_max, args });
                }
                let lowered: Box<[NodeRef]> = args.iter().map(|a| self.lower(a)).collect();
                match self.fn_ids.get(&name.name) {
                    Some(&fid) => self.push(Ir::Call {
                        func: fid as u32,
                        args: lowered,
                    }),
                    None => {
                        let n = self.pool_str(&name.name);
                        self.push(Ir::CallUnknown {
                            name: n,
                            args: lowered,
                        })
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                let i = self.lower(inner);
                self.push(Ir::Unary(*op, i))
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.lower(lhs);
                let r = self.lower(rhs);
                self.push(Ir::Binary(*op, l, r))
            }
            ExprKind::SetComp {
                binder,
                source,
                pred,
            } => {
                let (src, plan) = self.lower_source(binder, source, Some(&**pred), SourceCtx::Comp);
                self.open_scope();
                let slot = self.bind(&binder.name);
                let reset_start = self.n_caches;
                let pred_ir = self.lower_residual(plan).map(|p| self.hoist(p, slot));
                self.close_scope();
                let resets = (reset_start, self.n_caches);
                match pred_ir {
                    Some(p) => self.push(Ir::SetComp {
                        slot,
                        source: src,
                        pred: p,
                        resets,
                    }),
                    // Fully absorbed by the indexed filter: the filter IS
                    // the comprehension.
                    None => src,
                }
            }
            ExprKind::Unique(inner) => {
                let i = self.lower(inner);
                self.push(Ir::Unique(i))
            }
            ExprKind::Aggregate {
                op,
                value,
                binder,
                source,
                pred,
            } => {
                let (src, plan) =
                    self.lower_source(binder, source, pred.as_deref(), SourceCtx::Agg);
                self.open_scope();
                let slot = self.bind(&binder.name);
                let reset_start = self.n_caches;
                let pred_ir = self.lower_residual(plan).map(|p| self.hoist(p, slot));
                let value_ir = self.lower(value);
                let value_ir = self.hoist(value_ir, slot);
                self.close_scope();
                let resets = (reset_start, self.n_caches);
                self.push(Ir::Aggregate {
                    op: *op,
                    slot,
                    source: src,
                    value: value_ir,
                    pred: pred_ir,
                    resets,
                })
            }
            ExprKind::Quantifier {
                q,
                binder,
                source,
                pred,
            } => {
                // Quantifiers never use the indexed filter: `FORALL` must
                // see elements the filter would drop (they falsify it),
                // and `EXISTS` short-circuits at the first witness — a
                // materializing filter would touch elements past it,
                // surfacing attribute errors the interpreter never
                // reaches (and doing more work) on unindexed models.
                let (src, plan) = (self.lower(source), Some(Residual::Whole(pred)));
                self.open_scope();
                let slot = self.bind(&binder.name);
                let reset_start = self.n_caches;
                let pred_ir = self.lower_residual(plan).map(|p| self.hoist(p, slot));
                self.close_scope();
                let resets = (reset_start, self.n_caches);
                self.push(Ir::Quantifier {
                    forall: matches!(q, Quant::Forall),
                    slot,
                    source: src,
                    pred: pred_ir,
                    resets,
                })
            }
            ExprKind::CountSet(inner) => {
                let i = self.lower(inner);
                self.push(Ir::CountSet(i))
            }
        }
    }

    fn lower_var(&mut self, name: &str) -> NodeRef {
        if let Some(slot) = self.lookup(name) {
            self.push(Ir::Load(slot))
        } else if let Some(&cid) = self.const_ids.get(name) {
            self.push(Ir::Const(cid))
        } else if let Some(owner) = self.spec.model.variant_owner.get(name) {
            self.push(Ir::EnumVal(Symbol::intern(owner), Symbol::intern(name)))
        } else {
            let n = self.pool_str(name);
            self.push(Ir::UnknownVar(n))
        }
    }

    /// Lower the source of a `binder IN source [pred]` construct,
    /// extracting a leading `binder.Attr == key` conjunct into an indexed
    /// [`Ir::FilterEq`] when it is safe: the source is an attribute access,
    /// the conjunct is the **first** one evaluated (so skipped elements
    /// never reached the rest of the predicate anyway), and the key is an
    /// infallible, binder-free expression (so hoisting its evaluation out
    /// of the loop cannot reorder errors).
    fn lower_source<'e>(
        &mut self,
        binder: &Ident,
        source: &'e Expr,
        pred: Option<&'e Expr>,
        ctx: SourceCtx,
    ) -> (NodeRef, Option<Residual<'e>>) {
        if let (ExprKind::Attr(base, set_attr), Some(p)) = (&source.kind, pred) {
            let mut cj = Vec::new();
            conjuncts(p, &mut cj);
            if let Some((elem_attr, key_expr)) = match_eq_filter(cj[0], &binder.name) {
                // Key compiled in the *outer* scope; it is binder-free by
                // the `match_eq_filter` check, so resolution is identical.
                let key = self.lower(key_expr);
                if self.is_infallible(key) {
                    let obj = self.lower(base);
                    let set_attr = Symbol::intern(&set_attr.name).as_str();
                    let elem_attr = Symbol::intern(elem_attr).as_str();
                    let src = self.push(Ir::FilterEq {
                        obj,
                        set_attr,
                        elem_attr,
                        key,
                        ctx,
                    });
                    return (src, Some(Residual::Conjuncts(cj[1..].to_vec())));
                }
            }
        }
        (self.lower(source), pred.map(Residual::Whole))
    }

    /// Lower the residual predicate of a set construct (inside the binder
    /// scope). `None` means "no predicate left".
    fn lower_residual(&mut self, plan: Option<Residual<'_>>) -> Option<NodeRef> {
        match plan {
            None => None,
            Some(Residual::Whole(p)) => Some(self.lower(p)),
            Some(Residual::Conjuncts(cs)) => {
                let mut it = cs.into_iter();
                let first = it.next()?;
                let mut ir = self.lower(first);
                for c in it {
                    let r = self.lower(c);
                    ir = self.push(Ir::Binary(BinOp::And, ir, r));
                }
                Some(ir)
            }
        }
    }

    /// Can evaluating this node neither fail nor observe evaluation order?
    /// (Loads, constant reads and literals only.)
    fn is_infallible(&self, node: NodeRef) -> bool {
        matches!(
            self.nodes[node as usize],
            Ir::Load(_)
                | Ir::Const(_)
                | Ir::EnumVal(..)
                | Ir::Int(_)
                | Ir::Float(_)
                | Ir::Bool(_)
                | Ir::Str(_)
        )
    }

    // ---- loop-invariant code motion --------------------------------------

    /// Hoist maximal loop-invariant, expensive subtrees of a construct
    /// body into lazy [`Ir::Cached`] cells. A subtree is invariant when it
    /// loads no slot `>= binder_slot` — slots below are outer
    /// params/lets/binders (stable across this construct's iterations),
    /// slots at/above are this construct's binder or binders introduced
    /// inside the subtree itself. Rewrites child references in place and
    /// returns the (possibly wrapped) root.
    fn hoist(&mut self, node: NodeRef, binder_slot: u32) -> NodeRef {
        if !self.loads_free_slot_ge(node, binder_slot) {
            if is_expensive(&self.nodes, node) {
                let cache = self.n_caches;
                self.n_caches += 1;
                let span = self.spans[node as usize];
                return self.push_at(Ir::Cached { cache, expr: node }, span);
            }
            return node;
        }
        // Depends on the loop — recurse into the children, rewriting the
        // node's child references in place (parents stay valid).
        let mut n = self.nodes[node as usize].clone();
        n.map_children(&mut |child| self.hoist(child, binder_slot));
        self.nodes[node as usize] = n;
        node
    }

    /// Does the subtree load any free slot `>= threshold`? Free loads below
    /// the threshold are outer params/lets/binders, stable across the
    /// enclosing construct's iterations.
    fn loads_free_slot_ge(&self, node: NodeRef, threshold: u32) -> bool {
        loads_free_slot(&self.nodes, node, &|s| s >= threshold, &mut Vec::new())
    }
}

/// Does the subtree load any **free** slot that `varies`? Slots bound by
/// constructs *within* the subtree (`bound`, maintained as a stack while
/// walking) are the subtree's own binders — loading them does not make it
/// depend on anything outside. Shared by loop-invariant code motion (what
/// varies: the enclosing construct's binder and everything above it) and
/// the batch plan (what varies: everything but the shared context).
fn loads_free_slot(
    nodes: &[Ir],
    node: NodeRef,
    varies: &dyn Fn(u32) -> bool,
    bound: &mut Vec<u32>,
) -> bool {
    let ir = &nodes[node as usize];
    let binder = match ir {
        Ir::Load(s) => return varies(*s) && !bound.contains(s),
        Ir::SetComp { slot, .. } | Ir::Aggregate { slot, .. } | Ir::Quantifier { slot, .. } => {
            Some(*slot)
        }
        _ => None,
    };
    // A construct's binder is in scope for its predicate and value, not
    // for its source — the first child.
    let mut in_scope = None;
    let mut free = false;
    ir.for_each_child(&mut |child| {
        if free {
            return;
        }
        bound.extend(in_scope);
        free = loads_free_slot(nodes, child, varies, bound);
        if in_scope.is_some() {
            bound.pop();
        }
        in_scope = binder;
    });
    free
}

/// Is the subtree worth caching? (Contains a nested loop, an indexed
/// filter, or a function call — anything whose re-evaluation is more than
/// a few machine ops.)
fn is_expensive(nodes: &[Ir], node: NodeRef) -> bool {
    match &nodes[node as usize] {
        Ir::SetComp { .. }
        | Ir::Aggregate { .. }
        | Ir::Quantifier { .. }
        | Ir::FilterEq { .. }
        | Ir::Call { .. }
        | Ir::CallUnknown { .. }
        | Ir::Unique(_)
        | Ir::CountSet(_) => true,
        scalar => {
            let mut expensive = false;
            scalar.for_each_child(&mut |child| expensive |= is_expensive(nodes, child));
            expensive
        }
    }
}

/// What is left of a predicate after (possible) filter extraction.
enum Residual<'e> {
    /// The untouched original predicate.
    Whole(&'e Expr),
    /// The remaining conjuncts (possibly empty) after the first was
    /// absorbed into an indexed filter.
    Conjuncts(Vec<&'e Expr>),
}

/// Flatten an `AND` chain into its conjuncts in evaluation order.
fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let ExprKind::Binary(BinOp::And, l, r) = &e.kind {
        conjuncts(l, out);
        conjuncts(r, out);
    } else {
        out.push(e);
    }
}

/// Match `binder.Attr == key` (either side), where `key` is a binder-free
/// simple expression. Returns `(attr name, key expr)`.
fn match_eq_filter<'e>(e: &'e Expr, binder: &str) -> Option<(&'e str, &'e Expr)> {
    let ExprKind::Binary(BinOp::Eq, l, r) = &e.kind else {
        return None;
    };
    let attr_of = |x: &'e Expr| -> Option<&'e str> {
        if let ExprKind::Attr(base, attr) = &x.kind {
            if matches!(&base.kind, ExprKind::Var(n) if n == binder) {
                return Some(&attr.name);
            }
        }
        None
    };
    if let Some(a) = attr_of(l) {
        if simple_key(r, binder) {
            return Some((a, r));
        }
    }
    if let Some(a) = attr_of(r) {
        if simple_key(l, binder) {
            return Some((a, l));
        }
    }
    None
}

/// A key expression that is cheap, binder-free and infallible: a variable
/// other than the binder, or a literal.
fn simple_key(e: &Expr, binder: &str) -> bool {
    match &e.kind {
        ExprKind::Var(n) => n != binder,
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::StrLit(_) => true,
        _ => false,
    }
}

/// The compiler's comprehension-shape recognizers, exposed for static
/// analysis (kojak-lint) so lints and codegen can never disagree about
/// which `binder IN obj.Set WITH pred` shapes lower to an indexed
/// `FilterEq` load.
pub mod shape {
    use super::{conjuncts, match_eq_filter};
    use asl_core::ast::{Expr, ExprKind};

    /// The decomposition of a set-construct predicate the compiler would
    /// extract into an indexed filter.
    #[derive(Debug)]
    pub struct IndexedFilter<'e> {
        /// The object expression whose set attribute is filtered.
        pub base: &'e Expr,
        /// The set attribute being iterated (`obj.<set_attr>`).
        pub set_attr: &'e str,
        /// The element attribute the extracted conjunct compares.
        pub elem_attr: &'e str,
        /// The binder-free key expression compared against.
        pub key: &'e Expr,
        /// The conjuncts left over after extraction, in evaluation order
        /// (still evaluated per element — a residual scan if non-empty).
        pub residual: Vec<&'e Expr>,
    }

    /// Would the compiler lower `binder IN source [WITH pred]` to an
    /// indexed `FilterEq` load? Returns the extracted parts
    /// if so. Mirrors `Compiler::lower_source` exactly: the source must
    /// be an attribute access, the **first** conjunct must be
    /// `binder.Attr == key` (either side), and the key must be a simple
    /// binder-free expression. On a checked spec, "simple" also implies
    /// infallible (every name the checker admits resolves).
    pub fn indexed_filter<'e>(
        binder: &str,
        source: &'e Expr,
        pred: Option<&'e Expr>,
    ) -> Option<IndexedFilter<'e>> {
        let (ExprKind::Attr(base, set_attr), Some(p)) = (&source.kind, pred) else {
            return None;
        };
        let mut cj = Vec::new();
        conjuncts(p, &mut cj);
        let (elem_attr, key) = match_eq_filter(cj[0], binder)?;
        Some(IndexedFilter {
            base,
            set_attr: &set_attr.name,
            elem_attr,
            key,
            residual: cj[1..].to_vec(),
        })
    }

    /// Flatten an `AND` chain into its conjuncts in evaluation order.
    pub fn and_conjuncts(e: &Expr) -> Vec<&Expr> {
        let mut out = Vec::new();
        conjuncts(e, &mut out);
        out
    }

    /// Is `e` an equality conjunct of the form `binder.Attr == key` with a
    /// simple binder-free key — i.e. *indexable in principle* even if its
    /// position keeps the compiler from extracting it? Returns
    /// `(attr name, key expr)`.
    pub fn eq_filter_conjunct<'e>(e: &'e Expr, binder: &str) -> Option<(&'e str, &'e Expr)> {
        match_eq_filter(e, binder)
    }
}

// ---------------------------------------------------------------------------
// Batch plan
// ---------------------------------------------------------------------------

/// "Keeps nothing" in [`BatchPlan::cell`], "selects by no second key" in
/// [`BatchPlan::among`].
const NO_CELL: u32 = u32::MAX;

/// Set on the [`BatchPlan::cell`] of a *subject* site; the other bits are
/// the subject cell's id.
const SUBJECT_CELL: u32 = 1 << 31;

/// What the evaluator knows about each property beyond its nodes. Two kinds
/// of subtree are evaluated once and answered from a cell afterwards, and
/// one kind of predicate is not executed at all:
///
/// * **Hoist sites.** Within a batch only the subject (slot 0) changes, so
///   an expensive subtree that reads nothing but the other parameters —
///   `Duration(Basis, t)` in every severity of the standard suite — has one
///   value, or one error, for all instances. It gets a cell in the batch's
///   scratch that is filled lazily, on the first instance that reaches it,
///   and answers every later one.
/// * **Subject sites.** An expensive subtree that reads nothing but the
///   subject — `MinPeSum` of `SublinearSpeedup` and `UnmeasuredCost`, which
///   finds a region's reference run — has one value per subject whatever
///   the run and whichever property asks. It gets a cell of the *evaluator*
///   ([`CompiledEvaluator::subjects`]), one value per subject, that lives
///   as long as the binding to the data does; structurally equal subtrees
///   share one cell.
/// * **Second keys.** An `Aggregate` or `SetComp` over an indexed filter
///   whose remaining predicate is `x.A == c₁ [OR x.A == c₂ …]` — every
///   per-overhead-family property of the suite — *selects* the elements
///   with `A ∈ {cᵢ}`. The set is asked of the data source
///   ([`SetFilter::among`]); a source that answers has applied the
///   predicate.
///
/// A side table rather than new nodes in the pool: lint, flow and the
/// benchmark's committed node counts see the pool [`compile`] emitted.
#[derive(Debug)]
struct BatchPlan {
    /// Per node: [`NO_CELL`], its hoist cell, or [`SUBJECT_CELL`] + its
    /// subject cell. Sites are the maximal context-only (subject-only),
    /// expensive subtrees of property bodies; function and constant bodies
    /// have none (their slots are arguments, not context).
    cell: Vec<u32>,
    /// Per property: how many hoist cells its sites use.
    n_cells: Vec<u32>,
    /// One root per distinct subject cell (the first site found of each).
    subject_roots: Vec<NodeRef>,
    /// Per node: for a construct that selects by a second key, its index
    /// in `second_keys`; [`NO_CELL`] otherwise.
    among: Vec<u32>,
    /// `(attribute, values)` of each second key.
    second_keys: Vec<(&'static str, Box<[Value]>)>,
}

impl BatchPlan {
    fn build(cs: &CompiledSpec) -> Self {
        let nodes = &cs.nodes;
        let mut plan = BatchPlan {
            cell: vec![NO_CELL; nodes.len()],
            n_cells: Vec::with_capacity(cs.properties.len()),
            subject_roots: Vec::new(),
            among: vec![NO_CELL; nodes.len()],
            second_keys: Vec::new(),
        };
        for p in &cs.properties {
            // Everything computed from the subject varies with it; LET and
            // binder slots are counted as varying wholesale, so only the
            // parameters after the first are context.
            let varies = |slot: u32| slot == 0 || slot as usize >= p.n_params;
            let mut next = 0;
            let lets = p.lets.iter().map(|&(_, value)| value);
            let conditions = p.conditions.iter().map(|&(_, pred)| pred);
            let arms = p.confidence.iter().chain(&p.severity).map(|arm| arm.expr);
            for root in lets.chain(conditions).chain(arms) {
                mark_hoist_sites(nodes, root, &varies, &mut plan.cell, &mut next);
                // Slot 0 is the subject only if the property has parameters.
                if p.n_params > 0 {
                    plan.mark_subject_sites(nodes, root);
                }
            }
            plan.n_cells.push(next);
        }
        for (at, ir) in nodes.iter().enumerate() {
            if let Some(key) = second_key(nodes, ir) {
                plan.among[at] = plan.second_keys.len() as u32;
                plan.second_keys.push(key);
            }
        }
        plan
    }

    /// [`mark_hoist_sites`] for what reads the subject alone, after it: a
    /// hoist site stays one. Sites with the same tree get the same cell.
    fn mark_subject_sites(&mut self, nodes: &[Ir], node: NodeRef) {
        if self.cell[node as usize] != NO_CELL {
            return;
        }
        if loads_free_slot(nodes, node, &|slot| slot != 0, &mut Vec::new()) {
            nodes[node as usize].for_each_child(&mut |child| self.mark_subject_sites(nodes, child));
        } else if is_expensive(nodes, node) {
            let mut known = self.subject_roots.iter();
            let shared = known.position(|&root| same_tree(nodes, root, node));
            let id = shared.unwrap_or_else(|| {
                self.subject_roots.push(node);
                self.subject_roots.len() - 1
            });
            self.cell[node as usize] = SUBJECT_CELL | id as u32;
        }
    }
}

/// The same walk as [`Compiler::hoist`], recording sites instead of
/// wrapping them: a subtree that reads only context is a site if it is
/// expensive (and is not descended into — sites are maximal); one that
/// reads more is searched for sites among its children.
fn mark_hoist_sites(
    nodes: &[Ir],
    node: NodeRef,
    varies: &dyn Fn(u32) -> bool,
    cell: &mut [u32],
    next: &mut u32,
) {
    if loads_free_slot(nodes, node, varies, &mut Vec::new()) {
        nodes[node as usize]
            .for_each_child(&mut |child| mark_hoist_sites(nodes, child, varies, cell, next));
    } else if is_expensive(nodes, node) {
        cell[node as usize] = *next;
        *next += 1;
    }
}

/// Do the two subtrees compute the same thing from the same slots? Node
/// for node the same operation on the same names, slots and cache cells
/// (equal cells are more than needed — a subtree numbered differently is
/// merely not shared); spans are not part of what is computed.
fn same_tree(nodes: &[Ir], a: NodeRef, b: NodeRef) -> bool {
    let parts = |node: NodeRef| {
        let mut head = nodes[node as usize].clone();
        let mut children = Vec::new();
        head.map_children(&mut |child| {
            children.push(child);
            0
        });
        (head, children)
    };
    let ((x, xs), (y, ys)) = (parts(a), parts(b));
    // Equal heads have as many children, a missing predicate included.
    x == y && xs.iter().zip(&ys).all(|(&c, &d)| same_tree(nodes, c, d))
}

/// The second key of a selecting construct: for an `Aggregate` or `SetComp`
/// straight over a [`Ir::FilterEq`] whose predicate is nothing but
/// `b.A == c₁ [OR b.A == c₂ …]` — one attribute `A` of the construct's own
/// binder `b`, each `cᵢ` an enum variant — `(A, {cᵢ})`. Never a quantifier:
/// `FORALL` is falsified by the elements a filter drops.
fn second_key(nodes: &[Ir], construct: &Ir) -> Option<(&'static str, Box<[Value]>)> {
    let (slot, source, pred) = match construct {
        Ir::Aggregate {
            slot,
            source,
            pred: Some(pred),
            ..
        }
        | Ir::SetComp {
            slot, source, pred, ..
        } => (*slot, *source, *pred),
        _ => return None,
    };
    if !matches!(nodes[source as usize], Ir::FilterEq { .. }) {
        return None;
    }
    let mut attr = None;
    let mut values = Vec::new();
    alternatives(nodes, pred, slot, &mut attr, &mut values)?;
    Some((attr?, values.into()))
}

/// Collect the `cᵢ` of `b.A == c₁ OR …` (see [`second_key`]), `None` if
/// `pred` is anything else.
fn alternatives(
    nodes: &[Ir],
    pred: NodeRef,
    binder: u32,
    attr: &mut Option<&'static str>,
    values: &mut Vec<Value>,
) -> Option<()> {
    match &nodes[pred as usize] {
        Ir::Binary(BinOp::Or, l, r) => {
            alternatives(nodes, *l, binder, attr, values)?;
            alternatives(nodes, *r, binder, attr, values)
        }
        Ir::Binary(BinOp::Eq, l, r) => {
            let (l, r) = (&nodes[*l as usize], &nodes[*r as usize]);
            let ((Ir::Attr { base, attr: a }, Ir::EnumVal(owner, variant))
            | (Ir::EnumVal(owner, variant), Ir::Attr { base, attr: a })) = (l, r)
            else {
                return None;
            };
            let of_binder = matches!(nodes[*base as usize], Ir::Load(s) if s == binder);
            if !of_binder || attr.is_some_and(|known| known != *a) {
                return None;
            }
            *attr = Some(a);
            values.push(Value::Enum(*owner, *variant));
            Some(())
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Where the running body's registers and cache cells start on the
/// [`Scratch`] stacks. Two scalars: travels in registers.
#[derive(Clone, Copy)]
struct Frame {
    fp: u32,
    cp: u32,
}

impl Frame {
    /// The property body's frame: the bottom of both stacks.
    const ROOT: Frame = Frame { fp: 0, cp: 0 };

    /// Index of register `slot` on the register stack.
    fn slot(self, slot: u32) -> usize {
        (self.fp + slot) as usize
    }

    /// Index of cache cell `cache` on the cache stack.
    fn cache(self, cache: u32) -> usize {
        (self.cp + cache) as usize
    }
}

/// The mutable state of evaluation, reused from instance to instance and —
/// handed from one [`CompiledEvaluator::batch`] to the next — from batch to
/// batch: no instance, helper call or set construct allocates its own.
/// Create one per worker with `Scratch::default()`.
#[derive(Default)]
pub struct Scratch {
    /// Register stack. The running body's slots start at [`Frame::fp`]; a
    /// helper call evaluates its arguments onto the top and runs there.
    frame: Vec<Value>,
    /// Loop-invariant cells ([`Ir::Cached`]), stacked like `frame`.
    caches: Vec<Option<Value>>,
    /// The batch's hoisted subtrees ([`BatchPlan`]): value or error, once
    /// the first instance has reached the site.
    hoisted: Vec<Option<EvalResult<Value>>>,
    /// Which conditions fired in the last instance, one bit each.
    fired: Vec<u64>,
    /// How many helper calls deep the running body is.
    depth: u32,
    /// Lazy-cell lookups, added to the process-wide counters on drop.
    cache_hits: u64,
    cache_misses: u64,
}

impl Scratch {
    /// Did condition `i` fire in the last instance?
    fn fired(&self, i: usize) -> bool {
        self.fired[i / 64] >> (i % 64) & 1 == 1
    }

    /// Invalidate the cache range of a set construct on entry.
    fn reset_caches(&mut self, fr: Frame, resets: (u32, u32)) {
        self.caches[fr.cache(resets.0)..fr.cache(resets.1)].fill(None);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        CACHE_HITS.add(self.cache_hits);
        CACHE_MISSES.add(self.cache_misses);
    }
}

/// Executes a [`CompiledSpec`] against an [`ObjectModel`]. Global constants
/// are evaluated eagerly at construction (in declaration order, mirroring
/// [`crate::Interpreter::new`]).
///
/// The evaluator is `Sync` whenever the data source is: the analyzers share
/// one evaluator across rayon workers, each running its own [`Batch`].
pub struct CompiledEvaluator<M: ObjectModel> {
    spec: Arc<CompiledSpec>,
    data: M,
    consts: Vec<Value>,
    /// The plan's subject cells, one per [`BatchPlan::subject_roots`]: what
    /// a subject-only subtree evaluated to, per subject. Valid while `data`
    /// answers the same — for this evaluator's life, when `data` borrows
    /// its store — and shared by every batch, run, property and worker.
    subjects: Box<[OnceLock<SubjectCell>]>,
}

/// The values of one subject cell: the class of the first subject that
/// reached it and one lazily filled slot per object of that class. Only
/// values are kept — a failing subtree is evaluated again, so that every
/// site reports the failure at its own span.
struct SubjectCell {
    class: Symbol,
    values: Box<[OnceLock<Value>]>,
}

/// What one property instance evaluated to — no names, nothing on the
/// heap. Which conditions fired is a bitmask kept by the [`Batch`]
/// ([`Batch::fired`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Whether any condition held.
    pub holds: bool,
    /// Confidence in `[0, 1]`; zero when the property does not hold.
    pub confidence: f64,
    /// Severity; zero when the property does not hold.
    pub severity: f64,
}

/// One property bound to one shared context, evaluated subject after
/// subject ([`CompiledEvaluator::batch`]).
pub struct Batch<'e, M: ObjectModel> {
    ctx: Ctx<'e, M>,
    prop: &'e PropBody,
    st: &'e mut Scratch,
}

impl<M: ObjectModel> CompiledEvaluator<M> {
    /// Bind a compiled spec to a data source and evaluate its constants.
    pub fn new(spec: Arc<CompiledSpec>, data: M) -> EvalResult<Self> {
        let mut consts: Vec<Value> = Vec::with_capacity(spec.consts.len());
        for c in &spec.consts {
            let v = Ctx::new(&spec, &data, &consts, &[]).run_body(
                c.body,
                (c.n_slots, c.n_caches),
                &mut Scratch::default(),
                0,
            )?;
            consts.push(v);
        }
        let subjects = spec.plan().subject_roots.iter();
        Ok(CompiledEvaluator {
            subjects: subjects.map(|_| OnceLock::new()).collect(),
            spec,
            data,
            consts,
        })
    }

    /// The compiled specification.
    pub fn compiled(&self) -> &Arc<CompiledSpec> {
        &self.spec
    }

    fn ctx(&self) -> Ctx<'_, M> {
        Ctx::new(&self.spec, &self.data, &self.consts, &self.subjects)
    }

    /// Bind property `name` for evaluation over many subjects in one
    /// shared `context` — the arguments after the first; [`Batch::eval`]
    /// supplies the first, the subject. The name is resolved and the arity
    /// checked here, once. `scratch` carries the evaluation state; reuse
    /// one from batch to batch.
    pub fn batch<'e>(
        &'e self,
        name: &str,
        context: &[Value],
        scratch: &'e mut Scratch,
    ) -> EvalResult<Batch<'e, M>> {
        self.bind(name, Some(&Value::Null), context, scratch)
    }

    /// [`batch`](Self::batch) over the full argument list, first argument
    /// (if the property has any) apart.
    fn bind<'e>(
        &'e self,
        name: &str,
        first: Option<&Value>,
        rest: &[Value],
        st: &'e mut Scratch,
    ) -> EvalResult<Batch<'e, M>> {
        let &pid = self.spec.prop_ids.get(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown property `{name}`"))
        })?;
        let prop = &self.spec.properties[pid];
        let n_args = usize::from(first.is_some()) + rest.len();
        if n_args != prop.n_params {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "property `{name}` expects {} arguments, got {n_args}",
                    prop.n_params
                ),
            ));
        }
        st.frame.clear();
        st.frame.extend(first.cloned());
        st.frame.extend_from_slice(rest);
        st.frame.resize(prop.n_slots, Value::Null);
        st.caches.clear();
        st.caches.resize(prop.n_caches, None);
        st.hoisted.clear();
        st.hoisted
            .resize(self.spec.plan().n_cells[pid] as usize, None);
        st.fired.clear();
        st.fired.resize(prop.conditions.len().div_ceil(64), 0);
        Ok(Batch {
            ctx: self.ctx(),
            prop,
            st,
        })
    }

    /// Evaluate a property in the context given by `args` (one value per
    /// declared parameter): a batch of one, with the conditions named.
    /// Mirrors [`crate::Interpreter::eval_property`].
    pub fn eval_property(&self, name: &str, args: &[Value]) -> EvalResult<PropertyOutcome> {
        let mut scratch = Scratch::default();
        let (first, rest) = match args.split_first() {
            Some((first, rest)) => (Some(first), rest),
            None => (None, args),
        };
        let mut batch = self.bind(name, first, rest, &mut scratch)?;
        let Outcome {
            holds,
            confidence,
            severity,
        } = batch.run()?;
        let fired = batch.prop.conditions.iter().enumerate();
        Ok(PropertyOutcome {
            property: name.to_string(),
            holds,
            fired: fired
                .map(|(i, (id, _))| (id.clone(), batch.fired(i)))
                .collect(),
            confidence,
            severity,
        })
    }

    /// Call a compiled helper function by name.
    pub fn call_function(&self, name: &str, args: &[Value]) -> EvalResult<Value> {
        let &fid = self.spec.fn_ids.get(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown function `{name}`"))
        })?;
        let mut st = Scratch::default();
        st.frame.extend_from_slice(args);
        self.ctx().call_fn(fid, &mut st, 0)
    }
}

impl<M: ObjectModel> Batch<'_, M> {
    /// Evaluate the property with `subject` as its first argument.
    pub fn eval(&mut self, subject: Value) -> EvalResult<Outcome> {
        self.st.frame[0] = subject;
        self.run()
    }

    /// Did condition `i` (declaration order) fire in the last instance?
    pub fn fired(&self, i: usize) -> bool {
        self.st.fired(i)
    }

    /// One instance over the arguments currently in the frame. Slots past
    /// the parameters keep the previous instance's values: every body
    /// writes a LET or binder slot before it reads it.
    fn run(&mut self) -> EvalResult<Outcome> {
        let (ctx, p, st) = (&self.ctx, self.prop, &mut *self.st);
        let fr = Frame::ROOT;
        // An instance that failed inside a helper call left its frames on
        // the stacks.
        st.frame.truncate(p.n_slots);
        st.caches.truncate(p.n_caches);
        st.depth = 0;

        for &(slot, value) in &p.lets {
            let v = ctx.operand(value, st, fr)?;
            st.frame[slot as usize] = v;
        }

        st.fired.fill(0);
        let mut holds = false;
        for (i, (_, pred)) in p.conditions.iter().enumerate() {
            let v = ctx.exec(*pred, st, fr)?;
            let b = v.as_bool().ok_or_else(|| {
                EvalError::new(
                    EvalErrorKind::Type,
                    format!("condition evaluated to {}, expected bool", v.type_name()),
                )
            })?;
            if b {
                st.fired[i / 64] |= 1 << (i % 64);
                holds = true;
            }
        }
        if !holds {
            return Ok(Outcome {
                holds: false,
                confidence: 0.0,
                severity: 0.0,
            });
        }

        let mut eval_arms = |arms: &[CompiledArm]| -> EvalResult<f64> {
            let mut best: Option<f64> = None;
            for arm in arms {
                if arm.guard.is_some_and(|i| !st.fired(i)) {
                    continue;
                }
                let v = ctx.operand(arm.expr, st, fr)?;
                let x = v.as_f64().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("arm evaluated to {}, expected number", v.type_name()),
                    )
                })?;
                best = Some(match best {
                    None => x,
                    Some(b) => b.max(x),
                });
            }
            Ok(best.unwrap_or(0.0))
        };

        let confidence = eval_arms(&p.confidence)?.clamp(0.0, 1.0);
        let severity = eval_arms(&p.severity)?;
        Ok(Outcome {
            holds: true,
            confidence,
            severity,
        })
    }
}

/// Borrowed execution context (spec + plan + data + evaluated constants);
/// also used during constant initialization when the evaluator is
/// half-built.
struct Ctx<'c, M: ObjectModel> {
    cs: &'c CompiledSpec,
    plan: &'c BatchPlan,
    /// [`BatchPlan::cell`], looked up on every node execution.
    cell: &'c [u32],
    data: &'c M,
    consts: &'c [Value],
    /// [`CompiledEvaluator::subjects`]; empty while constants initialize
    /// (their bodies have no sites).
    subjects: &'c [OnceLock<SubjectCell>],
}

impl<'c, M: ObjectModel> Ctx<'c, M> {
    fn new(
        cs: &'c CompiledSpec,
        data: &'c M,
        consts: &'c [Value],
        subjects: &'c [OnceLock<SubjectCell>],
    ) -> Self {
        let plan = cs.plan();
        Ctx {
            cs,
            plan,
            cell: &plan.cell,
            data,
            consts,
            subjects,
        }
    }

    /// Run a body whose arguments are the top of the register stack, from
    /// `base` up. `sizes` is the body's `(n_slots, n_caches)`.
    fn run_body(
        &self,
        body: NodeRef,
        sizes: (usize, usize),
        st: &mut Scratch,
        base: usize,
    ) -> EvalResult<Value> {
        st.frame.resize(base + sizes.0, Value::Null);
        let cp = st.caches.len();
        st.caches.resize(cp + sizes.1, None);
        let fr = Frame {
            fp: u32::try_from(base).expect("register stack fits u32"),
            cp: u32::try_from(cp).expect("cache stack fits u32"),
        };
        let out = self.exec(body, st, fr);
        st.caches.truncate(cp);
        st.frame.truncate(base);
        out
    }

    /// Call function `fid` on the arguments at `st.frame[base..]`.
    fn call_fn(&self, fid: usize, st: &mut Scratch, base: usize) -> EvalResult<Value> {
        let f = &self.cs.functions[fid];
        let n_args = st.frame.len() - base;
        if n_args != f.n_params {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "function `{}` expects {} arguments, got {n_args}",
                    f.name, f.n_params
                ),
            ));
        }
        if st.depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(
                EvalErrorKind::Recursion,
                format!("call depth limit exceeded in `{}`", f.name),
            ));
        }
        st.depth += 1;
        let out = self.run_body(f.body, (f.n_slots, f.n_caches), st, base);
        st.depth -= 1;
        out
    }

    /// [`exec`](Self::exec) for operand positions: a leaf, or an attribute
    /// of a variable (`tt.Time`) — together most nodes of a property body
    /// — is read on the spot instead of through a call. Neither is ever a
    /// hoist site; a leaf cannot fail (a constant still initializing goes
    /// the long way to its error) and the attribute read tags its error
    /// as `exec` would.
    #[inline(always)]
    fn operand(&self, node: NodeRef, st: &mut Scratch, fr: Frame) -> EvalResult<Value> {
        let nodes = &self.cs.nodes;
        match &nodes[node as usize] {
            Ir::Load(slot) => Ok(st.frame[fr.slot(*slot)].clone()),
            Ir::Int(v) => Ok(Value::Int(*v)),
            Ir::Float(v) => Ok(Value::Float(*v)),
            Ir::EnumVal(owner, variant) => Ok(Value::Enum(*owner, *variant)),
            Ir::Attr { base, attr } => match &nodes[*base as usize] {
                Ir::Load(slot) => ops::attr_on(self.data, &st.frame[fr.slot(*slot)], attr)
                    .map_err(|e| e.or_span(self.cs.spans[node as usize])),
                _ => self.exec(node, st, fr),
            },
            _ => self.exec(node, st, fr),
        }
    }

    #[inline(always)]
    fn exec(&self, node: NodeRef, st: &mut Scratch, fr: Frame) -> EvalResult<Value> {
        let cell = self.cell[node as usize];
        if cell != NO_CELL {
            return if cell & SUBJECT_CELL == 0 {
                self.exec_hoisted(cell as usize, node, st, fr)
            } else {
                self.exec_subject_site((cell ^ SUBJECT_CELL) as usize, node, st, fr)
            };
        }
        // Tag bubbling errors with the deepest node span that saw them
        // (mirrors the interpreter's `eval` wrapper; success path pays
        // only a no-op `map_err`).
        self.exec_inner(node, st, fr)
            .map_err(|e| e.or_span(self.cs.spans[node as usize]))
    }

    /// A hoist site: evaluated by the first instance of the batch that
    /// reaches it — so short-circuiting and error order are those of
    /// evaluating it every time — then answered from its cell. The cell
    /// keeps an error as it keeps a value: every instance that reaches the
    /// site fails the way re-evaluation would make it fail.
    #[inline(never)]
    fn exec_hoisted(
        &self,
        cell: usize,
        node: NodeRef,
        st: &mut Scratch,
        fr: Frame,
    ) -> EvalResult<Value> {
        if let Some(kept) = &st.hoisted[cell] {
            st.cache_hits += 1;
            return kept.clone();
        }
        st.cache_misses += 1;
        let out = self
            .exec_inner(node, st, fr)
            .map_err(|e| e.or_span(self.cs.spans[node as usize]));
        st.hoisted[cell] = Some(out.clone());
        out
    }

    /// A subject site: evaluated for the first instance of a subject that
    /// reaches it — in any batch on this evaluator — then answered from
    /// the subject's slot. Sites are in property bodies, whose slot 0
    /// holds the subject.
    #[inline(never)]
    fn exec_subject_site(
        &self,
        cell: usize,
        node: NodeRef,
        st: &mut Scratch,
        fr: Frame,
    ) -> EvalResult<Value> {
        let slot = match &st.frame[fr.slot(0)] {
            Value::Obj(subject) => self.subject_slot(cell, subject),
            _ => None,
        };
        if let Some(kept) = slot.and_then(OnceLock::get) {
            st.cache_hits += 1;
            return Ok(kept.clone());
        }
        st.cache_misses += 1;
        let out = self
            .exec_inner(node, st, fr)
            .map_err(|e| e.or_span(self.cs.spans[node as usize]));
        if let (Some(slot), Ok(v)) = (slot, &out) {
            // Another worker may have got there first, with the same value.
            let _ = slot.set(v.clone());
        }
        out
    }

    /// The slot of `subject` in a subject cell, allocating the cell's slots
    /// — as many as the data source has objects of the class — for the
    /// first subject. `None` for an object of another class than that one,
    /// or one the source does not count.
    fn subject_slot(&self, cell: usize, subject: &ObjRef) -> Option<&'c OnceLock<Value>> {
        let kept = self.subjects[cell].get_or_init(|| {
            let n = self.data.extent(subject.class.as_str()).unwrap_or(0);
            SubjectCell {
                class: subject.class,
                values: (0..n).map(|_| OnceLock::new()).collect(),
            }
        });
        let same_class = kept.class == subject.class;
        kept.values
            .get(subject.index as usize)
            .filter(|_| same_class)
    }

    fn exec_inner(&self, node: NodeRef, st: &mut Scratch, fr: Frame) -> EvalResult<Value> {
        match &self.cs.nodes[node as usize] {
            Ir::Int(v) => Ok(Value::Int(*v)),
            Ir::Float(v) => Ok(Value::Float(*v)),
            Ir::Bool(b) => Ok(Value::Bool(*b)),
            Ir::Str(i) => Ok(Value::Str(Arc::clone(&self.cs.strings[*i as usize]))),
            Ir::Load(slot) => Ok(st.frame[fr.slot(*slot)].clone()),
            Ir::Const(i) => match self.consts.get(*i as usize) {
                Some(v) => Ok(v.clone()),
                // Only reachable while constants are still initializing
                // (a forward reference) — the interpreter fails the same
                // way from `Interpreter::new`.
                None => Err(EvalError::new(
                    EvalErrorKind::Unknown,
                    format!("unknown variable `{}`", self.cs.consts[*i as usize].name),
                )),
            },
            Ir::EnumVal(owner, variant) => Ok(Value::Enum(*owner, *variant)),
            Ir::UnknownVar(n) => Err(EvalError::new(
                EvalErrorKind::Unknown,
                format!("unknown variable `{}`", self.cs.strings[*n as usize]),
            )),
            // Operands that are only looked at are borrowed where the
            // callee wrote them (`let Ok(v) = &r else { return r }`), not
            // moved out with `?`: a value is written field by field and a
            // move reads it back in wider loads, which stalls on every
            // narrow field (an object reference, a bool) still in flight.
            Ir::Attr { base, attr } => {
                let b = self.operand(*base, st, fr);
                let Ok(b) = &b else { return b };
                ops::attr_on(self.data, b, attr)
            }
            Ir::Unary(op, inner) => {
                let v = self.operand(*inner, st, fr);
                let Ok(v) = &v else { return v };
                ops::unary(*op, v)
            }
            Ir::Binary(op, lhs, rhs) => match op {
                BinOp::And => Ok(Value::Bool(
                    self.truth(*lhs, "AND", st, fr)? && self.truth(*rhs, "AND", st, fr)?,
                )),
                BinOp::Or => Ok(Value::Bool(
                    self.truth(*lhs, "OR", st, fr)? || self.truth(*rhs, "OR", st, fr)?,
                )),
                _ => {
                    let l = self.operand(*lhs, st, fr);
                    let Ok(l) = &l else { return l };
                    let r = self.operand(*rhs, st, fr);
                    let Ok(r) = &r else { return r };
                    ops::binary_strict(*op, l, r)
                }
            },
            Ir::Cached { cache, expr } => {
                let at = fr.cache(*cache);
                if let Some(v) = &st.caches[at] {
                    st.cache_hits += 1;
                    return Ok(v.clone());
                }
                st.cache_misses += 1;
                let v = self.exec(*expr, st, fr)?;
                st.caches[at] = Some(v.clone());
                Ok(v)
            }
            Ir::Call { func, args } => {
                let base = st.frame.len();
                for a in args.iter() {
                    let v = self.operand(*a, st, fr)?;
                    st.frame.push(v);
                }
                self.call_fn(*func as usize, st, base)
            }
            Ir::CallUnknown { name, args } => {
                for a in args.iter() {
                    self.exec(*a, st, fr)?;
                }
                Err(EvalError::new(
                    EvalErrorKind::Unknown,
                    format!("unknown function `{}`", self.cs.strings[*name as usize]),
                ))
            }
            Ir::MinMax { is_max, args } => {
                let mut best: Option<Value> = None;
                for a in args.iter() {
                    let v = self.operand(*a, st, fr)?;
                    best = ops::fold_builtin_minmax(*is_max, best, v);
                }
                best.ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!(
                            "{} requires at least one argument",
                            if *is_max { "MAX" } else { "MIN" }
                        ),
                    )
                })
            }
            Ir::SetComp { .. } => {
                let mut out = Vec::new();
                self.visit_kept(node, st, fr, |item| out.push(item))?;
                Ok(Value::Set(out.into()))
            }
            Ir::Unique(inner) => {
                let mut n = 0usize;
                let mut only = None;
                self.visit_members(*inner, "UNIQUE applied to", st, fr, |item| {
                    if n == 0 {
                        only = Some(item);
                    }
                    n += 1;
                })?;
                match (n, only) {
                    (1, Some(v)) => Ok(v),
                    (0, _) => Err(EvalError::new(
                        EvalErrorKind::EmptySet,
                        "UNIQUE of an empty set",
                    )),
                    (n, _) => Err(EvalError::new(
                        EvalErrorKind::Ambiguous,
                        format!("UNIQUE of a set with {n} elements"),
                    )),
                }
            }
            Ir::Aggregate {
                op,
                slot,
                source,
                value,
                pred,
                resets,
            } => {
                st.reset_caches(fr, *resets);
                let at = fr.slot(*slot);
                let mut agg = ops::Aggregator::new(*op);
                let among = self.second_key_of(node);
                let not_a_set = "aggregate source is";
                self.visit_elems(*source, among, not_a_set, st, fr, |st, item, selected| {
                    st.frame[at] = item;
                    if let Some(p) = pred.filter(|_| !selected) {
                        let keep = self.exec(p, st, fr)?;
                        if !keep.as_bool().unwrap_or(false) {
                            return Ok(true);
                        }
                    }
                    agg.push(self.operand(*value, st, fr)?);
                    Ok(true)
                })?;
                agg.finish()
            }
            Ir::Quantifier {
                forall,
                slot,
                source,
                pred,
                resets,
            } => {
                st.reset_caches(fr, *resets);
                let at = fr.slot(*slot);
                let mut result = *forall;
                let not_a_set = "quantifier source is";
                self.visit_elems(*source, None, not_a_set, st, fr, |st, item, _| {
                    st.frame[at] = item;
                    let b = match pred {
                        Some(p) => self.exec(*p, st, fr)?.as_bool().unwrap_or(false),
                        None => true,
                    };
                    // FORALL ends at its first counterexample, EXISTS at
                    // its first witness.
                    if b != *forall {
                        result = b;
                    }
                    Ok(b == *forall)
                })?;
                Ok(Value::Bool(result))
            }
            Ir::CountSet(inner) => {
                let mut n = 0i64;
                self.visit_members(*inner, "COUNT applied to", st, fr, |_| n += 1)?;
                Ok(Value::Int(n))
            }
            Ir::FilterEq {
                obj,
                set_attr,
                elem_attr,
                key,
                ctx,
            } => {
                let (obj_ref, key_v) = self.filter_operands(*obj, set_attr, *key, st, fr)?;
                let mut out = Vec::new();
                let filter = Some(SetFilter {
                    elem_attr,
                    key: &key_v,
                    among: None,
                });
                match self
                    .data
                    .visit_set(&obj_ref, set_attr, filter, &mut |elem| {
                        out.push(Value::Obj(elem));
                        Ok(true)
                    }) {
                    Some(lent) => lent.map(|()| Value::Set(out.into())),
                    None => self.scan_filter_eq(&obj_ref, set_attr, elem_attr, &key_v, *ctx),
                }
            }
        }
    }

    /// An operand of the short-circuiting `op`, as a truth value.
    fn truth(&self, node: NodeRef, op: &str, st: &mut Scratch, fr: Frame) -> EvalResult<bool> {
        match self.exec(node, st, fr) {
            Ok(Value::Bool(b)) => Ok(b),
            Ok(v) => Err(ops::type_err(op, &v)),
            Err(e) => Err(e),
        }
    }

    /// Evaluate the object and key of an [`Ir::FilterEq`].
    fn filter_operands(
        &self,
        obj: NodeRef,
        set_attr: &str,
        key: NodeRef,
        st: &mut Scratch,
        fr: Frame,
    ) -> EvalResult<(ObjRef, Value)> {
        let base = self.operand(obj, st, fr)?;
        let Value::Obj(obj_ref) = base else {
            // Reproduce the attribute-access errors the generic lowering
            // would have raised on `base.set_attr`.
            return Err(ops::attr_on(self.data, &base, set_attr)
                .expect_err("attribute access on a non-object fails"));
        };
        // Key evaluation is infallible by construction (see
        // `Compiler::is_infallible`), so hoisting it before the set access
        // cannot reorder observable errors.
        Ok((obj_ref, self.operand(key, st, fr)?))
    }

    /// [`Ir::FilterEq`] on a data source that lends no such filter: scan
    /// the set, comparing element attributes exactly as the unextracted
    /// predicate would.
    fn scan_filter_eq(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        elem_attr: &str,
        key: &Value,
        ctx: SourceCtx,
    ) -> EvalResult<Value> {
        let set = self.data.attr(obj, set_attr)?;
        let Value::Set(items) = set else {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!("{} source is {}", ctx.word(), set.type_name()),
            ));
        };
        let mut out = Vec::new();
        for item in items.iter() {
            let attr_v = ops::attr_on(self.data, item, elem_attr)?;
            if attr_v.asl_eq(key) {
                out.push(item.clone());
            }
        }
        Ok(Value::Set(out.into()))
    }

    /// Visit the elements of the set `source` evaluates to, in set order:
    /// `each` gets one element and the scratch back for its per-element
    /// work, and returns `Ok(false)` to stop the visit. An attribute of the
    /// data source, filtered or whole, is lent ([`ObjectModel::visit_set`])
    /// instead of materialized; anything else — and a source the plan
    /// keeps in a cell — is evaluated to a set first. `not_a_set` starts
    /// the type error for any other value.
    ///
    /// `among` is the second key of the visiting construct
    /// ([`Ctx::second_key_of`]): if the data source answers a filter with it,
    /// `each` is told that the elements it gets are `selected` — they
    /// satisfy the construct's predicate, which need not run.
    ///
    /// Errors are tagged with the source's span as if they came out of
    /// evaluating it: those of `each` carry their own, deeper one already.
    #[inline(never)]
    fn visit_elems<F>(
        &self,
        source: NodeRef,
        among: Option<(&str, &[Value])>,
        not_a_set: &str,
        st: &mut Scratch,
        fr: Frame,
        each: F,
    ) -> EvalResult<()>
    where
        F: FnMut(&mut Scratch, Value, bool) -> EvalResult<bool>,
    {
        self.visit_elems_inner(source, among, not_a_set, st, fr, each)
            .map_err(|e| e.or_span(self.cs.spans[source as usize]))
    }

    fn visit_elems_inner<F>(
        &self,
        source: NodeRef,
        among: Option<(&str, &[Value])>,
        not_a_set: &str,
        st: &mut Scratch,
        fr: Frame,
        mut each: F,
    ) -> EvalResult<()>
    where
        F: FnMut(&mut Scratch, Value, bool) -> EvalResult<bool>,
    {
        let lendable = self.cell[source as usize] == NO_CELL;
        let set = match &self.cs.nodes[source as usize] {
            Ir::FilterEq {
                obj,
                set_attr,
                elem_attr,
                key,
                ctx,
            } if lendable => {
                let (obj_ref, key_v) = self.filter_operands(*obj, set_attr, *key, st, fr)?;
                let one_key = SetFilter {
                    elem_attr,
                    key: &key_v,
                    among: None,
                };
                if among.is_some() {
                    let filter = Some(SetFilter { among, ..one_key });
                    let mut lend = |elem| each(st, Value::Obj(elem), true);
                    if let Some(lent) = self.data.visit_set(&obj_ref, set_attr, filter, &mut lend) {
                        return lent;
                    }
                    // Not answered, and nothing visited: the first key
                    // alone, and the predicate runs.
                }
                let mut lend = |elem| each(st, Value::Obj(elem), false);
                let lent = self
                    .data
                    .visit_set(&obj_ref, set_attr, Some(one_key), &mut lend);
                if let Some(lent) = lent {
                    return lent;
                }
                self.scan_filter_eq(&obj_ref, set_attr, elem_attr, &key_v, *ctx)?
            }
            Ir::Attr { base, attr } if lendable => {
                let b = self.operand(*base, st, fr)?;
                if let Value::Obj(obj_ref) = &b {
                    let mut lend = |elem| each(st, Value::Obj(elem), false);
                    if let Some(lent) = self.data.visit_set(obj_ref, attr, None, &mut lend) {
                        return lent;
                    }
                }
                ops::attr_on(self.data, &b, attr)?
            }
            _ => self.exec(source, st, fr)?,
        };
        let Value::Set(items) = set else {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!("{not_a_set} {}", set.type_name()),
            ));
        };
        for item in items.iter() {
            if !each(st, item.clone(), false)? {
                break;
            }
        }
        Ok(())
    }

    /// The second key `node` selects by ([`BatchPlan::among`]), if it is
    /// such a construct.
    fn second_key_of(&self, node: NodeRef) -> Option<(&'c str, &'c [Value])> {
        let key = self
            .plan
            .second_keys
            .get(self.plan.among[node as usize] as usize);
        key.map(|(attr, values)| (*attr, &**values))
    }

    /// Visit the elements the comprehension `comp` (an [`Ir::SetComp`])
    /// keeps, in set order.
    fn visit_kept(
        &self,
        comp: NodeRef,
        st: &mut Scratch,
        fr: Frame,
        mut keep: impl FnMut(Value),
    ) -> EvalResult<()> {
        let Ir::SetComp {
            slot,
            source,
            pred,
            resets,
        } = &self.cs.nodes[comp as usize]
        else {
            unreachable!("visit_kept is called on comprehension nodes only");
        };
        st.reset_caches(fr, *resets);
        let at = fr.slot(*slot);
        let among = self.second_key_of(comp);
        let not_a_set = "comprehension source is";
        self.visit_elems(*source, among, not_a_set, st, fr, |st, item, selected| {
            if selected {
                keep(item);
                return Ok(true);
            }
            st.frame[at] = item.clone();
            match self.exec(*pred, st, fr)?.as_bool() {
                Some(true) => keep(item),
                Some(false) => {}
                None => {
                    return Err(EvalError::new(
                        EvalErrorKind::Type,
                        "comprehension predicate is not boolean",
                    ));
                }
            }
            Ok(true)
        })
    }

    /// Visit the members of the set `node` evaluates to, for a consumer
    /// that only looks at them (`UNIQUE`, `COUNT`). With no fallible work
    /// between two members, a comprehension can stream the elements it
    /// keeps instead of collecting them: its predicates run in the same
    /// order either way.
    fn visit_members(
        &self,
        node: NodeRef,
        not_a_set: &str,
        st: &mut Scratch,
        fr: Frame,
        mut member: impl FnMut(Value),
    ) -> EvalResult<()> {
        let streams = matches!(self.cs.nodes[node as usize], Ir::SetComp { .. })
            && self.cell[node as usize] == NO_CELL;
        if streams {
            return self
                .visit_kept(node, st, fr, member)
                .map_err(|e| e.or_span(self.cs.spans[node as usize]));
        }
        self.visit_elems(node, None, not_a_set, st, fr, |_, item, _| {
            member(item);
            Ok(true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalErrorKind;
    use crate::interp::Interpreter;
    use crate::value::ObjRef;
    use asl_core::parse_and_check;

    /// The interpreter's unit-test object model, reused verbatim.
    struct Points;

    impl ObjectModel for Points {
        fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
            match (obj.class.as_str(), obj.index, attr) {
                ("Cloud", 0, "Points") => Ok(Value::Set(
                    vec![
                        Value::obj("Point", 0),
                        Value::obj("Point", 1),
                        Value::obj("Point", 2),
                    ]
                    .into(),
                )),
                ("Point", i, "X") => Ok(Value::Float([1.0, 2.0, 3.0][i as usize])),
                ("Point", i, "Y") => Ok(Value::Int([10, 20, 30][i as usize])),
                _ => Err(EvalError::new(
                    EvalErrorKind::Unknown,
                    format!("no attribute {attr} on {obj}"),
                )),
            }
        }
    }

    const MODEL: &str = r#"
        class Cloud { setof Point Points; }
        class Point { float X; int Y; }
    "#;

    fn both(extra: &str, call: &str, args: &[Value]) -> (EvalResult<Value>, EvalResult<Value>) {
        let src = format!("{MODEL}\n{extra}");
        let spec = parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src)));
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &Points).unwrap();
        (
            interp.call_function(call, args),
            compiled.call_function(call, args),
        )
    }

    fn assert_same(extra: &str) {
        let (i, c) = both(extra, "F", &[Value::obj("Cloud", 0)]);
        match (&i, &c) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{extra}"),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind, b.kind, "{extra}");
                assert_eq!(a.message, b.message, "{extra}");
            }
            _ => panic!("divergence on {extra}: interp={i:?} compiled={c:?}"),
        }
    }

    #[test]
    fn aggregates_match_interpreter() {
        assert_same("float F(Cloud c) = SUM(p.X WHERE p IN c.Points);");
        assert_same("float F(Cloud c) = SUM(p.X WHERE p IN c.Points AND p.Y > 10);");
        assert_same("float F(Cloud c) = AVG(p.X WHERE p IN c.Points);");
        assert_same("int F(Cloud c) = MIN(p.Y WHERE p IN c.Points);");
        assert_same("float F(Cloud c) = MAX(p.X WHERE p IN c.Points AND p.Y > 99);");
    }

    #[test]
    fn comprehension_unique_and_errors_match() {
        assert_same("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X == 2.0});");
        assert_same("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X > 0.0});");
        assert_same("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X > 9.0});");
        assert_same("float F(Cloud c) = 1.0 / (COUNT(c.Points) - 3);");
    }

    #[test]
    fn quantifiers_and_count_match() {
        assert_same("bool F(Cloud c) = EXISTS(p IN c.Points WITH p.X == 3.0);");
        assert_same("bool F(Cloud c) = FORALL(p IN c.Points WITH p.X > 1.5);");
        assert_same("int F(Cloud c) = COUNT({p IN c.Points WITH p.Y >= 20});");
    }

    #[test]
    fn indexed_filter_shape_matches_generic_scan() {
        // `p.Y == <key>` extracts into FilterEq; Points has no index so the
        // generic fallback runs — results must equal the interpreter scan.
        assert_same("float F(Cloud c) = SUM(p.X WHERE p IN c.Points AND p.Y == 20);");
        assert_same("int F(Cloud c) = COUNT({p IN c.Points WITH p.Y == 99});");
        assert_same("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.Y == 30});");
    }

    #[test]
    fn forall_never_uses_the_filter() {
        // All elements with Y == 10 have X == 1.0, but FORALL quantifies
        // over the whole set — a filtered FORALL would wrongly hold.
        assert_same("bool F(Cloud c) = FORALL(p IN c.Points WITH p.Y == 10 AND p.X == 1.0);");
    }

    #[test]
    fn constants_and_functions_match() {
        let src = format!(
            "{MODEL}\nfloat T = 0.25;\nfloat G(Point p) = p.X * T;\n\
             float F(Cloud c) = SUM(G(p) WHERE p IN c.Points);"
        );
        let spec = parse_and_check(&src).unwrap();
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &Points).unwrap();
        let args = [Value::obj("Cloud", 0)];
        assert_eq!(
            interp.call_function("F", &args).unwrap(),
            compiled.call_function("F", &args).unwrap()
        );
    }

    #[test]
    fn recursion_limit_matches() {
        let src = format!("{MODEL}\nfloat F(Cloud c) = F(c);");
        let spec = parse_and_check(&src).unwrap();
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &Points).unwrap();
        let args = [Value::obj("Cloud", 0)];
        let a = interp.call_function("F", &args).unwrap_err();
        let b = compiled.call_function("F", &args).unwrap_err();
        assert_eq!(a.kind, EvalErrorKind::Recursion);
        assert_eq!(a.kind, b.kind);
    }

    #[test]
    fn property_outcomes_match() {
        let src = format!(
            "{MODEL}\n\
            PROPERTY HotCloud(Cloud c) {{\n\
                CONDITION: (big) COUNT(c.Points) > 2 OR (small) COUNT(c.Points) > 0;\n\
                CONFIDENCE: MAX((big) -> 1, (small) -> 0.4);\n\
                SEVERITY: MAX((big) -> SUM(p.X WHERE p IN c.Points), (small) -> 0.1);\n\
            }}"
        );
        let spec = parse_and_check(&src).unwrap();
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &Points).unwrap();
        let args = [Value::obj("Cloud", 0)];
        assert_eq!(
            interp.eval_property("HotCloud", &args).unwrap(),
            compiled.eval_property("HotCloud", &args).unwrap()
        );
        // Arity errors too.
        assert_eq!(
            interp.eval_property("HotCloud", &[]).unwrap_err().kind,
            compiled.eval_property("HotCloud", &[]).unwrap_err().kind
        );
    }

    #[test]
    fn loop_invariant_aggregate_is_hoisted_and_correct() {
        // `MIN(q.Y WHERE q IN c.Points)` inside the pred is invariant wrt
        // `p` — hoisting turns the O(n²) scan into O(n) with the same
        // result as the interpreter's re-evaluating walk.
        assert_same(
            "float F(Cloud c) = SUM(p.X WHERE p IN c.Points \
             AND p.Y == MIN(q.Y WHERE q IN c.Points));",
        );
        // The same shape as the suite's SublinearSpeedup reference-run
        // lookup.
        assert_same(
            "Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.Y == \
             MIN(q.Y WHERE q IN c.Points)});",
        );
    }

    #[test]
    fn binder_dependent_inner_loops_are_not_cached() {
        // The EXISTS depends on `p` through `q.Y == p.Y` — it must be
        // re-evaluated per element, not cached across them.
        assert_same(
            "float F(Cloud c) = SUM(p.X WHERE p IN c.Points \
             AND EXISTS(q IN c.Points WITH q.Y == p.Y + 10));",
        );
        // Inner-binder-only subtrees (here: the nested MAX over `q`) must
        // not be cached at the outer level either — `q` changes per outer
        // iteration of the middle construct.
        assert_same(
            "float F(Cloud c) = SUM(p.X WHERE p IN c.Points AND \
             EXISTS(q IN c.Points WITH q.X == MAX(w.X WHERE w IN c.Points \
             AND w.Y <= q.Y)));",
        );
    }

    #[test]
    fn sibling_scopes_reuse_slots() {
        let src = format!(
            "{MODEL}\nfloat F(Cloud c) = SUM(p.X WHERE p IN c.Points) \
             + SUM(q.Y WHERE q IN c.Points);"
        );
        let spec = parse_and_check(&src).unwrap();
        let cs = compile(&spec);
        // One parameter slot + one (shared) binder slot.
        assert_eq!(cs.functions[0].n_slots, 2);
        let compiled = CompiledEvaluator::new(Arc::new(cs), &Points).unwrap();
        let v = compiled
            .call_function("F", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert_eq!(v.as_f64().unwrap(), 6.0 + 60.0);
    }
}
