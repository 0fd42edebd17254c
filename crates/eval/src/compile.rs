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
//! argument), each a **lane**. A batch resolves the property once and runs
//! its body **node by node over all lanes at once**: every node executes
//! once per batch over the lanes that reach it, writing a column of lane
//! values onto the reusable stacks of a [`Scratch`]. Lanes are unboxed: a
//! column whose lanes are all floats, integers, truth values or objects is
//! a run of plain `f64`/`i64`/`bool` words or object references, and only
//! a column whose lanes mix kinds, or hold strings, sets, enums, dates or
//! `Null`, holds [`Value`]s; a failed lane's error sits in a table beside
//! its column, with a count, so settling a column no lane of which failed
//! costs nothing. Operators run over the unboxed lanes through the scalar
//! kernels of [`crate::ops`] that the interpreter's operators call too;
//! `Value` is what the data source, the interpreter and the API see. A
//! value every lane shares
//! — the context, a constant, a literal, a hoisted subtree — is kept once,
//! not copied per lane. A selection of active lanes drives `AND`/`OR`
//! short-circuits, conditions (which fire per lane) and guarded arms; a
//! lane that fails drops out of every later node. A set construct lends
//! each active lane's elements into one column of elements, each tagged
//! with its owning lane, runs its predicate and value bodies once over that
//! column, and folds each lane's elements in set order — a float `SUM`
//! adds as one instance alone would. The element column is a copy — one
//! value per element of every active lane, and of each outer slot the body
//! reads — so a construct's stack grows with the batch's width times the
//! set's size, on the reused scratch. A quantifier tests its elements in
//! rounds of doubling length over the lanes still undecided, so a lane
//! its first element decides costs a round, not its whole set. A helper
//! call runs its body over the caller's lanes.
//! [`CompiledEvaluator::eval_property`],
//! [`CompiledEvaluator::call_function`] and constant initialization are
//! one-lane batches: there is one executor.
//!
//! A lane's outcome is the one evaluating its instance alone gives, error
//! included: its error is the first it would meet in that order. An
//! element's failure is its lane's only if no earlier element of the lane
//! failed, and elements after a lane's deciding one (a `FORALL`
//! counterexample, an `EXISTS` witness) cannot fail it.
//!
//! What need not be computed per lane is not. The evaluator keeps three
//! kinds of cell: an expensive subtree that reads nothing but the shared
//! context is evaluated once per batch, value or error (a *hoist* cell);
//! one that reads nothing but the subject, also through LETs, once per
//! subject for as long as the evaluator is bound to its data — across runs
//! and properties (a *subject* cell); and one that reads the subject and
//! the context and occurs twice or more in the spec once per subject and
//! context, whichever property reaches it first (a *run* cell) — sums that
//! select disjoint values of one attribute over one indexed source filling
//! theirs in one visit. Subject and run cells hold a lane's value as a
//! column does, a number or an object unboxed, so a lane is answered from
//! its subject's cell, or fills it, by copying one word. A predicate that
//! only selects elements by a set of constants (`tt.Type == A OR tt.Type
//! == B`) is handed to the data source with the filter in front of it
//! ([`SetFilter::among`]) instead of being run per element, and
//! `UNIQUE`/`COUNT` of an indexed filter and an aggregate of a binder
//! attribute over one are answered by the data source
//! ([`ObjectModel::count_set`], [`ObjectModel::visit_attr`]) without
//! lending the elements. Which subtrees and predicates those are, and which outer
//! slots a set construct's body reads, is a plan computed *beside* the node
//! pool on first bind ([`CompiledSpec::node_count`] and the pool that
//! kojak-lint and kojak-flow walk are exactly what [`compile`] emitted).

use crate::error::{EvalError, EvalErrorKind, EvalResult};
use crate::interp::{ObjectModel, PropertyOutcome, SetFilter};
use crate::ops;
use crate::reads::PropertyReads;
use crate::value::{ObjRef, Value};
use asl_core::ast::*;
use asl_core::check::CheckedSpec;
use asl_core::intern::Symbol;
use asl_core::Span;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Maximum user-function call depth (mirrors the interpreter).
const MAX_CALL_DEPTH: u32 = 64;

/// Process-wide hit counter of the evaluator's lazy cells: loop-invariant
/// ([`Ir::Cached`]), per-batch context (hoisted subtrees), per-flush
/// subject and per subject and context (subtrees kept while the evaluator
/// lives). `const`-
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

/// Process-wide count of IR node executions: one per node and selection
/// of lanes it runs over, counted in the [`Scratch`] beside the cache
/// lookups and added when it is dropped.
static NODE_EXECUTIONS: obs::Counter = obs::Counter::new();

/// Lifetime IR node executions of every compiled evaluator in the process
/// — a work count a wall clock cannot blur: one per node and batch, not
/// one per node and instance.
pub fn node_executions() -> u64 {
    NODE_EXECUTIONS.get()
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
    pub(crate) fn for_each_child(&self, f: &mut dyn FnMut(NodeRef)) {
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
    body: NodeRef,
}

#[derive(Debug)]
struct FnBody {
    name: String,
    n_params: usize,
    n_slots: usize,
    body: NodeRef,
}

#[derive(Debug)]
struct PropBody {
    n_params: usize,
    n_slots: usize,
    /// `(slot, value)` in declaration order.
    lets: Vec<(u32, NodeRef)>,
    /// `(condition id, predicate)` in declaration order.
    conditions: Vec<(Option<String>, NodeRef)>,
    confidence: Vec<CompiledArm>,
    severity: Vec<CompiledArm>,
}

impl PropBody {
    /// The roots of the body's expressions: the LETs' values, the
    /// conditions, then the confidence and severity arms.
    fn roots(&self) -> impl Iterator<Item = NodeRef> + '_ {
        let lets = self.lets.iter().map(|&(_, value)| value);
        let conditions = self.conditions.iter().map(|&(_, pred)| pred);
        let arms = self.confidence.iter().chain(&self.severity);
        lets.chain(conditions).chain(arms.map(|arm| arm.expr))
    }
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
    /// Which subtrees a [`Batch`] keeps alive across its lanes.
    /// Computed on first bind, never by [`compile`]: the spec front end
    /// (parse → check → compile → lint) does not pay for it.
    plan: OnceLock<BatchPlan>,
    /// What each property reads of the store ([`crate::reads`]), derived
    /// on first ask; like the plan, not part of the pool.
    reads: OnceLock<Box<[PropertyReads]>>,
}

impl CompiledSpec {
    fn plan(&self) -> &BatchPlan {
        self.plan.get_or_init(|| BatchPlan::build(self))
    }

    /// The read summary of every property, in declaration order: which
    /// measurement sets it reads of its subject and of its basis, and of
    /// which runs ([`crate::reads`]). Derived once, on first ask.
    pub fn property_reads(&self) -> &[PropertyReads] {
        self.reads.get_or_init(|| crate::reads::derive(self))
    }

    /// Number of IR nodes (diagnostics/benchmarks).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// What the evaluator's plan holds beside those nodes (diagnostics and
    /// tests; builds the plan if no evaluator has been bound yet).
    pub fn plan_stats(&self) -> PlanStats {
        let plan = self.plan();
        let sites = |kind| {
            let marked = plan.cell.iter().filter(|&&c| c != NO_CELL);
            marked
                .filter(|&&c| c & (SUBJECT_CELL | RUN_CELL) == kind)
                .count()
        };
        PlanStats {
            hoist_sites: sites(0),
            subject_sites: sites(SUBJECT_CELL),
            subject_cells: plan.subject_cells as usize,
            run_sites: sites(RUN_CELL),
            run_cells: plan.run_cells(),
            sum_groups: plan.groups.len(),
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
    /// Subtrees that read only the subject, also through LETs: evaluated
    /// once per subject and binding.
    pub subject_sites: usize,
    /// Distinct cells behind the subject sites (equal subtrees share one).
    pub subject_cells: usize,
    /// Subtrees that read the subject and the context and occur at least
    /// twice in the spec, or sum in a group: evaluated once per subject and
    /// context.
    pub run_sites: usize,
    /// Distinct cells behind the run sites.
    pub run_cells: usize,
    /// Groups of sums over one indexed source filled in one visit.
    pub sum_groups: usize,
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
            reads: OnceLock::new(),
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
                // reaches on unindexed models. (The executor tests a
                // lane's elements in rounds, so it stops within a round
                // of the witness too: `Ctx::decide`.)
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
    /// [`Ir::FilterEq`] when it is safe: the shape is one
    /// [`shape::indexed_filter`] recognises (the conjunct is the **first**
    /// one evaluated, so skipped elements never reached the rest of the
    /// predicate anyway), and the lowered key is infallible (so hoisting
    /// its evaluation out of the loop cannot reorder errors).
    fn lower_source<'e>(
        &mut self,
        binder: &Ident,
        source: &'e Expr,
        pred: Option<&'e Expr>,
        ctx: SourceCtx,
    ) -> (NodeRef, Option<Residual<'e>>) {
        if let Some(filter) = shape::indexed_filter(&binder.name, source, pred) {
            // Key compiled in the *outer* scope; it is binder-free by the
            // shape's check, so resolution is identical.
            let key = self.lower(filter.key);
            if self.is_infallible(key) {
                let obj = self.lower(filter.base);
                let set_attr = Symbol::intern(filter.set_attr).as_str();
                let elem_attr = Symbol::intern(filter.elem_attr).as_str();
                let src = self.push(Ir::FilterEq {
                    obj,
                    set_attr,
                    elem_attr,
                    key,
                    ctx,
                });
                return (src, Some(Residual::Conjuncts(filter.residual)));
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
    /// if so. `Compiler::lower_source` extracts exactly these: the source
    /// must be an attribute access, the **first** conjunct must be
    /// `binder.Attr == key` (either side), and the key must be a simple
    /// binder-free expression. The compiler also requires the lowered key
    /// to be infallible, which on a checked spec "simple" implies (every
    /// name the checker admits resolves).
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

/// Set on the [`BatchPlan::cell`] of a *run* site; the other bits are the
/// run cell's id.
const RUN_CELL: u32 = 1 << 30;

/// What a subtree of a property body reads ([`Body::reads`]), one bit
/// each: the subject (slot 0), the batch's context (the other parameters)
/// and anything else — a binder of a construct around the subtree. A LET
/// reads what its value reads.
const READS_SUBJECT: u8 = 1;
/// See [`READS_SUBJECT`].
const READS_CONTEXT: u8 = 2;
/// See [`READS_SUBJECT`].
const READS_OTHER: u8 = 4;

/// What the evaluator knows about each property beyond its nodes. Three
/// kinds of subtree are evaluated once and answered from a cell
/// afterwards, sibling sums are filled together, and one kind of
/// predicate is not executed at all:
///
/// * **Hoist sites.** Within a batch only the subject (slot 0) changes, so
///   an expensive subtree that reads nothing but the other parameters —
///   `Duration(Basis, t)` in every severity of the standard suite — has one
///   value, or one error, for all lanes. It gets a cell in the batch's
///   scratch that is filled once, for the first lane that reaches it, and
///   answers every lane that does.
/// * **Subject sites.** An expensive subtree that reads nothing but the
///   subject, also through LETs whose values do — `MinPeSum` of
///   `SublinearSpeedup` and `UnmeasuredCost`, which finds a region's
///   reference run, and `Duration(r, MinPeSum.Run)` — has one value per
///   subject whatever the run and whichever property asks. It gets a
///   *subject cell* of the evaluator ([`CompiledEvaluator::kept`]) that
///   lives as long as the binding to the data does.
/// * **Run sites.** An expensive subtree that reads the subject and the
///   context, also through LETs, and occurs at least twice in the spec —
///   `TotalCost`, `Summary(r,t).Ovhd` and the call statistics `ct` of the
///   suite — has one value per subject and context. It gets a *run cell*
///   of the evaluator, filled by the first property that reaches it and
///   read by every later one, until a batch binds another context.
/// * **Sum groups.** Sums of one attribute over one indexed source that
///   select by a second key among values no other member selects — the
///   seven per-overhead-family sums — are filled together: the first
///   member reached visits the source once, and each member adds its own
///   elements, in the source's order, into its run cell.
/// * **Second keys.** An `Aggregate` or `SetComp` over an indexed filter
///   whose remaining predicate is `x.A == c₁ [OR x.A == c₂ …]` *selects*
///   the elements with `A ∈ {cᵢ}`. The set is asked of the data source
///   ([`SetFilter::among`]); a source that answers has applied the
///   predicate.
///
/// Subject and run sites are maximal (a run site may hold subject sites),
/// and equal subtrees — node for node, a LET read as its value, a binder
/// by its position — share one cell. A cell keeps values only: a failing
/// subtree is evaluated again, so that every site reports the failure at
/// its own span. No site yields a set, which a cell would hold
/// materialized.
///
/// A side table rather than new nodes in the pool: lint, flow and the
/// benchmark's committed node counts see the pool [`compile`] emitted.
#[derive(Debug)]
struct BatchPlan {
    /// Per node: [`NO_CELL`], its hoist cell, [`SUBJECT_CELL`] + its
    /// subject cell or [`RUN_CELL`] + its run cell. Sites are in property
    /// bodies only: function and constant bodies have none (their slots
    /// are arguments, not context).
    cell: Vec<u32>,
    /// Per property: how many hoist cells its sites use.
    n_cells: Vec<u32>,
    /// How many distinct subject cells the sites use.
    subject_cells: u32,
    /// Per run cell: its sum group in `groups`, [`NO_CELL`] if none.
    group_of: Vec<u32>,
    groups: Vec<SumGroup>,
    /// Per node: for a construct that selects by a second key, its index
    /// in `second_keys`; [`NO_CELL`] otherwise.
    among: Vec<u32>,
    /// `(attribute, values)` of each second key.
    second_keys: Vec<(&'static str, Box<[Value]>)>,
    /// Per node: for a set construct, the outer slots its body reads —
    /// bit `s` for slot `s`, bit 63 for slot 63 and up — which the frame
    /// of its elements takes from the frame it runs in; 0 otherwise.
    gather: Vec<u64>,
}

/// Sums filled together ([`BatchPlan`]): `SUM(x.attr WHERE x IN s AND
/// (x.by == c₁ OR …))`, one source `s` and one `attr`, each member
/// selecting values of `by` no other member selects.
#[derive(Debug)]
struct SumGroup {
    attr: &'static str,
    by: &'static str,
    /// Per member: its run cell.
    members: Box<[u32]>,
    /// Each value of `by` a member selects — an enum variant, as
    /// [`enum_key`] packs it — and the member's index.
    routes: Box<[(u64, u32)]>,
}

/// An enum variant as one integer: its enum's symbol, then its own.
fn enum_key(v: &Value) -> Option<u64> {
    match v {
        Value::Enum(owner, variant) => Some(u64::from(owner.id()) << 32 | u64::from(variant.id())),
        _ => None,
    }
}

impl BatchPlan {
    fn build(cs: &CompiledSpec) -> Self {
        let nodes = &cs.nodes;
        let mut plan = BatchPlan {
            cell: vec![NO_CELL; nodes.len()],
            n_cells: Vec::with_capacity(cs.properties.len()),
            subject_cells: 0,
            group_of: Vec::new(),
            groups: Vec::new(),
            among: vec![NO_CELL; nodes.len()],
            second_keys: Vec::new(),
            gather: vec![0; nodes.len()],
        };
        for p in &cs.properties {
            // Everything computed from the subject varies with it; LET and
            // binder slots are counted as varying wholesale, so only the
            // parameters after the first are context.
            let varies = |slot: u32| slot == 0 || slot as usize >= p.n_params;
            let mut next = 0;
            for root in p.roots() {
                mark_hoist_sites(nodes, root, &varies, &mut plan.cell, &mut next);
            }
            plan.n_cells.push(next);
        }
        for (at, ir) in nodes.iter().enumerate() {
            if let Some(key) = second_key(nodes, ir) {
                plan.among[at] = plan.second_keys.len() as u32;
                plan.second_keys.push(key);
            }
            if let Ir::SetComp { slot, .. }
            | Ir::Aggregate { slot, .. }
            | Ir::Quantifier { slot, .. } = ir
            {
                // Every child but the first, the source, is the body.
                let mut source = true;
                ir.for_each_child(&mut |child| {
                    if !std::mem::take(&mut source) {
                        outer_reads(nodes, child, *slot, &mut plan.gather[at]);
                    }
                });
            }
        }
        KeptSites::mark(cs, &mut plan);
        plan
    }

    /// The run cells the sites use.
    fn run_cells(&self) -> usize {
        self.group_of.len()
    }
}

/// A property body as [`BatchPlan`]'s subject and run sites see it: what
/// each slot reads, and the LETs a key reads through.
struct Body<'p> {
    prop: &'p PropBody,
    /// Per slot: the `READS_*` bits of a parameter or a LET; binder slots
    /// are [`READS_OTHER`].
    slots: Vec<u8>,
    /// The binders [`Body::reads`] walks under, reused.
    binders: RefCell<Vec<u32>>,
}

impl<'p> Body<'p> {
    fn new(nodes: &[Ir], prop: &'p PropBody) -> Self {
        let mut body = Body {
            prop,
            slots: vec![READS_OTHER; prop.n_slots],
            binders: RefCell::default(),
        };
        for s in 0..prop.n_params {
            body.slots[s] = if s == 0 { READS_SUBJECT } else { READS_CONTEXT };
        }
        for &(slot, value) in &prop.lets {
            body.slots[slot as usize] = body.reads(nodes, value, &[]);
        }
        body
    }

    /// What the subtree reads, `outer` the binders of the constructs
    /// around it.
    fn reads(&self, nodes: &[Ir], node: NodeRef, outer: &[u32]) -> u8 {
        let mut reads = 0;
        let mut binders = self.binders.borrow_mut();
        binders.clear();
        scoped_walk(nodes, node, &mut binders, &mut |node, inner| {
            if let Ir::Load(s) = &nodes[node as usize] {
                reads |= if inner.contains(s) {
                    0
                } else if outer.contains(s) {
                    READS_OTHER
                } else {
                    self.slots.get(*s as usize).copied().unwrap_or(READS_OTHER)
                };
            }
            true
        });
        reads
    }

    /// The value a free load of LET slot `slot` reads.
    fn let_value(&self, slot: u32) -> Option<NodeRef> {
        let mut lets = self.prop.lets.iter();
        lets.find(|&&(s, _)| s == slot).map(|&(_, value)| value)
    }
}

/// Visit `node`, then — while `visit` says so — its children, each with the
/// binders of the constructs around it within the walk, innermost last.
fn scoped_walk(
    nodes: &[Ir],
    node: NodeRef,
    binders: &mut Vec<u32>,
    visit: &mut dyn FnMut(NodeRef, &[u32]) -> bool,
) {
    if !visit(node, binders) {
        return;
    }
    let ir = &nodes[node as usize];
    let binder = match ir {
        Ir::SetComp { slot, .. } | Ir::Aggregate { slot, .. } | Ir::Quantifier { slot, .. } => {
            Some(*slot)
        }
        _ => None,
    };
    // A construct's binder is in scope for its predicate and value, not
    // for its source — the first child.
    let mut in_scope = None;
    ir.for_each_child(&mut |child| {
        binders.extend(in_scope);
        scoped_walk(nodes, child, binders, visit);
        if in_scope.is_some() {
            binders.pop();
        }
        in_scope = binder;
    });
}

/// May the subtree be a subject or run site? It is expensive and yields
/// no set: not a filter or a comprehension, nor a call of a function
/// whose body is one.
fn keeps(cs: &CompiledSpec, node: NodeRef) -> bool {
    let mut root = node;
    for _ in 0..MAX_CALL_DEPTH {
        match &cs.nodes[root as usize] {
            Ir::Cached { expr, .. } => root = *expr,
            Ir::Call { func, .. } => root = cs.functions[*func as usize].body,
            Ir::FilterEq { .. } | Ir::SetComp { .. } => return false,
            _ => break,
        }
    }
    is_expensive(&cs.nodes, node)
}

/// Structural keys of subtrees: equal keys compute the same value from
/// the same subject, context and data. A node's key is its operation and
/// the keys of its children; a free load of a LET is the key of the LET's
/// value, a load of a binder within the subtree its depth, and a cache
/// wrapper ([`Ir::Cached`]) the key of what it wraps.
#[derive(Default)]
struct Keys {
    /// The operation and up to three children; a fourth and more are the
    /// key of a list node in the third.
    ids: HashMap<(Head, [u32; 3]), u32>,
    /// The binders of a keyed subtree, reused.
    binders: Vec<u32>,
}

/// The operation of a node in a key: its variant and what it carries
/// besides its children.
type Head = (u8, u64, u64);

impl Keys {
    /// The key of the subtree at `node` in `body`.
    fn key(&mut self, nodes: &[Ir], body: &Body<'_>, node: NodeRef) -> u32 {
        let mut binders = std::mem::take(&mut self.binders);
        binders.clear();
        let key = self.of(nodes, body, node, &mut binders);
        self.binders = binders;
        key
    }

    /// The key of `node` in `body`, `binders` those bound around it within
    /// the keyed subtree.
    fn of(&mut self, nodes: &[Ir], body: &Body<'_>, node: NodeRef, binders: &mut Vec<u32>) -> u32 {
        let sym = |s: &str| u64::from(Symbol::intern(s).id());
        let head: Head = match &nodes[node as usize] {
            Ir::Load(s) => match binders.iter().rev().position(|b| b == s) {
                Some(depth) => (0, depth as u64, 0),
                None => match body.let_value(*s) {
                    Some(value) if *s as usize >= body.prop.n_params => {
                        let mut outside = Vec::new();
                        return self.of(nodes, body, value, &mut outside);
                    }
                    _ => (1, u64::from(*s), 0),
                },
            },
            Ir::Cached { expr, .. } => return self.of(nodes, body, *expr, binders),
            Ir::Int(v) => (2, *v as u64, 0),
            Ir::Float(v) => (3, v.to_bits(), 0),
            Ir::Bool(b) => (4, u64::from(*b), 0),
            Ir::Str(i) => (5, u64::from(*i), 0),
            Ir::Const(i) => (6, u64::from(*i), 0),
            Ir::EnumVal(owner, variant) => (7, u64::from(owner.id()), u64::from(variant.id())),
            Ir::UnknownVar(n) => (8, u64::from(*n), 0),
            Ir::Attr { attr, .. } => (9, sym(attr), 0),
            Ir::Call { func, .. } => (10, u64::from(*func), 0),
            Ir::CallUnknown { name, .. } => (11, u64::from(*name), 0),
            Ir::MinMax { is_max, .. } => (12, u64::from(*is_max), 0),
            Ir::Unary(op, _) => (13, *op as u64, 0),
            Ir::Binary(op, ..) => (14, *op as u64, 0),
            Ir::SetComp { .. } => (15, 0, 0),
            Ir::Unique(_) => (16, 0, 0),
            Ir::Aggregate { op, .. } => (17, *op as u64, 0),
            Ir::Quantifier { forall, .. } => (18, u64::from(*forall), 0),
            Ir::CountSet(_) => (19, 0, 0),
            Ir::FilterEq {
                set_attr,
                elem_attr,
                ctx,
                ..
            } => (
                20,
                sym(set_attr),
                sym(elem_attr) << 1 | (*ctx == SourceCtx::Agg) as u64,
            ),
        };
        let ir = &nodes[node as usize];
        let binder = match ir {
            Ir::SetComp { slot, .. } | Ir::Aggregate { slot, .. } | Ir::Quantifier { slot, .. } => {
                Some(*slot)
            }
            _ => None,
        };
        // Up to eight children on the stack; a longer list (an n-ary call)
        // is collected.
        let mut kids = [0; 8];
        let mut more = Vec::new();
        let mut n = 0;
        let mut in_scope = None;
        ir.for_each_child(&mut |child| {
            binders.extend(in_scope);
            let kid = self.of(nodes, body, child, binders);
            if n < kids.len() {
                kids[n] = kid;
            } else {
                if more.is_empty() {
                    more.extend_from_slice(&kids);
                }
                more.push(kid);
            }
            n += 1;
            if in_scope.is_some() {
                binders.pop();
            }
            in_scope = binder;
        });
        let all = if n <= kids.len() {
            &kids[..n]
        } else {
            &more[..]
        };
        self.intern(head, all)
    }

    /// The key of `head` over `kids`, interned.
    fn intern(&mut self, head: Head, kids: &[u32]) -> u32 {
        let mut slots = [u32::MAX; 3];
        if kids.len() <= 3 {
            slots[..kids.len()].copy_from_slice(kids);
        } else {
            slots[..2].copy_from_slice(&kids[..2]);
            slots[2] = self.intern((u8::MAX, kids.len() as u64, 0), &kids[2..]);
        }
        let next = self.ids.len() as u32;
        *self.ids.entry((head, slots)).or_insert(next)
    }
}

/// A run site that may join a sum group ([`KeptSites::sum`]).
struct Sum {
    node: NodeRef,
    key: u32,
    /// The key of its indexed source.
    source: u32,
    attr: &'static str,
    by: &'static str,
    values: Box<[Value]>,
}

/// The marking of subject and run sites and of sum groups
/// ([`BatchPlan`]), across the properties of a spec.
#[derive(Default)]
struct KeptSites {
    keys: Keys,
    /// Per key: how many candidate run sites have it.
    counts: HashMap<u32, u32>,
    /// Per key: its cell, flag included.
    cells: HashMap<u32, u32>,
    /// The run sites that are members of a sum group.
    grouped: HashSet<NodeRef>,
}

impl KeptSites {
    fn mark(cs: &CompiledSpec, plan: &mut BatchPlan) {
        let nodes = &cs.nodes;
        let mut sites = KeptSites::default();
        let bodies = cs.properties.iter().filter(|p| p.n_params > 0);
        let bodies: Vec<Body> = bodies.map(|p| Body::new(nodes, p)).collect();
        // Count the candidate run sites at every depth by key, and collect
        // the sums among them.
        let mut sums = Vec::new();
        for body in &bodies {
            for root in body.prop.roots() {
                scoped_walk(nodes, root, &mut Vec::new(), &mut |node, outer| {
                    if plan.cell[node as usize] != NO_CELL {
                        return false;
                    }
                    let reads = body.reads(nodes, node, outer);
                    if reads & READS_OTHER == 0 && reads & READS_CONTEXT != 0 && keeps(cs, node) {
                        let key = sites.keys.key(nodes, body, node);
                        *sites.counts.entry(key).or_default() += 1;
                        sums.extend(sites.sum(nodes, plan, body, node, key));
                    }
                    true
                });
            }
        }
        sites.group(plan, sums);
        for body in &bodies {
            for root in body.prop.roots() {
                sites.mark_sites(cs, plan, body, root, &mut Vec::new(), false);
            }
        }
    }

    /// `node` as a candidate member of a sum group: `SUM(x.A WHERE x IN
    /// s AND …)` whose predicate is a second key and whose source `s` is an
    /// indexed filter.
    fn sum(
        &mut self,
        nodes: &[Ir],
        plan: &BatchPlan,
        body: &Body<'_>,
        node: NodeRef,
        key: u32,
    ) -> Option<Sum> {
        let Ir::Aggregate {
            op: AggOp::Sum,
            slot,
            source,
            value,
            pred: Some(_),
            ..
        } = &nodes[node as usize]
        else {
            return None;
        };
        let (by, values) = plan.second_keys.get(plan.among[node as usize] as usize)?;
        let Ir::Attr { base, attr } = &nodes[*value as usize] else {
            return None;
        };
        let of_binder = matches!(nodes[*base as usize], Ir::Load(s) if s == *slot);
        if !of_binder || !matches!(nodes[*source as usize], Ir::FilterEq { .. }) {
            return None;
        }
        Some(Sum {
            node,
            key,
            source: self.keys.key(nodes, body, *source),
            attr,
            by,
            values: values.clone(),
        })
    }

    /// Form the sum groups: a sum joins the first group of its source,
    /// attribute and second key whose members select none of its values,
    /// or starts one; a group of one is dropped. A key that is already a
    /// member joins no group twice.
    fn group(&mut self, plan: &mut BatchPlan, sums: Vec<Sum>) {
        let mut groups: Vec<Vec<Sum>> = Vec::new();
        let mut placed = HashSet::new();
        for sum in sums.into_iter().filter(|sum| placed.insert(sum.key)) {
            let fits = |members: &Vec<Sum>| {
                let first = &members[0];
                let overlaps = |m: &Sum| {
                    m.values
                        .iter()
                        .any(|v| sum.values.iter().any(|w| v.asl_eq(w)))
                };
                (first.source, first.attr, first.by) == (sum.source, sum.attr, sum.by)
                    && !members.iter().any(overlaps)
            };
            match groups.iter().position(fits) {
                Some(g) => groups[g].push(sum),
                None => groups.push(vec![sum]),
            }
        }
        for members in groups.into_iter().filter(|members| members.len() >= 2) {
            let group = plan.groups.len() as u32;
            let (attr, by) = (members[0].attr, members[0].by);
            let mut routes = Vec::new();
            let mut cells = Vec::new();
            for (m, sum) in members.into_iter().enumerate() {
                self.grouped.insert(sum.node);
                let cell = self.cell(plan, sum.key, RUN_CELL) ^ RUN_CELL;
                plan.group_of[cell as usize] = group;
                cells.push(cell);
                routes.extend(
                    sum.values
                        .iter()
                        .filter_map(enum_key)
                        .map(|v| (v, m as u32)),
                );
            }
            plan.groups.push(SumGroup {
                attr,
                by,
                members: cells.into(),
                routes: routes.into(),
            });
        }
    }

    /// The cell of `key`, made on first ask: a subject cell or a run cell,
    /// as `flag` says.
    fn cell(&mut self, plan: &mut BatchPlan, key: u32, flag: u32) -> u32 {
        *self.cells.entry(key).or_insert_with(|| {
            let id = if flag == SUBJECT_CELL {
                plan.subject_cells += 1;
                plan.subject_cells - 1
            } else {
                plan.group_of.push(NO_CELL);
                plan.group_of.len() as u32 - 1
            };
            flag | id
        })
    }

    /// Mark the maximal subject and run sites of the subtree at `node` of
    /// `body`, `outer` the binders around it; within a run site (`in_run`)
    /// only subject sites. A hoist site is no other site and holds none.
    #[allow(clippy::too_many_arguments)]
    fn mark_sites(
        &mut self,
        cs: &CompiledSpec,
        plan: &mut BatchPlan,
        body: &Body<'_>,
        node: NodeRef,
        outer: &mut Vec<u32>,
        mut in_run: bool,
    ) {
        let nodes = &cs.nodes;
        if plan.cell[node as usize] != NO_CELL {
            return;
        }
        let reads = body.reads(nodes, node, outer);
        if reads & READS_OTHER == 0 && keeps(cs, node) {
            if reads == READS_SUBJECT {
                let key = self.keys.key(nodes, body, node);
                plan.cell[node as usize] = self.cell(plan, key, SUBJECT_CELL);
                return;
            }
            if reads & READS_CONTEXT != 0 && !in_run {
                let key = self.keys.key(nodes, body, node);
                let shared = self.counts.get(&key).is_some_and(|&n| n >= 2);
                if shared || self.grouped.contains(&node) {
                    plan.cell[node as usize] = self.cell(plan, key, RUN_CELL);
                    in_run = true;
                }
            }
        }
        let ir = &nodes[node as usize];
        let binder = match ir {
            Ir::SetComp { slot, .. } | Ir::Aggregate { slot, .. } | Ir::Quantifier { slot, .. } => {
                Some(*slot)
            }
            _ => None,
        };
        let mut in_scope = None;
        ir.for_each_child(&mut |child| {
            outer.extend(in_scope);
            self.mark_sites(cs, plan, body, child, outer, in_run);
            if in_scope.is_some() {
                outer.pop();
            }
            in_scope = binder;
        });
    }
}

/// Add to `mask` the slots below `binder` that the subtree loads (bit 63
/// standing for every slot from 63 up): those of the scopes around a
/// construct whose binder is `binder`.
fn outer_reads(nodes: &[Ir], node: NodeRef, binder: u32, mask: &mut u64) {
    match &nodes[node as usize] {
        Ir::Load(s) if *s < binder => *mask |= 1 << (*s).min(63),
        ir => ir.for_each_child(&mut |child| outer_reads(nodes, child, binder, mask)),
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

/// No frame, no construct, no error block.
const NONE: u32 = u32::MAX;

/// Lanes a fresh [`Scratch`] makes room for at once on its stacks of
/// numbers, objects and lane indices (values and error slots get a
/// batch's width, [`RESERVED_LANES`]): a batch of the analyzers' width
/// (256 subjects), its set constructs' elements included, fits, so a
/// batch allocates the same whatever its width
/// (`crates/cosy/tests/alloc_budget.rs`).
const RESERVED_VALUES: usize = 4096;

/// Lanes a fresh [`Scratch`] makes room for in its per-lane outcomes: the
/// analyzers' batch width.
const RESERVED_LANES: usize = 256;

/// Registers, frames and loop-invariant cells a fresh [`Scratch`] makes
/// room for: a batch whose kept cells miss runs more helper calls than
/// one whose cells answer, and allocates no more for it.
const RESERVED_FRAMES: usize = 64;

/// Rows of [`Kept`] a block of cells holds: a batch of the analyzers'
/// width.
const BLOCK_ROWS: usize = 256;

/// Elements of each lane a quantifier tests in its first round
/// ([`Ctx::decide`]).
const QUANTIFIER_ROUND: u32 = 8;

/// What the lanes of a [`Col`] hold, and so which stack of [`Scratch`]
/// they are on. A column takes the kind of the first lane written to it
/// and keeps it while every lane is of that kind; a lane of another kind
/// turns it into a column of values.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
enum Kind {
    /// No lane stored yet.
    #[default]
    Empty,
    /// Floats, as their bits on [`Scratch::nums`].
    F64,
    /// Integers, on [`Scratch::nums`].
    I64,
    /// Truth values, 0 or 1 on [`Scratch::nums`].
    Bool,
    /// Object references, on [`Scratch::objs`].
    Obj,
    /// [`Value`]s, on [`Scratch::vals`]: lanes of mixed kinds, strings,
    /// sets, enums, dates and `Null`.
    Val,
}

impl Kind {
    /// Is a column of this kind on [`Scratch::nums`]?
    fn numeric(self) -> bool {
        matches!(self, Kind::F64 | Kind::I64 | Kind::Bool)
    }
}

/// The lane of numeric `kind` whose bits are `bits`, as a value.
fn num_value(kind: Kind, bits: u64) -> Value {
    match kind {
        Kind::F64 => Value::Float(f64::from_bits(bits)),
        Kind::I64 => Value::Int(bits as i64),
        _ => Value::Bool(bits != 0),
    }
}

/// A column of lane values: `len` lanes of `kind` from `base` on their
/// stack of [`Scratch`] — lane `l` at `base + l` — or, with `len` 1, one
/// value every lane reads: a literal, a constant, the batch's context, a
/// hoisted subtree, kept once and not copied per lane. A lane that failed
/// has its error in the column's error block on [`Scratch::errs`] (at
/// `errs` and the same offset) and counts in `failed`; a column no lane of
/// which failed has no block, and settling or tagging it costs nothing.
/// Lanes are stored on the first write ([`Scratch::put_val`]): a node's
/// result column lands above its operands' and is moved down over them
/// when the node returns ([`Scratch::keep`]).
#[derive(Clone, Copy)]
struct Col {
    base: u32,
    len: u32,
    errs: u32,
    failed: u32,
    kind: Kind,
}

impl Default for Col {
    fn default() -> Self {
        Col::new(0)
    }
}

impl Col {
    /// A column of `len` lanes, none written.
    const fn new(len: u32) -> Col {
        Col {
            base: 0,
            len,
            errs: NONE,
            failed: 0,
            kind: Kind::Empty,
        }
    }

    /// Lane `lane`'s offset from the column's base, and its error block's.
    #[inline]
    fn off(self, lane: u32) -> u32 {
        lane * u32::from(self.len != 1)
    }

    /// Where lane `lane` is on the column's stack.
    #[inline]
    fn at(self, lane: u32) -> usize {
        (self.base + self.off(lane)) as usize
    }
}

/// The heights of the stacks of lane values ([`Scratch::top`]).
#[derive(Clone, Copy)]
struct Top {
    nums: u32,
    objs: u32,
    vals: u32,
    errs: u32,
}

/// Cut `stack` back to `top`, all but the `n` items at `base` that `kept`
/// names, which move down to `top` if they are above it. Where they are
/// now, if they moved.
fn sink<T>(stack: &mut Vec<T>, top: u32, kept: Option<(u32, u32)>) -> Option<u32> {
    match kept {
        Some((base, n)) if base >= top => {
            stack.truncate((base + n) as usize);
            if base > top {
                stack.drain(top as usize..base as usize);
            }
            Some(top)
        }
        _ => {
            stack.truncate(top as usize);
            None
        }
    }
}

/// The active lanes of an execution: `len` lane indices, ascending, at
/// `start` on [`Scratch::lanes`].
#[derive(Clone, Copy)]
struct Sel {
    start: u32,
    len: u32,
}

impl Sel {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Where a body or a set construct runs: its registers (one [`Col`] per
/// slot, from `regs` on [`Scratch::regs`]) over `width` lanes, and its
/// record `id` on [`Scratch::frames`]. Four scalars: travels in registers.
#[derive(Clone, Copy)]
struct Frame {
    id: u32,
    regs: u32,
    width: u32,
    slots: u32,
}

/// What a frame is, for a [`Ir::Cached`] cell looking for the construct
/// entry it belongs to.
struct FrameRec {
    /// The set construct whose elements are this frame's lanes; [`NONE`]
    /// for a body (a property, helper call or constant).
    by: NodeRef,
    /// The frame the construct ran in.
    parent: u32,
    /// Where on [`Scratch::lanes`] lane `e`'s owner — its lane in the
    /// parent frame — is, at `owners + e`.
    owners: u32,
    /// The construct's cache cells on [`Scratch::caches`]: cell `k` of its
    /// reset range for parent lane `l` at `caches + (k - first) *
    /// parent_width + l`.
    caches: u32,
    parent_width: u32,
}

/// What a set construct's source lent ([`Ctx::visit`]): element `e` is
/// lane `e` of `elems` and belongs to lane `owners + e` on
/// [`Scratch::lanes`]; a lane's elements are contiguous, in set order.
/// Lane `l` of the frame the source ran in has a flag at `selected + l` on
/// [`Scratch::lanes`], 1 if the data source applied the construct's second
/// key to its elements; `selected` is [`NONE`] if no source was asked one.
#[derive(Clone, Copy)]
struct Visit {
    elems: Col,
    owners: u32,
    selected: u32,
}

impl Visit {
    /// Did the data source select `lane`'s elements by the second key?
    fn selected(self, lane: u32, st: &Scratch) -> bool {
        self.selected != NONE && st.lanes[(self.selected + lane) as usize] != 0
    }

    /// The lane element `e` belongs to.
    fn owner(self, e: u32, st: &Scratch) -> u32 {
        st.lanes[(self.owners + e) as usize]
    }
}

/// The mutable state of evaluation, reused from batch to batch — handed
/// from one [`CompiledEvaluator::batch`] to the next: no node, helper call
/// or set construct allocates its own. Everything is a stack: a node's
/// temporaries are popped when it returns, a construct's frame when it
/// ends. Lane values are unboxed: a column of floats, integers
/// or truth values is a run of words on `nums`, one of objects a run of
/// references on `objs`, and only a column whose lanes mix kinds, or hold
/// strings, sets, enums, dates or `Null`, is a run of [`Value`]s on
/// `vals`; a lane's error is in a block on `errs` beside its column. Create
/// one with `Scratch::default()`; every batch reuses it.
#[derive(Default)]
pub struct Scratch {
    /// Lanes of float, integer and truth-value columns, as 64 bits each.
    nums: Vec<u64>,
    /// Lanes of object columns.
    objs: Vec<ObjRef>,
    /// Lanes of value columns.
    vals: Vec<Value>,
    /// The error blocks of columns with a failed lane: a slot per lane.
    errs: Vec<Option<EvalError>>,
    /// Lane indices: selections, the owners of elements and their flags.
    lanes: Vec<u32>,
    /// Registers of every frame, one column per slot.
    regs: Vec<Col>,
    frames: Vec<FrameRec>,
    /// Loop-invariant cells ([`Ir::Cached`]) of the running constructs.
    caches: Vec<Option<EvalResult<Value>>>,
    /// The batch's hoisted subtrees ([`BatchPlan`]): value or error, once
    /// the first lane has reached the site.
    hoisted: Vec<Option<EvalResult<Value>>>,
    /// The batch's context: the arguments after the subject.
    context: Vec<Value>,
    /// Whether the bound property takes a subject.
    subject: bool,
    /// Per lane: the outcome of the last [`Batch::eval`].
    outcomes: Vec<EvalResult<Outcome>>,
    /// Per lane: the best arm value so far.
    best: Vec<Option<f64>>,
    /// Per lane, `words` words: which conditions fired.
    fired: Vec<u64>,
    words: usize,
    /// How many helper calls deep the running body is.
    depth: u32,
    /// Lazy-cell lookups, added to the process-wide counters on drop.
    cache_hits: u64,
    cache_misses: u64,
    /// IR node executions: one per node per selection it runs over.
    executions: u64,
}

impl Scratch {
    /// Empty every stack.
    fn clear(&mut self) {
        self.nums.clear();
        self.objs.clear();
        self.vals.clear();
        self.errs.clear();
        self.lanes.clear();
        self.regs.clear();
        self.frames.clear();
        self.caches.clear();
        self.depth = 0;
    }

    /// The heights of the lane stacks, to cut back to.
    #[inline]
    fn top(&self) -> Top {
        Top {
            nums: self.nums.len() as u32,
            objs: self.objs.len() as u32,
            vals: self.vals.len() as u32,
            errs: self.errs.len() as u32,
        }
    }

    /// Pop every lane pushed since `top`.
    fn cut(&mut self, top: Top) {
        self.keep(top, Col::new(0));
    }

    /// Pop every lane pushed since `top` but `col`'s, which move down to
    /// `top` if they are above it: the column a node returns, over the
    /// temporaries it made on the way.
    #[inline]
    fn keep(&mut self, top: Top, mut col: Col) -> Col {
        let lanes = (col.base, col.len);
        let on = |yes: bool| yes.then_some(lanes);
        let (nums, objs, vals) = (
            on(col.kind.numeric()),
            on(col.kind == Kind::Obj),
            on(col.kind == Kind::Val),
        );
        let errs = (col.errs != NONE).then_some((col.errs, col.len));
        for base in [
            sink(&mut self.nums, top.nums, nums),
            sink(&mut self.objs, top.objs, objs),
            sink(&mut self.vals, top.vals, vals),
        ]
        .into_iter()
        .flatten()
        {
            col.base = base;
        }
        if let Some(errs) = sink(&mut self.errs, top.errs, errs) {
            col.errs = errs;
        }
        col
    }

    /// Was `col` made since `top`: does it have lanes or errors above it?
    fn made_since(&self, top: Top, col: Col) -> bool {
        match col.kind {
            Kind::Empty => col.errs != NONE && col.errs >= top.errs,
            k if k.numeric() => col.base >= top.nums,
            Kind::Obj => col.base >= top.objs,
            _ => col.base >= top.vals,
        }
    }

    /// A column every lane reads `v` from.
    fn push_one(&mut self, v: EvalResult<Value>) -> Col {
        let mut col = Col::new(1);
        self.put(&mut col, 0, v);
        col
    }

    /// The error lane `lane` of `col` failed with, if it did.
    #[inline]
    fn err(&self, col: Col, lane: u32) -> Option<&EvalError> {
        if col.failed == 0 {
            return None;
        }
        self.errs[(col.errs + col.off(lane)) as usize].as_ref()
    }

    /// The value stored at offset `i` of `col`.
    #[inline]
    fn stored(&self, col: Col, i: u32) -> Value {
        let at = (col.base + i) as usize;
        match col.kind {
            Kind::Empty => Value::Null,
            Kind::Obj => Value::Obj(self.objs[at].clone()),
            Kind::Val => self.vals[at].clone(),
            kind => num_value(kind, self.nums[at]),
        }
    }

    /// Lane `lane`'s value in `col` — `Null` if it failed or was never
    /// written.
    #[inline]
    fn value(&self, col: Col, lane: u32) -> Value {
        self.stored(col, col.off(lane))
    }

    /// Lane `lane` of `col`: its value or its error.
    fn get(&self, col: Col, lane: u32) -> EvalResult<Value> {
        match self.err(col, lane) {
            Some(e) => Err(e.clone()),
            None => Ok(self.value(col, lane)),
        }
    }

    /// Lane `lane`'s object in `col`, if it holds one.
    #[inline]
    fn obj_of(&self, col: Col, lane: u32) -> Option<&ObjRef> {
        if self.err(col, lane).is_some() {
            return None;
        }
        match col.kind {
            Kind::Obj => Some(&self.objs[col.at(lane)]),
            Kind::Val => match &self.vals[col.at(lane)] {
                Value::Obj(o) => Some(o),
                _ => None,
            },
            _ => None,
        }
    }

    /// Lane `lane`'s number in `col`, which has not failed there, if it
    /// holds one: read straight from an unboxed lane.
    #[inline]
    fn num_of(&self, col: Col, lane: u32) -> Option<ops::Number> {
        let at = col.at(lane);
        match col.kind {
            Kind::F64 => Some(ops::Number::Float(f64::from_bits(self.nums[at]))),
            Kind::I64 => Some(ops::Number::Int(self.nums[at] as i64)),
            Kind::Val => ops::Number::of(&self.vals[at]),
            _ => None,
        }
    }

    /// Lane `lane`'s truth value in `col`, if it holds one.
    #[inline]
    fn bool_of(&self, col: Col, lane: u32) -> Option<bool> {
        if self.err(col, lane).is_some() {
            return None;
        }
        match col.kind {
            Kind::Bool => Some(self.nums[col.at(lane)] != 0),
            Kind::Val => self.vals[col.at(lane)].as_bool(),
            _ => None,
        }
    }

    /// Lane `lane`'s number in `col`, widened to a float, if it holds one.
    #[inline]
    fn f64_of(&self, col: Col, lane: u32) -> Option<f64> {
        if self.err(col, lane).is_some() {
            return None;
        }
        let bits = || self.nums[col.at(lane)];
        match col.kind {
            Kind::F64 => Some(f64::from_bits(bits())),
            Kind::I64 => Some(bits() as i64 as f64),
            Kind::Val => self.vals[col.at(lane)].as_f64(),
            _ => None,
        }
    }

    /// Fail lane `lane` of `col` with `e`.
    fn fail(&mut self, col: &mut Col, lane: u32, e: EvalError) {
        if col.errs == NONE {
            col.errs = self.errs.len() as u32;
            self.errs.resize(self.errs.len() + col.len as usize, None);
        }
        let slot = &mut self.errs[(col.errs + col.off(lane)) as usize];
        col.failed += u32::from(slot.is_none());
        *slot = Some(e);
    }

    /// Lane `lane` of `col` holds a value: drop an error it held.
    #[inline]
    fn clear_err(&mut self, col: &mut Col, lane: u32) {
        if col.failed > 0 {
            let slot = &mut self.errs[(col.errs + col.off(lane)) as usize];
            col.failed -= u32::from(slot.take().is_some());
        }
    }

    /// Write `r` into lane `lane` of `col`.
    #[inline]
    fn put(&mut self, col: &mut Col, lane: u32, r: EvalResult<Value>) {
        match r {
            Ok(v) => self.put_val(col, lane, v),
            Err(e) => self.fail(col, lane, e),
        }
    }

    /// Write `v` into lane `lane` of `col`, unboxed if the column's lanes
    /// are all of its kind.
    #[inline]
    fn put_val(&mut self, col: &mut Col, lane: u32, v: Value) {
        match v {
            Value::Float(x) => self.put_num(col, lane, Kind::F64, x.to_bits()),
            Value::Int(x) => self.put_num(col, lane, Kind::I64, x as u64),
            Value::Bool(b) => self.put_num(col, lane, Kind::Bool, u64::from(b)),
            Value::Obj(o) => self.put_obj(col, lane, o),
            v => self.put_any(col, lane, v),
        }
    }

    /// Write what a scalar kernel yielded into lane `lane` of `col`.
    #[inline]
    fn put_scalar(&mut self, col: &mut Col, lane: u32, s: ops::Scalar) {
        match s {
            ops::Scalar::Float(x) => self.put_num(col, lane, Kind::F64, x.to_bits()),
            ops::Scalar::Int(x) => self.put_num(col, lane, Kind::I64, x as u64),
            ops::Scalar::Bool(b) => self.put_num(col, lane, Kind::Bool, u64::from(b)),
        }
    }

    /// Write `bits`, a lane of numeric `kind`, into lane `lane` of `col`.
    #[inline]
    fn put_num(&mut self, col: &mut Col, lane: u32, kind: Kind, bits: u64) {
        if col.kind != kind {
            if col.kind != Kind::Empty {
                return self.put_any(col, lane, num_value(kind, bits));
            }
            col.kind = kind;
            col.base = self.nums.len() as u32;
            self.nums.resize(self.nums.len() + col.len as usize, 0);
        }
        self.nums[col.at(lane)] = bits;
        self.clear_err(col, lane);
    }

    /// Write object `o` into lane `lane` of `col`.
    #[inline]
    fn put_obj(&mut self, col: &mut Col, lane: u32, o: ObjRef) {
        if col.kind != Kind::Obj {
            if col.kind != Kind::Empty {
                return self.put_any(col, lane, Value::Obj(o));
            }
            col.kind = Kind::Obj;
            col.base = self.objs.len() as u32;
            self.objs
                .resize(self.objs.len() + col.len as usize, o.clone());
        }
        self.objs[col.at(lane)] = o;
        self.clear_err(col, lane);
    }

    /// Write `v` into lane `lane` of `col` as a value, first turning `col`
    /// into a column of values — a copy on top of their stack — if it is
    /// not one.
    fn put_any(&mut self, col: &mut Col, lane: u32, v: Value) {
        if col.kind != Kind::Val {
            self.promote(col);
        }
        self.vals[col.at(lane)] = v;
        self.clear_err(col, lane);
    }

    /// Turn `col` into a column of values: a copy of its lanes on top of
    /// their stack.
    fn promote(&mut self, col: &mut Col) {
        let base = self.vals.len() as u32;
        for i in 0..col.len {
            let x = self.stored(*col, i);
            self.vals.push(x);
        }
        col.kind = Kind::Val;
        col.base = base;
    }

    /// Copy lane `lane` of `from` into lane `to_lane` of `to`, an error
    /// tagged with `span` if it has none.
    fn copy_lane(&mut self, from: Col, lane: u32, to: &mut Col, to_lane: u32, span: Span) {
        if let Some(e) = self.err(from, lane) {
            let e = e.clone().or_span(span);
            return self.fail(to, to_lane, e);
        }
        match from.kind {
            Kind::Empty => {}
            Kind::Obj => {
                let o = self.objs[from.at(lane)].clone();
                self.put_obj(to, to_lane, o);
            }
            Kind::Val => {
                let v = self.vals[from.at(lane)].clone();
                self.put_val(to, to_lane, v);
            }
            kind => {
                let bits = self.nums[from.at(lane)];
                self.put_num(to, to_lane, kind, bits);
            }
        }
    }

    /// Append a lane holding `v` to `col`, a column being built on top of
    /// its stack: the subjects of a batch, the elements a source lends.
    #[inline]
    fn push_lane(&mut self, col: &mut Col, v: Value) {
        match v {
            Value::Obj(o) => self.push_obj(col, o),
            v => self.push_value(col, v),
        }
    }

    /// Append a lane holding object `o` to `col` ([`push_lane`](Self::push_lane)).
    #[inline]
    fn push_obj(&mut self, col: &mut Col, o: ObjRef) {
        match col.kind {
            Kind::Obj => {}
            Kind::Empty => {
                col.kind = Kind::Obj;
                col.base = self.objs.len() as u32;
            }
            _ => return self.push_value(col, Value::Obj(o)),
        }
        self.objs.push(o);
        col.len += 1;
    }

    /// Append a lane holding `v` to `col` as a value, first turning the
    /// lanes so far into values if they are objects.
    #[inline(never)]
    fn push_value(&mut self, col: &mut Col, v: Value) {
        if col.kind != Kind::Val {
            let objects = (col.kind == Kind::Obj).then_some(col.base as usize);
            self.promote(col);
            if let Some(base) = objects {
                self.objs.truncate(base);
            }
        }
        self.vals.push(v);
        col.len += 1;
    }

    /// A column of `n` lanes, lane `e` holding what lane `owners + e` on
    /// [`lanes`](Self::lanes) holds in `col`: an outer slot as the
    /// elements of a construct see it.
    fn gather(&mut self, col: Col, owners: u32, n: u32) -> Col {
        let mut out = Col::new(n);
        out.kind = col.kind;
        let owner = |st: &Self, e: u32| col.at(st.lanes[(owners + e) as usize]);
        match col.kind {
            Kind::Empty => {}
            Kind::Obj => {
                out.base = self.objs.len() as u32;
                for e in 0..n {
                    let o = self.objs[owner(self, e)].clone();
                    self.objs.push(o);
                }
            }
            Kind::Val => {
                out.base = self.vals.len() as u32;
                for e in 0..n {
                    let v = self.vals[owner(self, e)].clone();
                    self.vals.push(v);
                }
            }
            _ => {
                out.base = self.nums.len() as u32;
                for e in 0..n {
                    let bits = self.nums[owner(self, e)];
                    self.nums.push(bits);
                }
            }
        }
        if col.failed > 0 {
            for e in 0..n {
                let lane = self.lanes[(owners + e) as usize];
                if let Some(x) = self.err(col, lane) {
                    let x = x.clone();
                    self.fail(&mut out, e, x);
                }
            }
        }
        out
    }

    /// The selection of the lanes pushed on [`lanes`](Self::lanes) since
    /// `start`.
    fn since(&self, start: usize) -> Sel {
        Sel {
            start: start as u32,
            len: (self.lanes.len() - start) as u32,
        }
    }

    /// The lanes of `sel` that `test` passes, as a selection — `sel` itself
    /// if it passes them all. A lane `test` fails with an error is handed,
    /// with the error, to `fail`; one it fails with `None` is left out.
    fn filter(
        &mut self,
        sel: Sel,
        test: impl Fn(&Self, u32) -> Result<(), Option<EvalError>>,
        mut fail: impl FnMut(&mut Self, u32, EvalError),
    ) -> Sel {
        if sel.range().all(|k| test(self, self.lanes[k]).is_ok()) {
            return sel;
        }
        let start = self.lanes.len();
        for k in sel.range() {
            let lane = self.lanes[k];
            match test(self, lane) {
                Ok(()) => self.lanes.push(lane),
                Err(Some(e)) => fail(self, lane, e),
                Err(None) => {}
            }
        }
        self.since(start)
    }

    /// The lanes of `sel` that `keep` accepts.
    fn select(&mut self, sel: Sel, keep: impl Fn(&Self, u32) -> bool) -> Sel {
        let test = |st: &Self, lane| if keep(st, lane) { Ok(()) } else { Err(None) };
        self.filter(sel, test, |_, _, _| {})
    }

    /// Settle the lanes of `sel` that failed in `col` — their error, tagged
    /// with `span`, is their lane's in `out` — and select the others: `sel`
    /// itself, at once, if no lane of `col` failed.
    fn settle(&mut self, col: Col, sel: Sel, out: &mut Col, span: Span) -> Sel {
        if col.failed == 0 {
            return sel;
        }
        let failed = |st: &Self, lane| match st.err(col, lane) {
            Some(e) => Err(Some(e.clone().or_span(span))),
            None => Ok(()),
        };
        self.filter(sel, failed, |st, lane, e| st.fail(out, lane, e))
    }

    /// Fail the lanes of `alive` whose value in `col` is an error, or that
    /// `check` rejects, with that error as their outcome — untagged: a
    /// property-level failure has no node of its own — and select the
    /// others.
    fn settle_lanes(
        &mut self,
        alive: Sel,
        col: Col,
        check: impl Fn(&Value) -> EvalResult<()>,
    ) -> Sel {
        self.filter(
            alive,
            |st, lane| match st.err(col, lane) {
                Some(e) => Err(Some(e.clone())),
                None => check(&st.value(col, lane)).map_err(Some),
            },
            |st, lane, e| st.outcomes[lane as usize] = Err(e),
        )
    }

    /// Tag the errors `col` holds for `sel` with `span`, if they have none.
    fn tag(&mut self, col: Col, sel: Sel, span: Span) {
        if col.failed == 0 || span == Span::default() {
            return;
        }
        for k in sel.range() {
            let at = (col.errs + col.off(self.lanes[k])) as usize;
            if let Some(e) = &mut self.errs[at] {
                if e.span.is_none() {
                    e.span = Some(span);
                }
            }
        }
    }

    /// The tops of the frame stacks, for [`close`](Self::close).
    fn marks(&self) -> [usize; 3] {
        [self.frames.len(), self.regs.len(), self.caches.len()]
    }

    /// Close the frames opened since `marks` (their columns stay).
    fn close(&mut self, [frames, regs, caches]: [usize; 3]) {
        self.frames.truncate(frames);
        self.regs.truncate(regs);
        self.caches.truncate(caches);
    }

    /// The batch lane lane `lane` of frame `fr` is of: the lane itself in
    /// the body's frame, the lane its owners lead up to in a set
    /// construct's.
    #[inline]
    fn batch_lane(&self, fr: Frame, lane: u32) -> u32 {
        let (mut frame, mut lane) = (fr.id, lane);
        while frame != 0 {
            let rec = &self.frames[frame as usize];
            lane = self.lanes[(rec.owners + lane) as usize];
            frame = rec.parent;
        }
        lane
    }

    /// Did condition `i` fire in `lane` of the last batch?
    fn fired(&self, lane: usize, i: usize) -> bool {
        self.fired[lane * self.words + i / 64] >> (i % 64) & 1 == 1
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        CACHE_HITS.add(self.cache_hits);
        CACHE_MISSES.add(self.cache_misses);
        NODE_EXECUTIONS.add(self.executions);
    }
}

/// Executes a [`CompiledSpec`] against an [`ObjectModel`]. Global constants
/// are evaluated eagerly at construction (in declaration order, mirroring
/// [`crate::Interpreter::new`]).
///
/// One evaluator serves one thread: its subject and run cells are filled
/// in place, by whichever [`Batch`] first reaches them.
pub struct CompiledEvaluator<M: ObjectModel> {
    spec: Arc<CompiledSpec>,
    data: M,
    consts: Vec<Value>,
    /// The plan's subject and run cells, per subject ([`Kept`]): valid
    /// while `data` answers the same — for this evaluator's life, when
    /// `data` borrows its store — and shared by every batch and property;
    /// the run cells by the batches of one context.
    kept: RefCell<Kept>,
}

/// What an evaluator keeps per subject: a row for each subject that has
/// reached a subject or run site — its subject cells, then its run cells.
/// A cell holds a lane's value as a column does ([`KeptCell`]): a float,
/// integer or truth value as its bits and an object as its class and
/// index, unboxed, and only another value on `vals` — so answering a lane
/// from it copies one word into the lane, and filling it from a lane one
/// word out. Rows are made as subjects arrive, so they are as many as the
/// subjects evaluated (a version's contexts), never as many as the data
/// source holds. A run cell answers for the context of the epoch it was
/// filled in only: a batch of another context starts a new epoch
/// ([`Kept::enter`]), which empties every run cell at once.
struct Kept {
    rows: perfdata::IdMap<ObjRef, u32>,
    /// The subjects and rows of batches ([`SubjectRows`]), one list per
    /// subject a batch started with: a batch over the same subjects, lane
    /// for lane, as the last one that started with its first — the next
    /// property's batch over a version's contexts, the next run's — takes
    /// its rows from there without looking a subject up. Two batches over
    /// different subjects that start with the same one take turns in a
    /// list, each looking its subjects up. List 0 is for the batches whose
    /// subjects are not all objects; the lists are as many as the subjects
    /// batches start with, each as long as the last such batch.
    lists: Vec<SubjectRows>,
    /// Per row: the list of the batches that start with its subject,
    /// [`NONE`] if no batch has.
    starts: Vec<u32>,
    /// The list of the running batch's rows, and the batch it was bound
    /// for: a site of a later batch binds that batch's.
    list: usize,
    bound: u32,
    /// Counts the batches run ([`Kept::enter`]).
    batch: u32,
    /// The cells of rows in blocks of [`BLOCK_ROWS`]: cell `c` of row `r`
    /// at [`Kept::at`] — a site reads and fills the cells of a batch's
    /// subjects, rows made in turn, side by side. A block is added as rows
    /// are made; no cell moves.
    cells: Vec<KeptCell>,
    n_rows: usize,
    subject_cells: usize,
    width: usize,
    /// The values cells hold that are neither numbers nor objects, and
    /// the places on it that no cell holds.
    vals: Vec<Value>,
    free: Vec<u32>,
    /// The classes of the objects cells hold, each at the place a cell's
    /// bits name.
    classes: Vec<Symbol>,
    /// The context of the current epoch.
    context: Vec<Value>,
    epoch: u32,
    /// The members' sums of a [`SumGroup`] being filled, each `false`
    /// once a value it selected was not a number.
    sums: Vec<(ops::NumSum, bool)>,
}

/// A cell of [`Kept`]: the `bits` of a value of `kind` — a number's, an
/// object's class (its place on [`Kept::classes`]) above its index, or the
/// place of a value on [`Kept::vals`] — and the epoch it answers in: the
/// one a run cell was filled in, [`SUBJECT_EPOCH`] for a subject cell,
/// [`NONE`] while the cell is empty.
#[derive(Clone, Copy)]
struct KeptCell {
    bits: u64,
    epoch: u32,
    kind: Kind,
}

impl Default for KeptCell {
    fn default() -> Self {
        KeptCell {
            bits: 0,
            epoch: NONE,
            kind: Kind::Empty,
        }
    }
}

/// The epoch a subject cell answers in: every batch's.
const SUBJECT_EPOCH: u32 = 0;

/// The rows of a batch's subjects, lane by lane — [`NONE`] for a subject
/// that is not an object. `subjects` is empty for a batch whose subjects
/// are not all objects.
#[derive(Default)]
struct SubjectRows {
    subjects: Vec<ObjRef>,
    rows: Vec<u32>,
}

impl Kept {
    fn new(plan: &BatchPlan) -> Self {
        let subject_cells = plan.subject_cells as usize;
        Kept {
            rows: HashMap::default(),
            lists: Vec::new(),
            starts: Vec::new(),
            list: 0,
            bound: NONE,
            batch: 0,
            cells: Vec::new(),
            n_rows: 0,
            subject_cells,
            width: subject_cells + plan.run_cells(),
            vals: Vec::new(),
            free: Vec::new(),
            classes: Vec::new(),
            context: Vec::new(),
            epoch: SUBJECT_EPOCH + 1,
            sums: Vec::new(),
        }
    }

    /// Bind the rows of the running batch's `subjects`: those of the list
    /// of its first subject if it holds the same subjects, or rows looked
    /// up subject by subject.
    fn bind(&mut self, subjects: Col, st: &Scratch) {
        self.bound = self.batch;
        let objects = match subjects.kind {
            Kind::Obj => &st.objs[subjects.base as usize..][..subjects.len as usize],
            _ => &[],
        };
        if self.lists.is_empty() {
            self.lists.push(SubjectRows::default());
        }
        self.list = match objects.first() {
            Some(first) => {
                let row = self.row(first) as usize;
                if self.starts[row] == NONE {
                    self.starts[row] = self.lists.len() as u32;
                    self.lists.push(SubjectRows::default());
                }
                self.starts[row] as usize
            }
            None => 0,
        };
        if self.list != 0 && self.lists[self.list].subjects == objects {
            return;
        }
        let mut list = std::mem::take(&mut self.lists[self.list]);
        list.subjects.clear();
        list.subjects.extend_from_slice(objects);
        list.rows.clear();
        for lane in 0..subjects.len {
            let row = st.obj_of(subjects, lane).map_or(NONE, |s| self.row(s));
            list.rows.push(row);
        }
        self.lists[self.list] = list;
    }

    /// Bind the running batch's rows, if no site has yet: its subjects are
    /// the column in the body's slot 0.
    #[inline]
    fn bind_batch(&mut self, st: &Scratch) {
        if self.bound != self.batch {
            self.bind(st.regs[0], st);
        }
    }

    /// Start a batch and bind the run cells to its `context`: a new epoch
    /// if it is not the current one's.
    fn enter(&mut self, context: &[Value]) {
        self.batch = self.batch.wrapping_add(1);
        if self.context != context {
            self.epoch += 1;
            self.context.clear();
            self.context.extend_from_slice(context);
        }
    }

    /// The row of the subject of lane `lane` of frame `fr`, `None` for a
    /// subject that is not an object. Sites are in property bodies: an
    /// element of a set construct is of the batch lane its owners lead up
    /// to ([`Scratch::batch_lane`]). The rows of a batch's lanes are bound
    /// once, by its first site ([`Kept::bind`]).
    #[inline]
    fn row_of(&mut self, fr: Frame, lane: u32, st: &Scratch) -> Option<u32> {
        self.bind_batch(st);
        let row = self.lists[self.list].rows[st.batch_lane(fr, lane) as usize];
        (row != NONE).then_some(row)
    }

    /// The row of `subject`, made on first ask.
    fn row(&mut self, subject: &ObjRef) -> u32 {
        if self.n_rows == 0 {
            // Room for a batch of subjects on first use.
            self.rows.reserve(RESERVED_LANES);
        }
        let next = self.n_rows as u32;
        let row = *self.rows.entry(subject.clone()).or_insert(next);
        if row == next {
            if self.n_rows.is_multiple_of(BLOCK_ROWS) {
                let cells = self.cells.len() + self.width * BLOCK_ROWS;
                self.cells.resize(cells, KeptCell::default());
            }
            self.n_rows += 1;
            self.starts.push(NONE);
        }
        row
    }

    /// Where the cells of `cell` ([`BatchPlan::cell`], flag included) are
    /// in a block, for [`Kept::at`], and the epoch they answer in.
    fn column(&self, cell: u32) -> (usize, u32) {
        let id = (cell & !(SUBJECT_CELL | RUN_CELL)) as usize;
        match cell & RUN_CELL {
            0 => (id * BLOCK_ROWS, SUBJECT_EPOCH),
            _ => ((self.subject_cells + id) * BLOCK_ROWS, self.epoch),
        }
    }

    /// Where the cell of `row` in `column` ([`Kept::column`]) is on `cells`.
    #[inline]
    fn at(&self, column: usize, row: u32) -> usize {
        let row = row as usize;
        row / BLOCK_ROWS * self.width * BLOCK_ROWS + column + row % BLOCK_ROWS
    }

    /// Fill the cell at `at` with `bits` of numeric or object `kind`, to
    /// answer in `epoch`.
    #[inline]
    fn store(&mut self, at: usize, epoch: u32, kind: Kind, bits: u64) {
        let old = self.cells[at];
        if old.kind == Kind::Val {
            self.vals[old.bits as usize] = Value::Null;
            self.free.push(old.bits as u32);
        }
        self.cells[at] = KeptCell { bits, epoch, kind };
    }

    /// Fill the cell at `at` with `v`, to answer in `epoch`.
    fn fill(&mut self, at: usize, epoch: u32, v: &Value) {
        match v {
            Value::Float(x) => self.store(at, epoch, Kind::F64, x.to_bits()),
            Value::Int(x) => self.store(at, epoch, Kind::I64, *x as u64),
            Value::Bool(b) => self.store(at, epoch, Kind::Bool, u64::from(*b)),
            Value::Obj(o) => {
                let bits = self.obj_bits(o);
                self.store(at, epoch, Kind::Obj, bits);
            }
            v => {
                let old = self.cells[at];
                let place = if old.kind == Kind::Val {
                    old.bits as usize
                } else if let Some(free) = self.free.pop() {
                    free as usize
                } else {
                    self.vals.push(Value::Null);
                    self.vals.len() - 1
                };
                self.vals[place] = v.clone();
                self.cells[at] = KeptCell {
                    bits: place as u64,
                    epoch,
                    kind: Kind::Val,
                };
            }
        }
    }

    /// Fill the cell at `at` with lane `lane` of `col`, which holds a
    /// value there, to answer in `epoch`.
    #[inline]
    fn fill_lane(&mut self, at: usize, epoch: u32, col: Col, lane: u32, st: &Scratch) {
        match col.kind {
            Kind::Empty => {}
            Kind::Obj => {
                let bits = self.obj_bits(&st.objs[col.at(lane)]);
                self.store(at, epoch, Kind::Obj, bits);
            }
            Kind::Val => self.fill(at, epoch, &st.vals[col.at(lane)]),
            kind => self.store(at, epoch, kind, st.nums[col.at(lane)]),
        }
    }

    /// The bits of object `o` in a cell.
    fn obj_bits(&mut self, o: &ObjRef) -> u64 {
        let class = match self.classes.iter().position(|c| *c == o.class) {
            Some(class) => class,
            None => {
                self.classes.push(o.class);
                self.classes.len() - 1
            }
        };
        (class as u64) << 32 | u64::from(o.index)
    }

    /// Write what filled cell `c` holds into lane `lane` of `out`.
    #[inline]
    fn answer(&self, c: KeptCell, out: &mut Col, lane: u32, st: &mut Scratch) {
        match c.kind {
            Kind::Obj => {
                let o = ObjRef {
                    class: self.classes[(c.bits >> 32) as usize],
                    index: c.bits as u32,
                };
                st.put_obj(out, lane, o);
            }
            Kind::Val => st.put_val(out, lane, self.vals[c.bits as usize].clone()),
            kind => st.put_num(out, lane, kind, c.bits),
        }
    }
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

/// One property bound to one shared context, evaluated over many subjects
/// at once, one lane each ([`CompiledEvaluator::batch`]).
pub struct Batch<'e, M: ObjectModel> {
    ctx: Ctx<'e, M>,
    prop: &'e PropBody,
    st: &'e mut Scratch,
}

impl<M: ObjectModel> CompiledEvaluator<M> {
    /// Bind a compiled spec to a data source and evaluate its constants.
    pub fn new(spec: Arc<CompiledSpec>, data: M) -> EvalResult<Self> {
        let mut consts: Vec<Value> = Vec::with_capacity(spec.consts.len());
        // Constant bodies have no sites: nothing is kept for them.
        let none = RefCell::new(Kept::new(spec.plan()));
        for c in &spec.consts {
            let ctx = Ctx::new(&spec, &data, &consts, &none);
            let v = ctx.run_body(c.body, c.n_slots, &[], 0, &mut Scratch::default())?;
            consts.push(v);
        }
        Ok(CompiledEvaluator {
            kept: RefCell::new(Kept::new(spec.plan())),
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
        Ctx::new(&self.spec, &self.data, &self.consts, &self.kept)
    }

    /// Bind property `name` for evaluation over many subjects in one
    /// shared `context` — the arguments after the first; [`Batch::eval`]
    /// supplies the first, the subjects. The name is resolved and the arity
    /// checked here, once. `scratch` carries the evaluation state; reuse
    /// one from batch to batch.
    pub fn batch<'e>(
        &'e self,
        name: &str,
        context: &[Value],
        scratch: &'e mut Scratch,
    ) -> EvalResult<Batch<'e, M>> {
        self.bind(name, true, context, scratch)
    }

    /// [`batch`](Self::batch) over the arguments after the first, if
    /// `subject`, or over all of them.
    fn bind<'e>(
        &'e self,
        name: &str,
        subject: bool,
        context: &[Value],
        st: &'e mut Scratch,
    ) -> EvalResult<Batch<'e, M>> {
        let &pid = self.spec.prop_ids.get(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown property `{name}`"))
        })?;
        let prop = &self.spec.properties[pid];
        let n_args = usize::from(subject) + context.len();
        if n_args != prop.n_params {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "property `{name}` expects {} arguments, got {n_args}",
                    prop.n_params
                ),
            ));
        }
        st.context.clear();
        st.context.extend_from_slice(context);
        st.subject = subject;
        st.hoisted.clear();
        st.hoisted
            .resize(self.spec.plan().n_cells[pid] as usize, None);
        st.words = prop.conditions.len().div_ceil(64);
        Ok(Batch {
            ctx: self.ctx(),
            prop,
            st,
        })
    }

    /// Evaluate a property in the context given by `args` (one value per
    /// declared parameter): a batch of one lane, with the conditions named.
    /// Mirrors [`crate::Interpreter::eval_property`].
    pub fn eval_property(&self, name: &str, args: &[Value]) -> EvalResult<PropertyOutcome> {
        let mut scratch = Scratch::default();
        let (first, rest) = match args.split_first() {
            Some((first, rest)) => (Some(first), rest),
            None => (None, args),
        };
        let mut batch = self.bind(name, first.is_some(), rest, &mut scratch)?;
        let Outcome {
            holds,
            confidence,
            severity,
        } = match first {
            Some(first) => batch.eval(std::iter::once(first.clone()))[0].clone()?,
            None => {
                batch.st.clear();
                batch.run(1, None)[0].clone()?
            }
        };
        let fired = batch.prop.conditions.iter().enumerate();
        Ok(PropertyOutcome {
            property: name.to_string(),
            holds,
            fired: fired
                .map(|(i, (id, _))| (id.clone(), batch.fired(0, i)))
                .collect(),
            confidence,
            severity,
        })
    }

    /// Call a compiled helper function by name: its body over one lane.
    pub fn call_function(&self, name: &str, args: &[Value]) -> EvalResult<Value> {
        let &fid = self.spec.fn_ids.get(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown function `{name}`"))
        })?;
        let f = &self.spec.functions[fid];
        let ctx = self.ctx();
        ctx.enter_call(f, args.len())?;
        ctx.run_body(f.body, f.n_slots, args, 1, &mut Scratch::default())
    }
}

impl<M: ObjectModel> Batch<'_, M> {
    /// Evaluate the property with each of `subjects` as its first
    /// argument, one lane each, node by node over all lanes at once.
    /// Returns the outcome of every lane, in the subjects' order: a lane
    /// fails with the first error the property meets on it, as evaluating
    /// that instance alone would.
    pub fn eval(&mut self, subjects: impl IntoIterator<Item = Value>) -> &[EvalResult<Outcome>] {
        let st = &mut *self.st;
        st.clear();
        if st.lanes.capacity() == 0 {
            // Room for a batch on first use.
            st.nums.reserve(RESERVED_VALUES);
            st.objs.reserve(RESERVED_VALUES);
            st.vals.reserve(RESERVED_LANES);
            st.errs.reserve(RESERVED_LANES);
            st.lanes.reserve(RESERVED_VALUES);
            st.outcomes.reserve(RESERVED_LANES);
            st.best.reserve(RESERVED_LANES);
            st.regs.reserve(RESERVED_FRAMES);
            st.frames.reserve(RESERVED_FRAMES);
        }
        let mut col = Col::new(0);
        for s in subjects {
            st.push_lane(&mut col, s);
        }
        self.run(col.len, Some(col))
    }

    /// Did condition `i` (declaration order) fire in `lane` of the last
    /// [`eval`](Self::eval)?
    pub fn fired(&self, lane: usize, i: usize) -> bool {
        self.st.fired(lane, i)
    }

    /// One batch of `width` lanes: the `subjects`, if the property takes
    /// one, go to slot 0; the context follows, a shared column each. Slots
    /// past the parameters are the LETs, a column each.
    fn run(&mut self, width: u32, subjects: Option<Col>) -> &[EvalResult<Outcome>] {
        let (ctx, p, st) = (&self.ctx, self.prop, &mut *self.st);
        st.regs.resize(p.n_slots, Col::default());
        if let Some(col) = subjects {
            st.regs[0] = col;
        }
        for i in 0..st.context.len() {
            let col = st.push_one(Ok(st.context[i].clone()));
            st.regs[usize::from(st.subject) + i] = col;
        }
        let fr = ctx.body_frame(width, p.n_slots, st);
        ctx.kept.borrow_mut().enter(&st.context);
        st.outcomes.clear();
        st.outcomes.resize(width as usize, Ok(NOT_HELD));
        st.best.clear();
        st.best.resize(width as usize, None);
        st.fired.clear();
        st.fired.resize(width as usize * st.words, 0);
        st.lanes.extend(0..width);
        let mut alive = Sel {
            start: 0,
            len: width,
        };

        for &(slot, value) in &p.lets {
            let col = ctx.eval(value, fr, alive, st);
            if col.failed > 0 {
                alive = st.settle_lanes(alive, col, |_| Ok(()));
            }
            st.regs[slot as usize] = col;
        }

        for (i, (_, pred)) in p.conditions.iter().enumerate() {
            let top = st.top();
            let col = ctx.eval(*pred, fr, alive, st);
            // Fire the lanes that hold in one pass over the truth values;
            // settle the others only if one of them failed.
            let (word, bit) = (i / 64, 1 << (i % 64));
            let mut failed = false;
            if col.kind == Kind::Bool && col.failed == 0 {
                for k in alive.range() {
                    let lane = st.lanes[k];
                    if st.nums[col.at(lane)] != 0 {
                        st.fired[lane as usize * st.words + word] |= bit;
                    }
                }
            } else {
                for k in alive.range() {
                    let lane = st.lanes[k];
                    match st.bool_of(col, lane) {
                        Some(true) => st.fired[lane as usize * st.words + word] |= bit,
                        Some(false) => {}
                        None => failed = true,
                    }
                }
            }
            if failed {
                alive = st.settle_lanes(alive, col, |v| match v {
                    Value::Bool(_) => Ok(()),
                    v => Err(EvalError::new(
                        EvalErrorKind::Type,
                        format!("condition evaluated to {}, expected bool", v.type_name()),
                    )),
                });
            }
            st.cut(top);
        }
        // The lanes where a condition fired go on.
        let (words, start) = (st.words, st.lanes.len());
        for k in alive.range() {
            let lane = st.lanes[k];
            let bits = &st.fired[lane as usize * words..][..words];
            if bits.iter().any(|&w| w != 0) {
                st.lanes.push(lane);
            }
        }
        alive = st.since(start);

        for (arms, severity) in [(&p.confidence, false), (&p.severity, true)] {
            for k in alive.range() {
                let lane = st.lanes[k] as usize;
                st.best[lane] = None;
            }
            for arm in arms {
                let reached = match arm.guard {
                    None => alive,
                    Some(i) => st.select(alive, |st, lane| st.fired(lane as usize, i)),
                };
                let top = st.top();
                let col = ctx.eval(arm.expr, fr, reached, st);
                // Take the numbers in one pass; settle the other lanes only
                // if there is one.
                let mut failed = false;
                let numbers = matches!(col.kind, Kind::F64 | Kind::I64) && col.failed == 0;
                for k in reached.range() {
                    let lane = st.lanes[k];
                    let x = match numbers {
                        true if col.kind == Kind::F64 => f64::from_bits(st.nums[col.at(lane)]),
                        true => st.nums[col.at(lane)] as i64 as f64,
                        false => match st.f64_of(col, lane) {
                            Some(x) => x,
                            None => {
                                failed = true;
                                continue;
                            }
                        },
                    };
                    let best = &mut st.best[lane as usize];
                    *best = Some(best.map_or(x, |b| b.max(x)));
                }
                if failed {
                    st.settle_lanes(reached, col, |v| match v.as_f64() {
                        Some(_) => Ok(()),
                        None => Err(EvalError::new(
                            EvalErrorKind::Type,
                            format!("arm evaluated to {}, expected number", v.type_name()),
                        )),
                    });
                    alive = st.select(alive, |st, lane| st.outcomes[lane as usize].is_ok());
                }
                st.cut(top);
            }
            for k in alive.range() {
                let lane = st.lanes[k] as usize;
                let best = st.best[lane].unwrap_or(0.0);
                let Ok(o) = &mut st.outcomes[lane] else {
                    unreachable!("alive lanes have not failed")
                };
                o.holds = true;
                if severity {
                    o.severity = best;
                } else {
                    o.confidence = best.clamp(0.0, 1.0);
                }
            }
        }
        &st.outcomes
    }
}

/// The outcome of a lane where no condition fired.
const NOT_HELD: Outcome = Outcome {
    holds: false,
    confidence: 0.0,
    severity: 0.0,
};

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
    /// [`CompiledEvaluator::kept`]; an empty one while constants
    /// initialize (their bodies have no sites).
    kept: &'c RefCell<Kept>,
}

impl<'c, M: ObjectModel> Ctx<'c, M> {
    fn new(
        cs: &'c CompiledSpec,
        data: &'c M,
        consts: &'c [Value],
        kept: &'c RefCell<Kept>,
    ) -> Self {
        let plan = cs.plan();
        Ctx {
            cs,
            plan,
            cell: &plan.cell,
            data,
            consts,
            kept,
        }
    }

    /// Open the frame of a body over `width` lanes, its registers the top
    /// `slots` of the register stack.
    fn body_frame(&self, width: u32, slots: usize, st: &mut Scratch) -> Frame {
        let regs = st.regs.len() - slots;
        st.frames.push(FrameRec {
            by: NONE,
            parent: NONE,
            owners: 0,
            caches: 0,
            parent_width: 0,
        });
        Frame {
            id: st.frames.len() as u32 - 1,
            regs: regs as u32,
            width,
            slots: slots as u32,
        }
    }

    /// Run a body on one lane, its arguments `args`, `depth` helper calls
    /// deep: a helper function called from outside (1, as the interpreter
    /// counts its body), or a constant (0).
    fn run_body(
        &self,
        body: NodeRef,
        slots: usize,
        args: &[Value],
        depth: u32,
        st: &mut Scratch,
    ) -> EvalResult<Value> {
        st.clear();
        st.depth = depth;
        st.regs.resize(slots, Col::default());
        for (i, arg) in args.iter().enumerate() {
            st.regs[i] = st.push_one(Ok(arg.clone()));
        }
        let fr = self.body_frame(1, slots, st);
        st.lanes.push(0);
        let col = self.eval(body, fr, Sel { start: 0, len: 1 }, st);
        st.get(col, 0)
    }

    /// The checks of a helper call with `n_args` arguments, before its body
    /// runs — on every lane alike.
    fn enter_call(&self, f: &FnBody, n_args: usize) -> EvalResult<()> {
        if n_args != f.n_params {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "function `{}` expects {} arguments, got {n_args}",
                    f.name, f.n_params
                ),
            ));
        }
        Ok(())
    }

    /// Execute `node` once over the lanes `sel` of frame `fr`. The result is
    /// a column holding, for every lane of `sel`, the node's value or the
    /// first error evaluating it met on that lane — tagged, as it bubbles
    /// out, with the deepest node span that saw it (mirroring the
    /// interpreter's `eval` wrapper). The lanes the node pushed besides its
    /// result are popped, its result moved down over them; the result stays
    /// until the caller pops it.
    fn eval(&self, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Col {
        if sel.len == 0 {
            // Nothing reaches the node: nothing to read from the result.
            return Col::default();
        }
        st.executions += 1;
        let cell = self.cell[node as usize];
        if cell == NO_CELL {
            self.eval_inner(node, fr, sel, st)
        } else if cell & (SUBJECT_CELL | RUN_CELL) == 0 {
            self.eval_hoisted(cell as usize, node, fr, sel, st)
        } else {
            self.eval_kept(cell, node, fr, sel, st)
        }
    }

    /// A hoist site: evaluated by the first lane of the batch that reaches
    /// it — it reads only the context, so any lane gives the same answer —
    /// then answered from its cell. The cell keeps an error as it keeps a
    /// value: every lane that reaches the site fails the way re-evaluation
    /// would make it fail.
    #[inline(never)]
    fn eval_hoisted(
        &self,
        cell: usize,
        node: NodeRef,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
    ) -> Col {
        let mut hits = sel.len;
        if st.hoisted[cell].is_none() {
            st.cache_misses += 1;
            hits -= 1;
            let (top, lanes) = (st.top(), st.lanes.len());
            st.lanes.push(st.lanes[sel.start as usize]);
            let first = Sel {
                start: lanes as u32,
                len: 1,
            };
            let col = self.eval_inner(node, fr, first, st);
            let kept = st.get(col, st.lanes[lanes]);
            st.cut(top);
            st.lanes.truncate(lanes);
            st.hoisted[cell] = Some(kept);
        }
        st.cache_hits += u64::from(hits);
        let kept = st.hoisted[cell].clone().expect("filled above");
        st.push_one(kept)
    }

    /// A subject or run site: answered from the cell of each lane's subject
    /// ([`Kept`]) where it holds a value — filled by an earlier lane, batch
    /// or property — and evaluated for the other lanes, which then fill it.
    /// A member of a sum group fills its whole group first. Sites are in
    /// property bodies, whose slot 0 holds the subject.
    #[inline(never)]
    fn eval_kept(&self, cell: u32, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Col {
        let top = st.top();
        let mut out = Col::new(fr.width);
        let start = st.lanes.len();
        self.answer_kept(cell, fr, sel, &mut out, st);
        let mut missed = st.since(start);
        let group = match cell & RUN_CELL {
            0 => NO_CELL,
            _ => self.plan.group_of[(cell ^ RUN_CELL) as usize],
        };
        if missed.len > 0 && group != NO_CELL {
            self.fill_group(group, node, fr, missed, st);
            let again = st.lanes.len();
            self.answer_kept(cell, fr, missed, &mut out, st);
            missed = st.since(again);
        }
        if missed.len > 0 {
            let col = self.eval_inner(node, fr, missed, st);
            let mut kept = self.kept.borrow_mut();
            let (column, epoch) = kept.column(cell);
            for k in missed.range() {
                let lane = st.lanes[k];
                if st.err(col, lane).is_none() {
                    if let Some(row) = kept.row_of(fr, lane, st) {
                        let at = kept.at(column, row);
                        kept.fill_lane(at, epoch, col, lane, st);
                    }
                }
            }
            if out.kind == Kind::Empty {
                // No lane was answered: the evaluated column is the answer.
                out = col;
            } else {
                for k in missed.range() {
                    let lane = st.lanes[k];
                    st.copy_lane(col, lane, &mut out, lane, Span::default());
                }
            }
        }
        st.lanes.truncate(start);
        st.keep(top, out)
    }

    /// Answer the lanes of `sel` whose cell holds a value into `out` — a
    /// number or an object copied into its lane — and push the others onto
    /// the lanes.
    fn answer_kept(&self, cell: u32, fr: Frame, sel: Sel, out: &mut Col, st: &mut Scratch) {
        let mut kept = self.kept.borrow_mut();
        let missed = st.lanes.len();
        kept.bind_batch(st);
        let (column, epoch) = kept.column(cell);
        for k in sel.range() {
            let lane = st.lanes[k];
            let found = kept
                .row_of(fr, lane, st)
                .map(|row| kept.cells[kept.at(column, row)]);
            match found.filter(|c| c.epoch == epoch) {
                Some(c) => kept.answer(c, out, lane, st),
                None => st.lanes.push(lane),
            }
        }
        let misses = (st.lanes.len() - missed) as u64;
        st.cache_misses += misses;
        st.cache_hits += u64::from(sel.len) - misses;
    }

    /// Fill the run cells of every member of sum group `group` for the
    /// lanes `sel`, `node` one member: one visit of the source's elements
    /// per lane, each adding its attribute to the member that selects it,
    /// in the source's order. A lane the data source does not answer, or a
    /// member whose sum fails, is left empty — its site evaluates it.
    fn fill_group(&self, group: u32, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) {
        let Ir::Aggregate { source, .. } = &self.cs.nodes[node as usize] else {
            unreachable!("sum groups are of aggregates");
        };
        let Ir::FilterEq {
            obj,
            set_attr,
            elem_attr,
            key,
            ..
        } = &self.cs.nodes[*source as usize]
        else {
            unreachable!("sum groups are over indexed filters");
        };
        let group = &self.plan.groups[group as usize];
        let top = st.top();
        let objs = self.eval(*obj, fr, sel, st);
        let keys = self.eval(*key, fr, sel, st);
        let mut kept = self.kept.borrow_mut();
        let mut sums = std::mem::take(&mut kept.sums);
        for k in sel.range() {
            let lane = st.lanes[k];
            let Some(row) = kept.row_of(fr, lane, st) else {
                continue;
            };
            let (Some(o), None) = (st.obj_of(objs, lane), st.err(keys, lane)) else {
                continue;
            };
            let key = st.value(keys, lane);
            let filter = SetFilter {
                elem_attr,
                key: &key,
                among: None,
            };
            sums.clear();
            sums.resize(group.members.len(), (ops::NumSum::new(), true));
            let routes = &group.routes;
            let mut route = |v: Value, by: &Value| {
                let key = enum_key(by);
                if let Some(&(_, m)) = routes.iter().find(|(k, _)| Some(*k) == key) {
                    let (sum, numbers) = &mut sums[m as usize];
                    *numbers &= sum.push(&v);
                }
            };
            let answered =
                (self.data).visit_attr(o, set_attr, filter, group.attr, Some(group.by), &mut route);
            if let Some(Ok(())) = answered {
                for (&cell, &(sum, numbers)) in group.members.iter().zip(&sums) {
                    let (column, epoch) = kept.column(RUN_CELL | cell);
                    let at = kept.at(column, row);
                    match sum.total() {
                        _ if !numbers => {}
                        ops::Number::Int(x) => kept.store(at, epoch, Kind::I64, x as u64),
                        ops::Number::Float(x) => kept.store(at, epoch, Kind::F64, x.to_bits()),
                    }
                }
            }
        }
        kept.sums = sums;
        drop(kept);
        st.cut(top);
    }

    fn eval_inner(&self, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Col {
        let span = self.cs.spans[node as usize];
        let lanes = st.lanes.len();
        let col = match &self.cs.nodes[node as usize] {
            Ir::Int(v) => st.push_one(Ok(Value::Int(*v))),
            Ir::Float(v) => st.push_one(Ok(Value::Float(*v))),
            Ir::Bool(b) => st.push_one(Ok(Value::Bool(*b))),
            Ir::Str(i) => st.push_one(Ok(Value::Str(Arc::clone(&self.cs.strings[*i as usize])))),
            Ir::Load(slot) => st.regs[(fr.regs + slot) as usize],
            Ir::Const(i) => st.push_one(match self.consts.get(*i as usize) {
                Some(v) => Ok(v.clone()),
                // Only reachable while constants are still initializing
                // (a forward reference) — the interpreter fails the same
                // way from `Interpreter::new`.
                None => Err(EvalError::new(
                    EvalErrorKind::Unknown,
                    format!("unknown variable `{}`", self.cs.consts[*i as usize].name),
                )
                .or_span(span)),
            }),
            Ir::EnumVal(owner, variant) => st.push_one(Ok(Value::Enum(*owner, *variant))),
            Ir::UnknownVar(n) => st.push_one(Err(EvalError::new(
                EvalErrorKind::Unknown,
                format!("unknown variable `{}`", self.cs.strings[*n as usize]),
            )
            .or_span(span))),
            Ir::Attr { base, attr } => self.map1(*base, fr, sel, st, span, |v| {
                ops::attr_on(self.data, v, attr)
            }),
            Ir::Unary(op, inner) => self.map1(*inner, fr, sel, st, span, |v| ops::unary(*op, v)),
            Ir::Binary(op @ (BinOp::And | BinOp::Or), lhs, rhs) => {
                self.logical(*op, *lhs, *rhs, fr, sel, st, span)
            }
            Ir::Binary(op, lhs, rhs) => self.strict(*op, *lhs, *rhs, fr, sel, st, span),
            Ir::Cached { cache, expr } => self.cached(*cache, *expr, fr, sel, st, span),
            Ir::Call { func, args } => self.call(*func as usize, args, fr, sel, st, span),
            Ir::CallUnknown { name, args } => {
                let top = st.top();
                let mut out = Col::new(fr.width);
                let mut alive = sel;
                for a in args.iter() {
                    let col = self.eval(*a, fr, alive, st);
                    alive = st.settle(col, alive, &mut out, span);
                }
                for k in alive.range() {
                    let lane = st.lanes[k];
                    let e = EvalError::new(
                        EvalErrorKind::Unknown,
                        format!("unknown function `{}`", self.cs.strings[*name as usize]),
                    );
                    st.fail(&mut out, lane, e.or_span(span));
                }
                st.keep(top, out)
            }
            Ir::MinMax { is_max, args } => self.min_max(*is_max, args, fr, sel, st, span),
            Ir::SetComp { .. } => {
                let top = st.top();
                let mut out = Col::new(fr.width);
                self.comp_members(node, Members::Set, fr, sel, &mut out, st);
                st.keep(top, out)
            }
            Ir::Unique(inner) => {
                let top = st.top();
                let mut out = Col::new(fr.width);
                let how = Members::Unique;
                self.members(*inner, how, "UNIQUE applied to", fr, sel, &mut out, st);
                st.tag(out, sel, span);
                st.keep(top, out)
            }
            Ir::CountSet(inner) => {
                let top = st.top();
                let mut out = Col::new(fr.width);
                let how = Members::Count;
                self.members(*inner, how, "COUNT applied to", fr, sel, &mut out, st);
                st.tag(out, sel, span);
                st.keep(top, out)
            }
            Ir::Aggregate { .. } => self.aggregate(node, fr, sel, st),
            Ir::Quantifier { .. } => self.quantifier(node, fr, sel, st),
            Ir::FilterEq { .. } => {
                let top = st.top();
                let mut out = Col::new(fr.width);
                let v = self.lend_filter(node, None, fr, sel, &mut out, st);
                self.fold_members(v, None, Members::Set, sel, &mut out, st);
                st.keep(top, out)
            }
        };
        st.lanes.truncate(lanes);
        col
    }

    /// A node of one operand: `f` of its value, lane by lane — once, if
    /// every lane shares the operand.
    fn map1(
        &self,
        inner: NodeRef,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
        f: impl Fn(&Value) -> EvalResult<Value>,
    ) -> Col {
        let top = st.top();
        let v = self.eval(inner, fr, sel, st);
        let apply = |st: &Scratch, lane| match st.err(v, lane) {
            Some(e) => Err(e.clone().or_span(span)),
            None => f(&st.value(v, lane)).map_err(|e| e.or_span(span)),
        };
        if v.len == 1 {
            let r = apply(st, 0);
            st.cut(top);
            return st.push_one(r);
        }
        let mut out = Col::new(fr.width);
        for k in sel.range() {
            let lane = st.lanes[k];
            let r = apply(st, lane);
            st.put(&mut out, lane, r);
        }
        st.keep(top, out)
    }

    /// A strict binary operator: the right operand runs on the lanes where
    /// the left one did not fail. Numbers run through the scalar kernels
    /// of [`ops`] straight from and into their unboxed lanes; whatever the
    /// kernels leave open, and operands of other kinds, through
    /// [`ops::binary_strict`].
    #[allow(clippy::too_many_arguments)]
    fn strict(
        &self,
        op: BinOp,
        lhs: NodeRef,
        rhs: NodeRef,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
    ) -> Col {
        let top = st.top();
        let mut out = Col::new(fr.width);
        let l = self.eval(lhs, fr, sel, st);
        let right = st.settle(l, sel, &mut out, span);
        let r = self.eval(rhs, fr, right, st);
        let both = st.settle(r, right, &mut out, span);
        let general = |st: &Scratch, lane| {
            ops::binary_strict(op, &st.value(l, lane), &st.value(r, lane))
                .map_err(|e| e.or_span(span))
        };
        if l.len == 1 && r.len == 1 && both.len > 0 {
            let v = general(st, 0);
            st.cut(top);
            return st.push_one(v);
        }
        for k in both.range() {
            let lane = st.lanes[k];
            let kernel = match (st.num_of(l, lane), st.num_of(r, lane)) {
                (Some(a), Some(b)) => ops::numeric_binary(op, a, b),
                _ => None,
            };
            match kernel {
                Some(s) => st.put_scalar(&mut out, lane, s),
                None => {
                    let v = general(st, lane);
                    st.put(&mut out, lane, v);
                }
            }
        }
        st.keep(top, out)
    }

    /// `AND`/`OR`: the right operand runs on the lanes the left one did
    /// not decide.
    #[allow(clippy::too_many_arguments)]
    fn logical(
        &self,
        op: BinOp,
        lhs: NodeRef,
        rhs: NodeRef,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
    ) -> Col {
        let (word, decides) = if op == BinOp::And {
            ("AND", false)
        } else {
            ("OR", true)
        };
        let truth = |st: &Scratch, col: Col, lane| match st.bool_of(col, lane) {
            Some(b) => Ok(b),
            None => Err(match st.err(col, lane) {
                Some(e) => e.clone().or_span(span),
                None => ops::type_err(word, &st.value(col, lane)).or_span(span),
            }),
        };
        let top = st.top();
        let mut out = Col::new(fr.width);
        let l = self.eval(lhs, fr, sel, st);
        let start = st.lanes.len();
        for k in sel.range() {
            let lane = st.lanes[k];
            match truth(st, l, lane) {
                Ok(b) if b == decides => st.put_num(&mut out, lane, Kind::Bool, u64::from(b)),
                Ok(_) => st.lanes.push(lane),
                Err(e) => st.fail(&mut out, lane, e),
            }
        }
        let right = st.since(start);
        let r = self.eval(rhs, fr, right, st);
        for k in right.range() {
            let lane = st.lanes[k];
            match truth(st, r, lane) {
                Ok(b) => st.put_num(&mut out, lane, Kind::Bool, u64::from(b)),
                Err(e) => st.fail(&mut out, lane, e),
            }
        }
        st.keep(top, out)
    }

    /// A loop-invariant cell of the construct entry each lane is in: the
    /// first lane of an entry to reach it evaluates it, the others read
    /// it. Kept per entry, as the interpreter would recompute it.
    fn cached(
        &self,
        cache: u32,
        expr: NodeRef,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
    ) -> Col {
        let top = st.top();
        let mut out = Col::new(fr.width);
        // Each lane's cell, then the first lane of each empty one.
        let cells = st.lanes.len();
        for k in sel.range() {
            let cell = self.cache_cell(cache, fr, st.lanes[k], st);
            st.lanes.push(cell);
        }
        let start = st.lanes.len();
        for (j, k) in sel.range().enumerate() {
            let cell = st.lanes[cells + j] as usize;
            if st.caches[cell].is_none() {
                st.cache_misses += 1;
                // Claimed: filled below, before any lane reads it.
                st.caches[cell] = Some(Ok(Value::Null));
                st.lanes.push(st.lanes[k]);
            } else {
                st.cache_hits += 1;
            }
        }
        let first = st.since(start);
        let col = self.eval(expr, fr, first, st);
        // The first lanes are a subsequence of `sel`: fill their cells on
        // the way through.
        let mut next = first.range();
        let mut filling = next.next();
        for (j, k) in sel.range().enumerate() {
            let (lane, cell) = (st.lanes[k], st.lanes[cells + j] as usize);
            if filling.is_some_and(|f| st.lanes[f] == lane) {
                st.caches[cell] = Some(st.get(col, lane));
                filling = next.next();
            }
            let kept = st.caches[cell].clone().expect("filled above");
            st.put(&mut out, lane, kept.map_err(|e| e.or_span(span)));
        }
        st.keep(top, out)
    }

    /// Where cache cell `cache` of `lane` is: with the entry of the
    /// construct whose reset range holds it — the nearest frame up that
    /// such a construct opened — for the lane that entered it.
    fn cache_cell(&self, cache: u32, fr: Frame, lane: u32, st: &Scratch) -> u32 {
        let (mut f, mut lane) = (fr.id, lane);
        loop {
            let rec = &st.frames[f as usize];
            let owner = st.lanes[(rec.owners + lane) as usize];
            let resets = match &self.cs.nodes[rec.by as usize] {
                Ir::SetComp { resets, .. }
                | Ir::Aggregate { resets, .. }
                | Ir::Quantifier { resets, .. } => *resets,
                _ => unreachable!("construct frames are opened by set constructs"),
            };
            if (resets.0..resets.1).contains(&cache) {
                return rec.caches + (cache - resets.0) * rec.parent_width + owner;
            }
            (f, lane) = (rec.parent, owner);
        }
    }

    /// A helper call: arguments in order, each on the lanes the ones
    /// before did not fail, then the callee's body over the caller's lanes
    /// in a frame of its own.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &self,
        fid: usize,
        args: &[NodeRef],
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
    ) -> Col {
        let f = &self.cs.functions[fid];
        let top = st.top();
        let mut out = Col::new(fr.width);
        let regs = st.regs.len();
        st.regs
            .resize(regs + f.n_slots.max(args.len()), Col::default());
        let mut alive = sel;
        for (i, a) in args.iter().enumerate() {
            let col = self.eval(*a, fr, alive, st);
            st.regs[regs + i] = col;
            alive = st.settle(col, alive, &mut out, span);
        }
        let entered = self.enter_call(f, args.len()).and_then(|()| {
            if st.depth >= MAX_CALL_DEPTH {
                return Err(EvalError::new(
                    EvalErrorKind::Recursion,
                    format!("call depth limit exceeded in `{}`", f.name),
                ));
            }
            Ok(())
        });
        match entered {
            Err(e) => {
                for k in alive.range() {
                    let lane = st.lanes[k];
                    st.fail(&mut out, lane, e.clone().or_span(span));
                }
            }
            Ok(()) if alive.len > 0 => {
                st.regs.truncate(regs + f.n_slots);
                let frames = st.frames.len();
                let callee = self.body_frame(fr.width, f.n_slots, st);
                let args_made = st.top();
                st.depth += 1;
                let mut body = self.eval(f.body, callee, alive, st);
                st.depth -= 1;
                st.frames.truncate(frames);
                st.regs.truncate(regs);
                if body.len == fr.width && st.made_since(args_made, body) {
                    // A column the call made: its answer, with the lanes
                    // that failed before the body ran.
                    st.tag(body, alive, span);
                    if out.failed > 0 {
                        for k in sel.range() {
                            let lane = st.lanes[k];
                            if let Some(e) = st.err(out, lane) {
                                let e = e.clone();
                                st.fail(&mut body, lane, e);
                            }
                        }
                    }
                    return st.keep(top, body);
                }
                for k in alive.range() {
                    let lane = st.lanes[k];
                    st.copy_lane(body, lane, &mut out, lane, span);
                }
            }
            Ok(()) => {}
        }
        st.regs.truncate(regs);
        st.keep(top, out)
    }

    /// The n-ary `MAX(a, b, …)` / `MIN(a, b, …)` builtin.
    #[allow(clippy::too_many_arguments)]
    fn min_max(
        &self,
        is_max: bool,
        args: &[NodeRef],
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
        span: Span,
    ) -> Col {
        let top = st.top();
        let mut out = Col::new(fr.width);
        let cols = st.regs.len();
        let mut alive = sel;
        for a in args.iter() {
            let col = self.eval(*a, fr, alive, st);
            st.regs.push(col);
            alive = st.settle(col, alive, &mut out, span);
        }
        for k in alive.range() {
            let lane = st.lanes[k];
            let mut best: Option<Value> = None;
            for &col in &st.regs[cols..] {
                best = ops::fold_builtin_minmax(is_max, best, st.value(col, lane));
            }
            let r = best.ok_or_else(|| {
                let word = if is_max { "MAX" } else { "MIN" };
                EvalError::new(
                    EvalErrorKind::Type,
                    format!("{word} requires at least one argument"),
                )
                .or_span(span)
            });
            st.put(&mut out, lane, r);
        }
        st.regs.truncate(cols);
        st.keep(top, out)
    }

    /// The members of the set `node` evaluates to, for a consumer that
    /// only looks at them (`UNIQUE`, `COUNT`), into `out`. A comprehension
    /// hands over the elements it keeps without collecting them: its
    /// predicates run in the same order either way.
    #[allow(clippy::too_many_arguments)]
    fn members(
        &self,
        node: NodeRef,
        how: Members,
        not_a_set: &str,
        fr: Frame,
        sel: Sel,
        out: &mut Col,
        st: &mut Scratch,
    ) {
        let (comp, filter) = match self.cs.nodes[node as usize] {
            Ir::SetComp { .. } => (true, false),
            Ir::FilterEq { .. } => (false, true),
            _ => (false, false),
        };
        let lent = self.cell[node as usize] == NO_CELL;
        if lent && (comp || filter) {
            if let Some(counted) = self.count_members(node, how, fr, sel, st) {
                *out = counted;
                return;
            }
        }
        if lent && comp {
            return self.comp_members(node, how, fr, sel, out, st);
        }
        let v = self.visit(node, None, not_a_set, fr, sel, out, st);
        self.fold_members(v, None, how, sel, out, st);
    }

    /// `COUNT`/`UNIQUE` (`how`) of an indexed filter — or of a
    /// comprehension over one whose predicate is a second key — as the data
    /// source counts it ([`ObjectModel::count_set`]): no element is lent.
    /// `None`, with nothing left pushed, where the source does not answer
    /// every lane of `sel`, or a lane has no object or key to ask it with.
    fn count_members(
        &self,
        node: NodeRef,
        how: Members,
        fr: Frame,
        sel: Sel,
        st: &mut Scratch,
    ) -> Option<Col> {
        let (source, among) = match &self.cs.nodes[node as usize] {
            Ir::SetComp { source, .. } => match self.second_key_of(node) {
                Some(among) if self.cell[*source as usize] == NO_CELL => (*source, Some(among)),
                _ => return None,
            },
            _ => (node, None),
        };
        let Ir::FilterEq {
            obj,
            set_attr,
            elem_attr,
            key,
            ..
        } = &self.cs.nodes[source as usize]
        else {
            return None;
        };
        let top = st.top();
        let objs = self.eval(*obj, fr, sel, st);
        let keys = self.eval(*key, fr, sel, st);
        let mut out = Col::new(fr.width);
        for k in sel.range() {
            let lane = st.lanes[k];
            let counted = match (st.obj_of(objs, lane), st.err(keys, lane)) {
                (Some(o), None) => {
                    let key = st.value(keys, lane);
                    let filter = SetFilter {
                        elem_attr,
                        key: &key,
                        among,
                    };
                    self.data.count_set(o, set_attr, filter)
                }
                _ => None,
            };
            let r = match counted {
                Some(Ok((1, Some(only)))) if matches!(how, Members::Unique) => Ok(Value::Obj(only)),
                Some(Ok((n, first))) => how.finish(n, first.map(Value::Obj), None),
                _ => {
                    st.cut(top);
                    return None;
                }
            };
            st.put(&mut out, lane, r);
        }
        Some(st.keep(top, out))
    }

    /// The members the comprehension `comp` keeps, per lane, as `how`
    /// wants them, into `out`.
    fn comp_members(
        &self,
        comp: NodeRef,
        how: Members,
        fr: Frame,
        sel: Sel,
        out: &mut Col,
        st: &mut Scratch,
    ) {
        let Ir::SetComp {
            slot, source, pred, ..
        } = &self.cs.nodes[comp as usize]
        else {
            unreachable!("comp_members is called on comprehension nodes only");
        };
        let among = self.second_key_of(comp);
        let v = self.visit(*source, among, "comprehension source is", fr, sel, out, st);
        let comp_span = self.cs.spans[comp as usize];
        st.tag(*out, sel, comp_span);
        let marks = st.marks();
        let child = self.open(comp, *slot, fr, v, st);
        let tested = self.elements(v, |selected| !selected, st);
        let tests = self.eval(*pred, child, tested, st);
        st.close(marks);
        let spans = [self.cs.spans[*source as usize], comp_span];
        self.fold_members(v, Some((tests, spans)), how, sel, out, st);
    }

    /// Fold each lane's elements into what `how` wants of them — those
    /// its comprehension's predicate `tests` keeps, if it has one. A lane
    /// fails with the first element's failure, tagged as coming out of
    /// the comprehension's source, then out of the comprehension (the
    /// two `spans`).
    fn fold_members(
        &self,
        v: Visit,
        tests: Option<(Col, [Span; 2])>,
        how: Members,
        sel: Sel,
        out: &mut Col,
        st: &mut Scratch,
    ) {
        let n = v.elems.len;
        let mut e = 0;
        for k in sel.range() {
            let lane = st.lanes[k];
            if st.err(*out, lane).is_some() {
                continue;
            }
            let selected = v.selected(lane, st);
            let mut items = matches!(how, Members::Set).then(Vec::new);
            let (mut count, mut first, mut err) = (0usize, None, None);
            while e < n && v.owner(e, st) == lane {
                let keep = match tests {
                    Some((tests, _)) if err.is_none() && !selected => match st.err(tests, e) {
                        Some(x) => Err(x.clone()),
                        None => st.bool_of(tests, e).ok_or_else(|| {
                            EvalError::new(
                                EvalErrorKind::Type,
                                "comprehension predicate is not boolean",
                            )
                        }),
                    },
                    _ => Ok(err.is_none()),
                };
                match keep {
                    Ok(true) => {
                        if let Some(items) = &mut items {
                            items.push(st.value(v.elems, e));
                        } else if count == 0 {
                            first = Some(st.value(v.elems, e));
                        }
                        count += 1;
                    }
                    Ok(false) => {}
                    Err(x) => err = Some(x),
                }
                e += 1;
            }
            let r = match err {
                Some(x) => {
                    let [source, comp] = tests.map_or([Span::default(); 2], |(_, spans)| spans);
                    Err(x.or_span(source).or_span(comp))
                }
                None => how.finish(count, first, items),
            };
            st.put(out, lane, r);
        }
    }

    /// Select the elements of `v` whose lane `wants` them (given whether
    /// the data source selected them).
    fn elements(&self, v: Visit, wants: impl Fn(bool) -> bool, st: &mut Scratch) -> Sel {
        let start = st.lanes.len();
        if v.selected == NONE {
            if wants(false) {
                st.lanes.extend(0..v.elems.len);
            }
            return st.since(start);
        }
        for e in 0..v.elems.len {
            if wants(v.selected(v.owner(e, st), st)) {
                st.lanes.push(e);
            }
        }
        st.since(start)
    }

    /// Quantified aggregate `SUM(value WHERE x IN source AND pred)`: the
    /// predicate over every element the source did not select, the value
    /// over every element kept, then each lane's values folded in set
    /// order — a float sum adds exactly as one instance alone would.
    fn aggregate(&self, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Col {
        let Ir::Aggregate {
            op,
            slot,
            source,
            value,
            pred,
            ..
        } = &self.cs.nodes[node as usize]
        else {
            unreachable!("aggregate is called on aggregate nodes only");
        };
        if let Some(col) = self.fold_attr(node, fr, sel, st) {
            return col;
        }
        let top = st.top();
        let mut out = Col::new(fr.width);
        let among = self.second_key_of(node);
        let v = self.visit(*source, among, "aggregate source is", fr, sel, &mut out, st);
        let n = v.elems.len;
        let marks = st.marks();
        let child = self.open(node, *slot, fr, v, st);
        // A predicate the data source applied on every lane does not run.
        let untested = sel.range().any(|k| {
            let lane = st.lanes[k];
            st.err(out, lane).is_none() && !v.selected(lane, st)
        });
        let tests = pred.filter(|_| untested).map(|p| {
            let tested = self.elements(v, |selected| !selected, st);
            self.eval(p, child, tested, st)
        });
        let start = st.lanes.len();
        match tests {
            None => st.lanes.extend(0..n),
            Some(tests) => {
                for e in 0..n {
                    if v.selected(v.owner(e, st), st) || st.bool_of(tests, e) == Some(true) {
                        st.lanes.push(e);
                    }
                }
            }
        }
        let kept = st.since(start);
        let values = self.eval(*value, child, kept, st);
        st.close(marks);

        let source_span = self.cs.spans[*source as usize];
        let mut e = 0;
        for k in sel.range() {
            let lane = st.lanes[k];
            if st.err(out, lane).is_some() {
                continue;
            }
            let selected = v.selected(lane, st);
            let mut agg = ops::Aggregator::new(*op);
            let mut err = None;
            while e < n && v.owner(e, st) == lane {
                if err.is_none() {
                    let test = match tests {
                        Some(tests) if !selected => match st.err(tests, e) {
                            Some(x) => Err(x.clone()),
                            None => Ok(st.bool_of(tests, e).unwrap_or(false)),
                        },
                        _ => Ok(true),
                    };
                    match test {
                        Ok(true) => match st.err(values, e) {
                            Some(x) => err = Some(x.clone()),
                            None => agg.push(st.value(values, e)),
                        },
                        Ok(false) => {}
                        Err(x) => err = Some(x),
                    }
                }
                e += 1;
            }
            let r = match err {
                Some(x) => Err(x.or_span(source_span)),
                None => agg.finish(),
            };
            st.put(&mut out, lane, r);
        }
        st.tag(out, sel, self.cs.spans[node as usize]);
        st.keep(top, out)
    }

    /// An aggregate of a binder attribute over an indexed filter, its
    /// predicate none or a second key, folded from what the data source
    /// hands over ([`ObjectModel::visit_attr`]) in the order it would lend
    /// the elements: none is lent and no frame of elements opened. `None`,
    /// with nothing left pushed, where the source does not answer every
    /// lane of `sel`, or a lane has no object or key to ask it with.
    fn fold_attr(&self, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Option<Col> {
        let Ir::Aggregate {
            op,
            slot,
            source,
            value,
            pred,
            ..
        } = &self.cs.nodes[node as usize]
        else {
            unreachable!("fold_attr is called on aggregate nodes only");
        };
        let among = self.second_key_of(node);
        let answered = pred.is_none() || among.is_some();
        let Ir::FilterEq {
            obj,
            set_attr,
            elem_attr,
            key,
            ..
        } = &self.cs.nodes[*source as usize]
        else {
            return None;
        };
        let Ir::Attr { base, attr } = &self.cs.nodes[*value as usize] else {
            return None;
        };
        let of_binder = matches!(self.cs.nodes[*base as usize], Ir::Load(s) if s == *slot);
        if !answered || !of_binder || self.cell[*source as usize] != NO_CELL {
            return None;
        }
        let top = st.top();
        let objs = self.eval(*obj, fr, sel, st);
        let keys = self.eval(*key, fr, sel, st);
        let mut out = Col::new(fr.width);
        for k in sel.range() {
            let lane = st.lanes[k];
            let mut agg = ops::Aggregator::new(*op);
            let folded = match (st.obj_of(objs, lane), st.err(keys, lane)) {
                (Some(o), None) => {
                    let key = st.value(keys, lane);
                    let filter = SetFilter {
                        elem_attr,
                        key: &key,
                        among,
                    };
                    self.data
                        .visit_attr(o, set_attr, filter, attr, None, &mut |v, _| agg.push(v))
                }
                _ => None,
            };
            if !matches!(folded, Some(Ok(()))) {
                st.cut(top);
                return None;
            }
            st.put(&mut out, lane, agg.finish());
        }
        st.tag(out, sel, self.cs.spans[node as usize]);
        Some(st.keep(top, out))
    }

    /// `FORALL`/`EXISTS`: the predicate over each lane's elements in
    /// rounds ([`Ctx::decide`]), then each lane decided by its first
    /// counterexample or witness — the elements after it cannot fail the
    /// lane.
    fn quantifier(&self, node: NodeRef, fr: Frame, sel: Sel, st: &mut Scratch) -> Col {
        let Ir::Quantifier {
            forall,
            slot,
            source,
            pred,
            ..
        } = &self.cs.nodes[node as usize]
        else {
            unreachable!("quantifier is called on quantifier nodes only");
        };
        let top = st.top();
        let mut out = Col::new(fr.width);
        let v = self.visit(*source, None, "quantifier source is", fr, sel, &mut out, st);
        let n = v.elems.len;
        let tests = pred.map(|p| {
            let mut tests = Col::new(n);
            let marks = st.marks();
            let child = self.open(node, *slot, fr, v, st);
            self.decide(p, *forall, child, v, sel, &mut tests, st);
            st.close(marks);
            tests
        });

        let source_span = self.cs.spans[*source as usize];
        let mut e = 0;
        for k in sel.range() {
            let lane = st.lanes[k];
            if st.err(out, lane).is_some() {
                continue;
            }
            let mut decided: EvalResult<Option<bool>> = Ok(None);
            while e < n && v.owner(e, st) == lane {
                if let Ok(None) = decided {
                    let b = match tests {
                        Some(tests) => match st.err(tests, e) {
                            Some(x) => Err(x.clone()),
                            None => Ok(st.bool_of(tests, e).unwrap_or(false)),
                        },
                        None => Ok(true),
                    };
                    decided = match b {
                        // FORALL ends at its first counterexample, EXISTS
                        // at its first witness.
                        Ok(b) => Ok((b != *forall).then_some(b)),
                        Err(x) => Err(x),
                    };
                }
                e += 1;
            }
            let r = match decided {
                Ok(b) => Ok(Value::Bool(b.unwrap_or(*forall))),
                Err(x) => Err(x.or_span(source_span)),
            };
            st.put(&mut out, lane, r);
        }
        st.tag(out, sel, self.cs.spans[node as usize]);
        st.keep(top, out)
    }

    /// Test the elements of `v` with a quantifier's predicate `pred` into
    /// `tests` — a truth value or an error per element — in rounds: the
    /// first [`QUANTIFIER_ROUND`] elements of each lane, then twice as many
    /// of each lane no element has decided yet — by failing, or as a
    /// counterexample (`FORALL`) or witness (`EXISTS`) — and so on. A lane
    /// decided early costs at most twice the elements up to its deciding
    /// one, or the first round; the elements after it are not tested, as
    /// evaluating the instance alone would not.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        pred: NodeRef,
        forall: bool,
        child: Frame,
        v: Visit,
        sel: Sel,
        tests: &mut Col,
        st: &mut Scratch,
    ) {
        let n = v.elems.len;
        // Per lane of `sel`: its next untested element and the end of its
        // elements — equal once the lane is decided.
        let cursors = st.lanes.len();
        let mut e = 0;
        for k in sel.range() {
            let lane = st.lanes[k];
            st.lanes.push(e);
            while e < n && v.owner(e, st) == lane {
                e += 1;
            }
            st.lanes.push(e);
        }
        let mut round = QUANTIFIER_ROUND;
        loop {
            let start = st.lanes.len();
            for j in 0..sel.len as usize {
                let (next, end) = (st.lanes[cursors + 2 * j], st.lanes[cursors + 2 * j + 1]);
                st.lanes.extend(next..end.min(next.saturating_add(round)));
            }
            let tested = st.since(start);
            if tested.len == 0 {
                break;
            }
            let top = st.top();
            let col = self.eval(pred, child, tested, st);
            for k in tested.range() {
                let e = st.lanes[k];
                match st.err(col, e) {
                    Some(x) => {
                        let x = x.clone();
                        st.fail(tests, e, x);
                    }
                    None => {
                        let b = st.bool_of(col, e).unwrap_or(false);
                        st.put_num(tests, e, Kind::Bool, u64::from(b));
                    }
                }
            }
            *tests = st.keep(top, *tests);
            st.lanes.truncate(start);
            for j in 0..sel.len as usize {
                let (next, end) = (st.lanes[cursors + 2 * j], st.lanes[cursors + 2 * j + 1]);
                let upto = end.min(next.saturating_add(round));
                let decides = |e: u32| match st.bool_of(*tests, e) {
                    Some(t) => t != forall,
                    None => true,
                };
                let decided = (next..upto).any(decides);
                st.lanes[cursors + 2 * j] = if decided { end } else { upto };
            }
            round = round.saturating_mul(2);
        }
        st.lanes.truncate(cursors);
    }

    /// Open the frame of a set construct over the elements `v` lent: its
    /// binder `slot` holds them, and every outer slot its body reads
    /// ([`BatchPlan::gather`]) holds, per element, what the element's lane
    /// holds — or, shared by every lane, the one value. Closed with
    /// [`Scratch::close`].
    fn open(&self, construct: NodeRef, slot: u32, fr: Frame, v: Visit, st: &mut Scratch) -> Frame {
        let regs = st.regs.len();
        st.regs
            .extend_from_within(fr.regs as usize..(fr.regs + fr.slots) as usize);
        let gather = self.plan.gather[construct as usize];
        for s in 0..slot.min(fr.slots) {
            let col = st.regs[regs + s as usize];
            if gather >> s.min(63) & 1 == 0 || col.len <= 1 {
                continue;
            }
            st.regs[regs + s as usize] = st.gather(col, v.owners, v.elems.len);
        }
        st.regs[regs + slot as usize] = v.elems;
        let (Ir::SetComp { resets, .. }
        | Ir::Aggregate { resets, .. }
        | Ir::Quantifier { resets, .. }) = &self.cs.nodes[construct as usize]
        else {
            unreachable!("frames are opened by set constructs");
        };
        let caches = st.caches.len();
        let cells = (resets.1 - resets.0) as usize * fr.width as usize;
        st.caches.resize(caches + cells, None);
        st.frames.push(FrameRec {
            by: construct,
            parent: fr.id,
            owners: v.owners,
            caches: caches as u32,
            parent_width: fr.width,
        });
        Frame {
            id: st.frames.len() as u32 - 1,
            regs: regs as u32,
            width: v.elems.len,
            slots: fr.slots,
        }
    }

    /// Lend each lane of `sel` the elements of the set `source` evaluates
    /// to, in set order, and flag the lanes whose elements the data source
    /// selected by the second key `among` (they satisfy the construct's
    /// predicate); a lane the source failed on fails in `out`. An attribute
    /// of the data source, filtered or whole, is lent
    /// ([`ObjectModel::visit_set`]) instead of materialized; anything else
    /// — and a source the plan keeps in a cell — is evaluated to a set
    /// first. `not_a_set` starts the type error for any other value. Errors
    /// are tagged with the source's span, as if they came out of evaluating
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        source: NodeRef,
        among: Option<(&str, &[Value])>,
        not_a_set: &str,
        fr: Frame,
        sel: Sel,
        out: &mut Col,
        st: &mut Scratch,
    ) -> Visit {
        let span = self.cs.spans[source as usize];
        let lendable = self.cell[source as usize] == NO_CELL;
        match &self.cs.nodes[source as usize] {
            Ir::FilterEq { .. } if lendable => self.lend_filter(source, among, fr, sel, out, st),
            Ir::Attr { base, attr } if lendable => {
                let b = self.eval(*base, fr, sel, st);
                let owners = st.lanes.len() as u32;
                let mut elems = Col::new(0);
                for k in sel.range() {
                    let lane = st.lanes[k];
                    let got = match (st.err(b, lane), st.obj_of(b, lane).cloned()) {
                        (Some(e), _) => Err(e.clone()),
                        (None, Some(obj)) => {
                            match self.lend(lane, &obj, attr, None, &mut elems, st) {
                                Some(Ok(())) => continue,
                                Some(Err(e)) => {
                                    st.fail(out, lane, e.or_span(span));
                                    continue;
                                }
                                None => self.data.attr(&obj, attr),
                            }
                        }
                        (None, None) => ops::attr_on(self.data, &st.value(b, lane), attr),
                    };
                    self.push_set(got, lane, not_a_set, out, &mut elems, span, st);
                }
                Visit {
                    elems,
                    owners,
                    selected: NONE,
                }
            }
            _ => {
                let set = self.eval(source, fr, sel, st);
                let owners = st.lanes.len() as u32;
                let mut elems = Col::new(0);
                for k in sel.range() {
                    let lane = st.lanes[k];
                    let got = st.get(set, lane);
                    self.push_set(got, lane, not_a_set, out, &mut elems, span, st);
                }
                Visit {
                    elems,
                    owners,
                    selected: NONE,
                }
            }
        }
    }

    /// Push the members of a materialized set as `lane`'s elements, or
    /// fail the lane in `out`.
    #[allow(clippy::too_many_arguments)]
    fn push_set(
        &self,
        set: EvalResult<Value>,
        lane: u32,
        not_a_set: &str,
        out: &mut Col,
        elems: &mut Col,
        span: Span,
        st: &mut Scratch,
    ) {
        let e = match set {
            Ok(Value::Set(items)) => {
                for item in items.iter() {
                    st.push_lane(elems, item.clone());
                    st.lanes.push(lane);
                }
                return;
            }
            Ok(v) => EvalError::new(
                EvalErrorKind::Type,
                format!("{not_a_set} {}", v.type_name()),
            ),
            Err(e) => e,
        };
        st.fail(out, lane, e.or_span(span));
    }

    /// Lend `lane` what the data source lends of `obj.set_attr` under
    /// `filter`, onto `elems`; nothing stays pushed unless it lent all of
    /// it.
    fn lend(
        &self,
        lane: u32,
        obj: &ObjRef,
        set_attr: &str,
        filter: Option<SetFilter<'_>>,
        elems: &mut Col,
        st: &mut Scratch,
    ) -> Option<EvalResult<()>> {
        let (before, top, owners) = (*elems, st.top(), st.lanes.len());
        let lent = self.data.visit_set(obj, set_attr, filter, &mut |elem| {
            st.push_obj(elems, elem);
            st.lanes.push(lane);
            Ok(true)
        });
        if !matches!(lent, Some(Ok(()))) {
            st.cut(top);
            st.lanes.truncate(owners);
            *elems = before;
        }
        lent
    }

    /// [`Ir::FilterEq`] as [`visit`](Self::visit) lends it: the object and
    /// the key per lane, then the data source's filter — with the second
    /// key first, if there is one — or, where the source lends no such
    /// filter, a scan that compares element attributes exactly as the
    /// unextracted predicate would.
    fn lend_filter(
        &self,
        node: NodeRef,
        among: Option<(&str, &[Value])>,
        fr: Frame,
        sel: Sel,
        out: &mut Col,
        st: &mut Scratch,
    ) -> Visit {
        let Ir::FilterEq {
            obj,
            set_attr,
            elem_attr,
            key,
            ctx,
        } = &self.cs.nodes[node as usize]
        else {
            unreachable!("lend_filter is called on filter nodes only");
        };
        let span = self.cs.spans[node as usize];
        let objs = self.eval(*obj, fr, sel, st);
        let object = |st: &Scratch, lane: u32| st.obj_of(objs, lane).is_some();
        for k in sel.range() {
            let lane = st.lanes[k];
            // The attribute-access errors the generic lowering would have
            // raised on `base.set_attr`.
            let e = match st.err(objs, lane) {
                Some(e) => e.clone(),
                None if object(st, lane) => continue,
                None => ops::attr_on(self.data, &st.value(objs, lane), set_attr)
                    .expect_err("attribute access on a non-object fails"),
            };
            st.fail(out, lane, e.or_span(span));
        }
        let with_obj = st.select(sel, object);
        // Key evaluation is infallible by construction (see
        // `Compiler::is_infallible`), so evaluating it before the set
        // access cannot reorder observable errors.
        let keys = self.eval(*key, fr, with_obj, st);
        let keyed = st.settle(keys, with_obj, out, span);
        let selected = match among {
            Some(_) => {
                let at = st.lanes.len();
                st.lanes.resize(at + fr.width as usize, 0);
                at as u32
            }
            None => NONE,
        };
        let owners = st.lanes.len() as u32;
        let mut elems = Col::new(0);
        for k in keyed.range() {
            let lane = st.lanes[k];
            let obj_ref = st.obj_of(objs, lane).expect("lanes with an object").clone();
            let key_v = st.value(keys, lane);
            let one_key = SetFilter {
                elem_attr,
                key: &key_v,
                among: None,
            };
            let mut lent = None;
            if among.is_some() {
                let filter = Some(SetFilter { among, ..one_key });
                lent = self
                    .lend(lane, &obj_ref, set_attr, filter, &mut elems, st)
                    .map(|lent| lent.map(|()| true));
                // Not answered, and nothing lent: the first key alone,
                // and the predicate runs.
            }
            if lent.is_none() {
                lent = self
                    .lend(lane, &obj_ref, set_attr, Some(one_key), &mut elems, st)
                    .map(|lent| lent.map(|()| false));
            }
            match lent {
                Some(Ok(true)) => st.lanes[(selected + lane) as usize] = 1,
                Some(Ok(false)) => {}
                Some(Err(e)) => st.fail(out, lane, e.or_span(span)),
                None => {
                    let set = self.scan_filter_eq(&obj_ref, set_attr, elem_attr, &key_v, *ctx);
                    self.push_set(set, lane, "", out, &mut elems, span, st);
                }
            }
        }
        Visit {
            elems,
            owners,
            selected,
        }
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

    /// The second key `node` selects by ([`BatchPlan::among`]), if it is
    /// such a construct.
    fn second_key_of(&self, node: NodeRef) -> Option<(&'c str, &'c [Value])> {
        let key = self
            .plan
            .second_keys
            .get(self.plan.among[node as usize] as usize);
        key.map(|(attr, values)| (*attr, &**values))
    }
}

/// What a consumer of a set's members wants of each lane's.
#[derive(Clone, Copy)]
enum Members {
    /// The set of them.
    Set,
    /// How many there are.
    Count,
    /// The only one.
    Unique,
}

impl Members {
    /// The value of a lane with `n` members, the first of them `first`,
    /// all of them `items` (collected for [`Members::Set`] only).
    fn finish(
        self,
        n: usize,
        first: Option<Value>,
        items: Option<Vec<Value>>,
    ) -> EvalResult<Value> {
        match (self, n, first) {
            (Members::Set, ..) => Ok(Value::Set(items.unwrap_or_default().into())),
            (Members::Count, ..) => Ok(Value::Int(n as i64)),
            (Members::Unique, 1, Some(v)) => Ok(v),
            (Members::Unique, 0, _) => Err(EvalError::new(
                EvalErrorKind::EmptySet,
                "UNIQUE of an empty set",
            )),
            (Members::Unique, n, _) => Err(EvalError::new(
                EvalErrorKind::Ambiguous,
                format!("UNIQUE of a set with {n} elements"),
            )),
        }
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

    /// A cloud of `len` points, every `X` 1.0 but point `zero_at`'s, 0.0;
    /// counts the `X` it is asked for.
    struct Ramp {
        len: u32,
        zero_at: u32,
        reads: std::sync::atomic::AtomicUsize,
    }

    impl ObjectModel for Ramp {
        fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
            match (obj.class.as_str(), attr) {
                ("Cloud", "Points") => Ok(Value::Set(Arc::new(
                    (0..self.len).map(|i| Value::obj("Point", i)).collect(),
                ))),
                ("Point", "X") => {
                    self.reads
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok(Value::Float(if obj.index == self.zero_at {
                        0.0
                    } else {
                        1.0
                    }))
                }
                _ => Err(EvalError::new(EvalErrorKind::Unknown, "no such attribute")),
            }
        }
    }

    #[test]
    fn quantifiers_stop_within_a_round_of_their_deciding_element() {
        let src = format!(
            "{MODEL}\n\
            bool Early(Cloud c) = FORALL(p IN c.Points WITH 1.0 / p.X > 2.0);\n\
            bool Late(Cloud c) = EXISTS(p IN c.Points WITH 1.0 / p.X > 2.0);"
        );
        let spec = parse_and_check(&src).unwrap();
        let compiled = Arc::new(compile(&spec));
        // `Early` is decided by its first element, `Late` fails at its
        // 21st: the elements past a round beyond are never read.
        for (f, zero_at, needed) in [("Early", 900, 1), ("Late", 20, 21)] {
            let ramp = |zero_at| Ramp {
                len: 1000,
                zero_at,
                reads: Default::default(),
            };
            let (a, b) = (ramp(zero_at), ramp(zero_at));
            let args = [Value::obj("Cloud", 0)];
            let i = Interpreter::new(&spec, &a).unwrap().call_function(f, &args);
            let c = CompiledEvaluator::new(Arc::clone(&compiled), &b)
                .unwrap()
                .call_function(f, &args);
            match (&i, &c) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "{f}"),
                (Err(x), Err(y)) => assert_eq!((x.kind, x.span), (y.kind, y.span), "{f}"),
                _ => panic!("divergence on {f}: interp={i:?} compiled={c:?}"),
            }
            let reads = |m: &Ramp| m.reads.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(reads(&a), needed, "{f}");
            let bound = 2 * needed.max(QUANTIFIER_ROUND as usize);
            assert!(reads(&b) <= bound.min(100), "{f}: {} reads", reads(&b));
        }
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
    fn recursion_at_the_limit_matches() {
        // Called from outside, `F` runs one call deep: `F(63)` nests 64
        // bodies, the most either engine allows; `F(64)` nests one more.
        let extra = "bool F(int n) = n <= 0 OR F(n - 1);";
        for (n, ok) in [(62, true), (63, true), (64, false), (65, false)] {
            let (i, c) = both(extra, "F", &[Value::Int(n)]);
            assert_eq!(i.is_ok(), ok, "interpreter on F({n}): {i:?}");
            match (&i, &c) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "F({n})"),
                (Err(a), Err(b)) => {
                    assert_eq!(a.kind, EvalErrorKind::Recursion, "F({n})");
                    assert_eq!((a.kind, &a.message), (b.kind, &b.message), "F({n})");
                    assert_eq!(a.span, b.span, "F({n})");
                }
                _ => panic!("divergence on F({n}): interp={i:?} compiled={c:?}"),
            }
        }
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
