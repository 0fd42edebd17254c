//! Evaluation backends: client-side interpretation vs in-database SQL.
//!
//! §5 of the paper compares two work distributions between the analysis
//! tool and the database server: fetching the data components and
//! evaluating property expressions in the tool, versus translating the
//! conditions entirely into SQL queries. Both are first-class here and must
//! produce identical analyses (enforced by integration tests).

use crate::error::{AnalysisError, SpecError};
use asl_core::check::CheckedSpec;
use asl_eval::{
    CompiledEvaluator, CosyData, Interpreter, Outcome, PropertyOutcome, Scratch, Value,
};
use asl_sql::{
    compile_batch, compile_property, eval_batch, eval_compiled, generate_schema, loader, SchemaInfo,
};
use perfdata::Store;
use reldb::Database;
use std::collections::HashMap;
use std::sync::Arc;

/// The lowering [`PreparedBackend::from_compiled`] binds, and the function
/// that makes it — for engines that lower their suite once and bind it on
/// every flush.
pub use asl_eval::{compile, CompiledSpec};

/// Which evaluation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The slot-indexed compiled IR over the object store — the production
    /// client-side engine (properties are lowered once, then every
    /// instance executes with O(1) name resolution and indexed metric
    /// loads).
    #[default]
    Compiled,
    /// Direct AST interpretation over the object store. Kept as the
    /// reference oracle the compiled engine is validated against.
    Interpreter,
    /// Compilation of every property instance into SQL, executed by the
    /// embedded relational engine.
    Sql,
    /// One SQL query per (property, run) covering all contexts at once —
    /// the fully set-oriented translation (§5/§6 of the paper).
    SqlBatched,
}

/// Cache key for batched evaluation: (property, run id, basis id).
type BatchKey = (String, u32, u32);

/// A prepared evaluator for one backend. `None` outcomes mean the property
/// is not applicable in that context (e.g. no timing recorded).
pub enum PreparedBackend<'a> {
    /// Compiled-IR state: the lowered spec bound to the store.
    Compiled(CompiledEvaluator<CosyData<'a>>),
    /// Interpreter state.
    Interpreter(Interpreter<'a, CosyData<'a>>),
    /// SQL state: generated schema plus the loaded database.
    Sql {
        /// The checked suite.
        spec: &'a CheckedSpec,
        /// Generated schema info (needed to compile properties).
        schema: SchemaInfo,
        /// The populated database.
        db: Database,
    },
    /// Batched SQL state: like [`PreparedBackend::Sql`] plus a cache of
    /// whole-context-set results keyed by (property, run, basis).
    SqlBatched {
        /// The checked suite.
        spec: &'a CheckedSpec,
        /// Generated schema info.
        schema: SchemaInfo,
        /// The populated database.
        db: Database,
        /// One result map per (property, run, basis); filled lazily.
        cache: std::sync::Mutex<HashMap<BatchKey, HashMap<u32, PropertyOutcome>>>,
    },
}

impl<'a> PreparedBackend<'a> {
    /// Prepare a backend for a suite and a store.
    pub fn prepare(
        backend: Backend,
        spec: &'a CheckedSpec,
        store: &'a Store,
    ) -> Result<Self, SpecError> {
        let sql = |source| SpecError::Sql { backend, source };
        match backend {
            Backend::Compiled => Self::from_compiled(Arc::new(compile(spec)), store),
            Backend::Interpreter => {
                let data = CosyData::new(store);
                let interp = Interpreter::new(spec, data)
                    .map_err(|source| SpecError::Bind { backend, source })?;
                Ok(PreparedBackend::Interpreter(interp))
            }
            Backend::Sql | Backend::SqlBatched => {
                let schema = generate_schema(&spec.model).map_err(sql)?;
                let mut db = Database::new();
                schema.create_all(&mut db).map_err(sql)?;
                let data = CosyData::new(store);
                loader::load_store(&mut db, &schema, &spec.model, &data).map_err(sql)?;
                if backend == Backend::Sql {
                    Ok(PreparedBackend::Sql { spec, schema, db })
                } else {
                    Ok(PreparedBackend::SqlBatched {
                        spec,
                        schema,
                        db,
                        cache: std::sync::Mutex::new(HashMap::new()),
                    })
                }
            }
        }
    }

    /// Bind an already-compiled spec to a store. This is the cheap
    /// re-preparation path the engines use on every flush: the expensive
    /// lowering happened once, binding only re-evaluates the spec's global
    /// constants.
    pub fn from_compiled(
        compiled: Arc<CompiledSpec>,
        store: &'a Store,
    ) -> Result<PreparedBackend<'a>, SpecError> {
        let eval = CompiledEvaluator::new(compiled, CosyData::new(store)).map_err(|source| {
            SpecError::Bind {
                backend: Backend::Compiled,
                source,
            }
        })?;
        Ok(PreparedBackend::Compiled(eval))
    }

    /// Evaluate one property for every subject in one shared context (the
    /// arguments after the subject), handing `sink` the index and lean
    /// outcome of each in order — `None` for a subject the property is not
    /// applicable to. Stops at the first subject that fails to evaluate.
    ///
    /// The compiled engine runs the subjects as one [`asl_eval::Batch`] on
    /// the caller's `scratch` (one per worker serves all its batches); the
    /// others evaluate instance by instance through [`Self::eval`].
    pub fn eval_batch(
        &self,
        prop: &str,
        context: &[Value],
        subjects: &mut dyn Iterator<Item = Value>,
        scratch: &mut Scratch,
        sink: &mut dyn FnMut(usize, Option<Outcome>),
    ) -> Result<(), AnalysisError> {
        let PreparedBackend::Compiled(eval) = self else {
            let mut args = vec![Value::Null];
            args.extend_from_slice(context);
            for (i, subject) in subjects.enumerate() {
                args[0] = subject;
                let outcome = self.eval(prop, &args)?.map(|o| Outcome {
                    holds: o.holds,
                    confidence: o.confidence,
                    severity: o.severity,
                });
                sink(i, outcome);
            }
            return Ok(());
        };
        let property = |source| AnalysisError::Property {
            property: prop.to_string(),
            source,
        };
        let mut batch = eval.batch(prop, context, scratch).map_err(property)?;
        for (i, subject) in subjects.enumerate() {
            match batch.eval(subject) {
                Ok(outcome) => sink(i, Some(outcome)),
                Err(e) if e.is_not_applicable() => sink(i, None),
                Err(e) => return Err(property(e)),
            }
        }
        Ok(())
    }

    /// Evaluate one property instance. Returns `Ok(None)` when the property
    /// is not applicable in the context.
    pub fn eval(
        &self,
        prop: &str,
        args: &[Value],
    ) -> Result<Option<PropertyOutcome>, AnalysisError> {
        let property = |source| AnalysisError::Property {
            property: prop.to_string(),
            source,
        };
        let sql = |source| AnalysisError::Sql {
            property: prop.to_string(),
            source,
        };
        match self {
            PreparedBackend::Compiled(eval) => match eval.eval_property(prop, args) {
                Ok(o) => Ok(Some(o)),
                Err(e) if e.is_not_applicable() => Ok(None),
                Err(e) => Err(property(e)),
            },
            PreparedBackend::Interpreter(interp) => match interp.eval_property(prop, args) {
                Ok(o) => Ok(Some(o)),
                Err(e) if e.is_not_applicable() => Ok(None),
                Err(e) => Err(property(e)),
            },
            PreparedBackend::Sql { spec, schema, db } => {
                let cp = compile_property(spec, schema, prop, args).map_err(sql)?;
                let o = eval_compiled(db, &cp).map_err(sql)?;
                Ok(Some(o))
            }
            PreparedBackend::SqlBatched {
                spec,
                schema,
                db,
                cache,
            } => {
                // Expect the COSY signature (subject, run, basis).
                let subject = match args.first() {
                    Some(Value::Obj(o)) => o.clone(),
                    other => {
                        return Err(AnalysisError::BadInstance {
                            property: prop.to_string(),
                            detail: format!("non-object subject {other:?}"),
                        })
                    }
                };
                let (run, basis) = match (args.get(1), args.get(2)) {
                    (Some(Value::Obj(r)), Some(Value::Obj(b))) => (r.index, b.index),
                    other => {
                        return Err(AnalysisError::BadInstance {
                            property: prop.to_string(),
                            detail: format!("unexpected context {other:?}"),
                        })
                    }
                };
                let key: BatchKey = (prop.to_string(), run, basis);
                let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
                if !cache.contains_key(&key) {
                    let fixed = [(1usize, args[1].clone()), (2usize, args[2].clone())];
                    let bc = compile_batch(spec, schema, prop, 0, &fixed, None).map_err(sql)?;
                    let outcomes = eval_batch(db, &bc).map_err(sql)?;
                    cache.insert(key.clone(), outcomes.into_iter().collect());
                }
                let by_id = &cache[&key];
                Ok(Some(by_id.get(&subject.index).cloned().unwrap_or(
                    // Absent from the batch result: the conditions filtered
                    // it server-side — the property does not hold here.
                    PropertyOutcome {
                        property: prop.to_string(),
                        holds: false,
                        fired: Vec::new(),
                        confidence: 0.0,
                        severity: 0.0,
                    },
                )))
            }
        }
    }
}
