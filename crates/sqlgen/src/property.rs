//! Property compilation and SQL-side evaluation.
//!
//! A property instance (property name + context arguments) compiles into a
//! bundle of scalar `SELECT` statements — one per condition and one per
//! confidence/severity arm. Evaluating the bundle runs entirely inside the
//! database; only single scalar values cross the connection, which is the
//! §5 insight ("It is a significant advantage to translate the conditions
//! of performance properties entirely into SQL queries").

use crate::compile::{CVal, ExprCompiler};
use crate::error::{SqlGenError, SqlGenResult};
use crate::loader::to_sql_value;
use crate::schema::SchemaInfo;
use asl_core::ast::{Expr, Ident, PropertyDecl};
use asl_core::check::CheckedSpec;
use asl_eval::{PropertyOutcome, Value as EvalValue};
use reldb::remote::Connection;
use reldb::sql::ast::{SelectItem, SelectStmt, SqlExpr};
use reldb::sql::render::render_select;
use reldb::value::Value;
use reldb::{Database, DbError, QueryResult};
use std::collections::HashMap;

/// One compiled scalar query with an optional guard (condition id).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScalar {
    /// Guarding condition id (`None` = always applicable).
    pub guard: Option<String>,
    /// The scalar SELECT.
    pub select: SelectStmt,
}

impl CompiledScalar {
    /// Render as SQL text.
    pub fn sql(&self) -> String {
        render_select(&self.select)
    }
}

/// A property compiled for one specific context.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProperty {
    /// Property name.
    pub name: String,
    /// One query per condition, with its id.
    pub conditions: Vec<CompiledScalar>,
    /// Confidence arms.
    pub confidence: Vec<CompiledScalar>,
    /// Severity arms.
    pub severity: Vec<CompiledScalar>,
}

impl CompiledProperty {
    /// All SQL statements of the bundle (for inspection / logging).
    pub fn all_sql(&self) -> Vec<String> {
        self.conditions
            .iter()
            .chain(&self.confidence)
            .chain(&self.severity)
            .map(CompiledScalar::sql)
            .collect()
    }
}

/// Bind one context argument: an object is its id, a scalar its literal.
pub(crate) fn bind_value(v: &EvalValue) -> SqlGenResult<CVal> {
    match v {
        EvalValue::Obj(o) => Ok(CVal::Obj {
            class: o.class.as_str().to_string(),
            expr: SqlExpr::Lit(Value::Int(o.index as i64)),
        }),
        EvalValue::Set(_) | EvalValue::Null => Err(SqlGenError::Unsupported(format!(
            "cannot bind {v} as a property argument"
        ))),
        scalar => Ok(CVal::Scalar(SqlExpr::Lit(to_sql_value(scalar)?))),
    }
}

/// A condition id or arm guard with the scalar compiled for it.
pub(crate) type Guarded = (Option<String>, SqlExpr);

/// A property body compiled in one environment.
pub(crate) struct CompiledBody {
    pub(crate) conditions: Vec<Guarded>,
    pub(crate) confidence: Vec<Guarded>,
    pub(crate) severity: Vec<Guarded>,
}

/// Compile a property's body with its parameters bound in `env` — the one
/// walk behind per-context and batch compilation. `LET` definitions are
/// bound as compiled values, user functions are inlined. The order (lets,
/// conditions, confidence, severity) fixes the alias numbering.
pub(crate) fn compile_body(
    spec: &CheckedSpec,
    schema: &SchemaInfo,
    prop: &PropertyDecl,
    mut env: HashMap<String, CVal>,
) -> SqlGenResult<CompiledBody> {
    let mut cx = ExprCompiler::new(spec, schema);
    for l in &prop.lets {
        let v = cx.compile(&l.value, &env, 0)?;
        env.insert(l.name.name.clone(), v);
    }
    let mut guarded = |guard: Option<&Ident>, e: &Expr| match cx.compile(e, &env, 0)? {
        CVal::Scalar(s) => Ok((guard.map(|g| g.name.clone()), s)),
        _ => Err(SqlGenError::Unsupported(
            "condition or confidence/severity arm is not scalar".into(),
        )),
    };
    Ok(CompiledBody {
        conditions: (prop.conditions.iter())
            .map(|c| guarded(c.id.as_ref(), &c.expr))
            .collect::<SqlGenResult<_>>()?,
        confidence: (prop.confidence.arms.iter())
            .map(|a| guarded(a.guard.as_ref(), &a.expr))
            .collect::<SqlGenResult<_>>()?,
        severity: (prop.severity.arms.iter())
            .map(|a| guarded(a.guard.as_ref(), &a.expr))
            .collect::<SqlGenResult<_>>()?,
    })
}

/// Compile a property for one context (`args` bound to its parameters, in
/// order) into one scalar `SELECT` per condition and arm.
pub fn compile_property(
    spec: &CheckedSpec,
    schema: &SchemaInfo,
    name: &str,
    args: &[EvalValue],
) -> SqlGenResult<CompiledProperty> {
    let prop = spec
        .property(name)
        .ok_or_else(|| SqlGenError::UnknownName(format!("property `{name}`")))?;
    if args.len() != prop.params.len() {
        return Err(SqlGenError::Unsupported(format!(
            "property `{name}` expects {} arguments, got {}",
            prop.params.len(),
            args.len()
        )));
    }
    let mut env = HashMap::new();
    for (p, a) in prop.params.iter().zip(args) {
        env.insert(p.name.name.clone(), bind_value(a)?);
    }
    let body = compile_body(spec, schema, prop, env)?;
    let selects = |exprs: Vec<Guarded>| -> Vec<CompiledScalar> {
        exprs
            .into_iter()
            .map(|(guard, expr)| CompiledScalar {
                guard,
                select: SelectStmt {
                    items: vec![SelectItem { expr, alias: None }],
                    ..Default::default()
                },
            })
            .collect()
    };
    Ok(CompiledProperty {
        name: name.to_string(),
        conditions: selects(body.conditions),
        confidence: selects(body.confidence),
        severity: selects(body.severity),
    })
}

/// How a scalar query result maps to a boolean: NULL is false (the SQL
/// dialect note in `reldb::exec`), matching "condition does not indicate
/// the property".
fn scalar_to_bool(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Int(i) => *i != 0,
        _ => false,
    }
}

/// Shared outcome assembly once each query has produced its scalar.
pub(crate) fn assemble(
    name: &str,
    cond_vals: Vec<(Option<String>, Value)>,
    conf_vals: Vec<(Option<String>, Value)>,
    sev_vals: Vec<(Option<String>, Value)>,
) -> PropertyOutcome {
    let fired: Vec<(Option<String>, bool)> = cond_vals
        .into_iter()
        .map(|(id, v)| (id, scalar_to_bool(&v)))
        .collect();
    let holds = fired.iter().any(|(_, b)| *b);
    if !holds {
        return PropertyOutcome {
            property: name.to_string(),
            holds: false,
            fired,
            confidence: 0.0,
            severity: 0.0,
        };
    }
    let applicable = |guard: &Option<String>| match guard {
        None => true,
        Some(g) => fired
            .iter()
            .any(|(id, b)| *b && id.as_deref() == Some(g.as_str())),
    };
    let pick = |vals: &[(Option<String>, Value)]| -> f64 {
        let mut best: Option<f64> = None;
        for (guard, v) in vals {
            if !applicable(guard) {
                continue;
            }
            if let Some(x) = v.as_f64() {
                best = Some(best.map_or(x, |b: f64| b.max(x)));
            }
        }
        best.unwrap_or(0.0)
    };
    let confidence = pick(&conf_vals).clamp(0.0, 1.0);
    let severity = pick(&sev_vals);
    PropertyOutcome {
        property: name.to_string(),
        holds: true,
        fired,
        confidence,
        severity,
    }
}

/// Run the bundle's queries through `run` — conditions first, the arms only
/// when one of them holds (severity of a non-holding property is 0 by
/// definition, and an arm may divide by zero there) — and assemble the
/// interpreter-compatible outcome.
fn eval_with(
    cp: &CompiledProperty,
    mut run: impl FnMut(&str) -> Result<QueryResult, DbError>,
) -> SqlGenResult<PropertyOutcome> {
    let mut run_all = |queries: &[CompiledScalar]| {
        let mut vals = Vec::with_capacity(queries.len());
        for cs in queries {
            let sql = cs.sql();
            let r = run(&sql)?;
            let Some(v) = r.scalar() else {
                return Err(SqlGenError::Result(format!(
                    "query `{sql}` returned {} rows",
                    r.rows.len()
                )));
            };
            vals.push((cs.guard.clone(), v.clone()));
        }
        Ok(vals)
    };
    let cond_vals = run_all(&cp.conditions)?;
    let (conf_vals, sev_vals) = if cond_vals.iter().any(|(_, v)| scalar_to_bool(v)) {
        (run_all(&cp.confidence)?, run_all(&cp.severity)?)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(assemble(&cp.name, cond_vals, conf_vals, sev_vals))
}

/// Evaluate a compiled property against an embedded database (no cost
/// model) and produce the interpreter-compatible outcome.
pub fn eval_compiled(db: &Database, cp: &CompiledProperty) -> SqlGenResult<PropertyOutcome> {
    eval_with(cp, |sql| db.query(sql))
}

/// Evaluate a compiled property through a cost-charging [`Connection`]
/// (virtual network + server costs apply; used by the E4/E7 experiments).
pub fn eval_compiled_conn(
    conn: &mut Connection,
    cp: &CompiledProperty,
) -> SqlGenResult<PropertyOutcome> {
    eval_with(cp, |sql| conn.execute(sql))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader;
    use crate::schema::generate_schema;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};
    use asl_core::parse_and_check;
    use asl_eval::{CosyData, Interpreter, COSY_DATA_MODEL};
    use perfdata::Store;

    const PAPER_PROPERTIES: &str = r#"
        float ImbalanceThreshold = 0.25;

        Property SublinearSpeedup(Region r, TestRun t, Region Basis) {
            LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
                    MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
                float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run)
            IN
            CONDITION: TotalCost>0; CONFIDENCE: 1;
            SEVERITY: TotalCost/Duration(Basis,t);
        }

        Property MeasuredCost (Region r, TestRun t, Region Basis) {
            LET float Cost = Summary(r,t).Ovhd;
            IN CONDITION: Cost > 0; CONFIDENCE: 1;
            SEVERITY: Cost / Duration(Basis,t);
        }

        Property SyncCost(Region r, TestRun t, Region Basis) {
            LET float Barrier2 = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
                    AND tt.Type == Barrier);
            IN CONDITION: Barrier2 > 0; CONFIDENCE: 1;
            SEVERITY: Barrier2 / Duration(Basis,t);
        }

        Property LoadImbalance(FunctionCall Call, TestRun t, Region Basis) {
            LET CallTiming ct = UNIQUE ({c IN Call.Sums WITH c.Run == t});
                float Dev = ct.StdevTime;
                float Mean = ct.MeanTime;
            IN CONDITION: Dev > ImbalanceThreshold * Mean; CONFIDENCE: 1;
            SEVERITY: Mean / Duration(Basis,t);
        }
    "#;

    struct Fixture {
        store: Store,
        version: perfdata::VersionId,
        spec: asl_core::check::CheckedSpec,
        schema: SchemaInfo,
        db: Database,
    }

    fn fixture() -> Fixture {
        let mut store = Store::new();
        let model = archetypes::particle_mc(17);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
        let src = format!("{COSY_DATA_MODEL}\n{PAPER_PROPERTIES}");
        let spec = parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src)));
        let schema = generate_schema(&spec.model).unwrap();
        let mut db = Database::new();
        schema.create_all(&mut db).unwrap();
        let data = CosyData::new(&store);
        loader::load_store(&mut db, &schema, &spec.model, &data).unwrap();
        Fixture {
            store,
            version,
            spec,
            schema,
            db,
        }
    }

    #[test]
    fn paper_properties_evaluate_in_sql() {
        let f = fixture();
        let runs = f.store.versions[f.version.index()].runs.clone();
        let main = f.store.main_region(f.version).unwrap();
        let big_run = runs[2];
        let args = vec![
            EvalValue::region(main),
            EvalValue::run(big_run),
            EvalValue::region(main),
        ];
        let cp = compile_property(&f.spec, &f.schema, "SublinearSpeedup", &args).unwrap();
        let o = eval_compiled(&f.db, &cp).unwrap();
        assert!(o.holds, "main region must lose cycles at 16 PEs");
        assert!(o.severity > 0.0);
        assert_eq!(o.confidence, 1.0);
    }

    #[test]
    fn sql_and_interpreter_agree_on_all_contexts() {
        let f = fixture();
        let data = CosyData::new(&f.store);
        let interp = Interpreter::new(&f.spec, &data).unwrap();
        let runs = f.store.versions[f.version.index()].runs.clone();
        let main = f.store.main_region(f.version).unwrap();

        let mut contexts = 0;
        let mut holding = 0;
        for prop in ["SublinearSpeedup", "MeasuredCost", "SyncCost"] {
            for region_idx in 0..f.store.regions.len() {
                for &run in &runs {
                    let args = vec![
                        EvalValue::obj("Region", region_idx as u32),
                        EvalValue::run(run),
                        EvalValue::region(main),
                    ];
                    let sql_outcome = compile_property(&f.spec, &f.schema, prop, &args)
                        .and_then(|cp| eval_compiled(&f.db, &cp))
                        .unwrap();
                    match interp.eval_property(prop, &args) {
                        Ok(int_outcome) => {
                            contexts += 1;
                            assert_eq!(
                                int_outcome.holds, sql_outcome.holds,
                                "{prop} region {region_idx} run {run}"
                            );
                            if int_outcome.holds {
                                holding += 1;
                                assert!(
                                    (int_outcome.severity - sql_outcome.severity).abs()
                                        < 1e-9 * int_outcome.severity.abs().max(1.0),
                                    "{prop}: severities differ: {} vs {}",
                                    int_outcome.severity,
                                    sql_outcome.severity
                                );
                                assert_eq!(int_outcome.confidence, sql_outcome.confidence);
                            }
                        }
                        Err(e) if e.is_not_applicable() => {
                            // Interpreter: not applicable; SQL returns
                            // holds=false (NULL comparisons). Both report no
                            // problem.
                            assert!(
                                !sql_outcome.holds,
                                "{prop}: SQL reported a problem on a not-applicable context"
                            );
                        }
                        Err(e) => panic!("{prop}: interpreter error {e}"),
                    }
                }
            }
        }
        assert!(contexts > 20, "cross-checked {contexts} contexts");
        assert!(holding > 5, "some contexts must hold ({holding} did)");
    }

    #[test]
    fn load_imbalance_agrees_on_barrier_calls() {
        let f = fixture();
        let data = CosyData::new(&f.store);
        let interp = Interpreter::new(&f.spec, &data).unwrap();
        let runs = f.store.versions[f.version.index()].runs.clone();
        let main = f.store.main_region(f.version).unwrap();
        let barrier_fn = f
            .store
            .functions
            .iter()
            .position(|fun| fun.name == "barrier")
            .unwrap();
        let calls = f.store.functions[barrier_fn].calls.clone();
        assert!(!calls.is_empty());
        let mut any_held = false;
        for call in calls {
            for &run in &runs {
                let args = vec![
                    EvalValue::call(call),
                    EvalValue::run(run),
                    EvalValue::region(main),
                ];
                let sql_outcome = compile_property(&f.spec, &f.schema, "LoadImbalance", &args)
                    .and_then(|cp| eval_compiled(&f.db, &cp))
                    .unwrap();
                match interp.eval_property("LoadImbalance", &args) {
                    Ok(o) => {
                        assert_eq!(o.holds, sql_outcome.holds);
                        any_held |= o.holds;
                    }
                    Err(e) if e.is_not_applicable() => assert!(!sql_outcome.holds),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        assert!(any_held, "particle_mc at 16 PEs must show load imbalance");
    }

    #[test]
    fn compiled_sql_is_parseable_text() {
        let f = fixture();
        let main = f.store.main_region(f.version).unwrap();
        let run = f.store.versions[f.version.index()].runs[1];
        let cp = compile_property(
            &f.spec,
            &f.schema,
            "SyncCost",
            &[
                EvalValue::region(main),
                EvalValue::run(run),
                EvalValue::region(main),
            ],
        )
        .unwrap();
        for sql in cp.all_sql() {
            reldb::sql::parse_statement(&sql)
                .unwrap_or_else(|e| panic!("generated SQL does not parse: {sql}\n{e}"));
        }
        assert_eq!(cp.conditions.len(), 1);
        assert_eq!(cp.severity.len(), 1);
    }

    #[test]
    fn severity_queries_skipped_when_not_holding() {
        // A property that never holds: its severity query division by the
        // possibly-zero denominator must never run.
        let f = fixture();
        let src = format!(
            "{COSY_DATA_MODEL}\n
            PROPERTY Never(Region r, TestRun t) {{
                CONDITION: 1 > 2;
                CONFIDENCE: 1;
                SEVERITY: 1.0 / 0.0;
            }}"
        );
        let spec = parse_and_check(&src).unwrap();
        let schema = generate_schema(&spec.model).unwrap();
        let main = f.store.main_region(f.version).unwrap();
        let run = f.store.versions[f.version.index()].runs[0];
        let cp = compile_property(
            &spec,
            &schema,
            "Never",
            &[EvalValue::region(main), EvalValue::run(run)],
        )
        .unwrap();
        let o = eval_compiled(&f.db, &cp).unwrap();
        assert!(!o.holds);
        assert_eq!(o.severity, 0.0);
    }
}
