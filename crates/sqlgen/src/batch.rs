//! Whole-context-set compilation: one query per property.
//!
//! Per-context compilation ([`crate::property`]) issues a handful of scalar
//! queries per (property, context) pair. For an analysis over hundreds of
//! regions that still means hundreds of round trips. This module compiles a
//! property **once over a context family**: the family parameter (e.g. the
//! `Region r`) becomes the driving table of a single `SELECT` that returns,
//! per candidate object, its id, every condition value and every
//! confidence/severity arm value — all correlated subqueries evaluated
//! server-side. The client receives one small result set per property, the
//! end point of the §5 argument.
//!
//! Requirements (all satisfied by the standard suite, checked at compile
//! time where possible):
//!
//! * exactly one parameter is the family parameter; the others are fixed;
//! * arm expressions must be *total* over the family (no division by zero
//!   on rows where the property does not hold) — NULLs from empty `UNIQUE`
//!   / `MIN` propagate harmlessly into "does not hold".

use crate::compile::CVal;
use crate::error::{SqlGenError, SqlGenResult};
use crate::property::{assemble, bind_value, compile_body, Guarded};
use crate::schema::SchemaInfo;
use asl_core::check::CheckedSpec;
use asl_core::types::Type;
use asl_eval::{PropertyOutcome, Value as EvalValue};
use reldb::remote::Connection;
use reldb::sql::ast::{SelectItem, SelectStmt, SqlBinOp, SqlExpr, TableRef};
use reldb::sql::render::render_select;
use reldb::value::Value;
use reldb::Database;
use std::collections::HashMap;

/// A property compiled over a whole context family.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCompiled {
    /// Property name.
    pub name: String,
    /// The single query: `id`, conditions…, confidence arms…, severity
    /// arms… per candidate object.
    pub select: SelectStmt,
    /// Condition guards (ids), in item order.
    pub condition_ids: Vec<Option<String>>,
    /// Confidence arm guards, in item order.
    pub confidence_guards: Vec<Option<String>>,
    /// Severity arm guards, in item order.
    pub severity_guards: Vec<Option<String>>,
}

impl BatchCompiled {
    /// Render the query as SQL text.
    pub fn sql(&self) -> String {
        render_select(&self.select)
    }
}

/// Compile `name` over all objects of its `family_param`-th parameter's
/// class. `fixed` binds every other parameter (by index). `candidates`
/// optionally restricts the family to specific object ids (e.g. barrier
/// calls only).
pub fn compile_batch(
    spec: &CheckedSpec,
    schema: &SchemaInfo,
    name: &str,
    family_param: usize,
    fixed: &[(usize, EvalValue)],
    candidates: Option<&[u32]>,
) -> SqlGenResult<BatchCompiled> {
    let prop = spec
        .property(name)
        .ok_or_else(|| SqlGenError::UnknownName(format!("property `{name}`")))?;
    let sig = &spec.model.properties[name];
    if family_param >= prop.params.len() {
        return Err(SqlGenError::Unsupported(format!(
            "family parameter index {family_param} out of range"
        )));
    }
    let Type::Class(family_class) = &sig.params[family_param].1 else {
        return Err(SqlGenError::Unsupported(
            "family parameter must have a class type".into(),
        ));
    };

    let ctx_alias = "ctx".to_string();
    let mut env: HashMap<String, CVal> = HashMap::new();
    env.insert(
        prop.params[family_param].name.name.clone(),
        CVal::Row {
            class: family_class.clone(),
            alias: ctx_alias.clone(),
        },
    );
    for (idx, val) in fixed {
        if *idx == family_param || *idx >= prop.params.len() {
            return Err(SqlGenError::Unsupported(format!(
                "fixed parameter index {idx} invalid"
            )));
        }
        env.insert(prop.params[*idx].name.name.clone(), bind_value(val)?);
    }
    if env.len() != prop.params.len() {
        return Err(SqlGenError::Unsupported(format!(
            "property `{name}` needs {} parameters bound, got {}",
            prop.params.len(),
            env.len()
        )));
    }
    let body = compile_body(spec, schema, prop, env)?;

    // The server returns only *holding* rows: the disjunction of all
    // conditions filters everything else before it crosses the wire — the
    // actual payoff of translating conditions into SQL (§5). Rows for
    // non-holding contexts are simply absent from the result.
    let holds_filter = (body.conditions.iter())
        .map(|(_, expr)| expr.clone())
        .reduce(|a, b| SqlExpr::Binary(SqlBinOp::Or, Box::new(a), Box::new(b)));
    let candidate_filter = candidates.map(|ids| {
        SqlExpr::InList(
            Box::new(SqlExpr::col(Some(&ctx_alias), "id")),
            ids.iter()
                .map(|id| SqlExpr::Lit(Value::Int(*id as i64)))
                .collect(),
        )
    });
    let where_ = match (candidate_filter, holds_filter) {
        (Some(a), Some(b)) => Some(SqlExpr::Binary(SqlBinOp::And, Box::new(a), Box::new(b))),
        (a, b) => a.or(b),
    };

    // Items: the context id, then every condition, confidence arm and
    // severity arm; the guards are kept aside in the same order.
    let mut items = vec![SelectItem {
        expr: SqlExpr::col(Some(&ctx_alias), "id"),
        alias: Some("ctx_id".to_string()),
    }];
    let mut push_items = |exprs: Vec<Guarded>| -> Vec<Option<String>> {
        let (guards, exprs): (Vec<_>, Vec<_>) = exprs.into_iter().unzip();
        items.extend(
            exprs
                .into_iter()
                .map(|expr| SelectItem { expr, alias: None }),
        );
        guards
    };
    let condition_ids = push_items(body.conditions);
    let confidence_guards = push_items(body.confidence);
    let severity_guards = push_items(body.severity);

    let select = SelectStmt {
        items,
        from: Some(TableRef {
            table: family_class.clone(),
            alias: Some(ctx_alias.clone()),
        }),
        where_,
        order_by: vec![SqlExpr::col(Some(&ctx_alias), "id")],
    };

    Ok(BatchCompiled {
        name: name.to_string(),
        select,
        condition_ids,
        confidence_guards,
        severity_guards,
    })
}

fn decode_rows(bc: &BatchCompiled, rows: Vec<Vec<Value>>) -> Vec<(u32, PropertyOutcome)> {
    let nc = bc.condition_ids.len();
    let nf = bc.confidence_guards.len();
    let ns = bc.severity_guards.len();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        debug_assert_eq!(row.len(), 1 + nc + nf + ns);
        let id = row[0].as_i64().unwrap_or(-1);
        if id < 0 {
            continue;
        }
        let cond_vals: Vec<(Option<String>, Value)> = bc
            .condition_ids
            .iter()
            .cloned()
            .zip(row[1..1 + nc].iter().cloned())
            .collect();
        let conf_vals: Vec<(Option<String>, Value)> = bc
            .confidence_guards
            .iter()
            .cloned()
            .zip(row[1 + nc..1 + nc + nf].iter().cloned())
            .collect();
        let sev_vals: Vec<(Option<String>, Value)> = bc
            .severity_guards
            .iter()
            .cloned()
            .zip(row[1 + nc + nf..].iter().cloned())
            .collect();
        out.push((
            id as u32,
            assemble(&bc.name, cond_vals, conf_vals, sev_vals),
        ));
    }
    out
}

/// Run a batch-compiled property against an embedded database. Returns one
/// outcome per **holding** candidate object, ordered by object id —
/// non-holding contexts are filtered server-side and absent.
pub fn eval_batch(db: &Database, bc: &BatchCompiled) -> SqlGenResult<Vec<(u32, PropertyOutcome)>> {
    let r = db.query(&bc.sql())?;
    Ok(decode_rows(bc, r.rows))
}

/// Run a batch-compiled property through a cost-charging connection.
pub fn eval_batch_conn(
    conn: &mut Connection,
    bc: &BatchCompiled,
) -> SqlGenResult<Vec<(u32, PropertyOutcome)>> {
    let r = conn.execute(&bc.sql())?;
    Ok(decode_rows(bc, r.rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader;
    use crate::property::{compile_property, eval_compiled};
    use crate::schema::generate_schema;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};
    use asl_core::parse_and_check;
    use asl_eval::{CosyData, COSY_DATA_MODEL};
    use perfdata::Store;

    const PROPS: &str = r#"
        Property SyncCost(Region r, TestRun t, Region Basis) {
            LET float Barrier2 = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
                    AND tt.Type == Barrier)
            IN CONDITION: Barrier2 > 0; CONFIDENCE: 1;
            SEVERITY: Barrier2 / Duration(Basis,t);
        }
        Property MeasuredCost (Region r, TestRun t, Region Basis) {
            LET float Cost = Summary(r,t).Ovhd
            IN CONDITION: Cost > 0; CONFIDENCE: 1;
            SEVERITY: Cost / Duration(Basis,t);
        }
    "#;

    fn fixture() -> (
        Store,
        perfdata::VersionId,
        asl_core::check::CheckedSpec,
        SchemaInfo,
        Database,
    ) {
        let mut store = Store::new();
        let model = archetypes::particle_mc(9);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 8]);
        let src = format!("{COSY_DATA_MODEL}\n{PROPS}");
        let spec = parse_and_check(&src).unwrap();
        let schema = generate_schema(&spec.model).unwrap();
        let mut db = Database::new();
        schema.create_all(&mut db).unwrap();
        let data = CosyData::new(&store);
        loader::load_store(&mut db, &schema, &spec.model, &data).unwrap();
        (store, version, spec, schema, db)
    }

    #[test]
    fn batch_agrees_with_per_context_compilation() {
        let (store, version, spec, schema, db) = fixture();
        let run = store.versions[version.index()].runs[1];
        let main = store.main_region(version).unwrap();
        let fixed = [
            (1usize, EvalValue::run(run)),
            (2usize, EvalValue::region(main)),
        ];
        for prop in ["SyncCost", "MeasuredCost"] {
            let bc = compile_batch(&spec, &schema, prop, 0, &fixed, None).unwrap();
            let batch: std::collections::HashMap<u32, _> =
                eval_batch(&db, &bc).unwrap().into_iter().collect();
            let mut holding = 0;
            for id in 0..store.regions.len() as u32 {
                let args = vec![
                    EvalValue::obj("Region", id),
                    EvalValue::run(run),
                    EvalValue::region(main),
                ];
                let single = compile_property(&spec, &schema, prop, &args)
                    .and_then(|cp| eval_compiled(&db, &cp))
                    .unwrap();
                match batch.get(&id) {
                    Some(outcome) => {
                        // Batch returns only holding rows.
                        assert!(single.holds, "{prop} region {id} in batch but not holding");
                        assert!(outcome.holds);
                        holding += 1;
                        assert!(
                            (single.severity - outcome.severity).abs() < 1e-12,
                            "{prop} region {id}: {} vs {}",
                            single.severity,
                            outcome.severity
                        );
                    }
                    None => assert!(!single.holds, "{prop} region {id} missing from batch"),
                }
            }
            assert!(holding > 0, "{prop}: some region must hold");
        }
    }

    #[test]
    fn batch_is_one_query() {
        let (store, version, spec, schema, _) = fixture();
        let run = store.versions[version.index()].runs[1];
        let main = store.main_region(version).unwrap();
        let bc = compile_batch(
            &spec,
            &schema,
            "SyncCost",
            0,
            &[(1, EvalValue::run(run)), (2, EvalValue::region(main))],
            None,
        )
        .unwrap();
        let sql = bc.sql();
        assert!(sql.starts_with("SELECT ctx.id AS ctx_id"), "{sql}");
        assert!(sql.contains("FROM Region ctx"), "{sql}");
        reldb::sql::parse_statement(&sql).expect("batch SQL parses");
    }

    #[test]
    fn candidate_restriction() {
        let (store, version, spec, schema, db) = fixture();
        let run = store.versions[version.index()].runs[1];
        let main = store.main_region(version).unwrap();
        let wanted = [0u32, 2u32];
        let bc = compile_batch(
            &spec,
            &schema,
            "MeasuredCost",
            0,
            &[(1, EvalValue::run(run)), (2, EvalValue::region(main))],
            Some(&wanted),
        )
        .unwrap();
        let rows = eval_batch(&db, &bc).unwrap();
        // Only wanted candidates may appear (holding ones).
        assert!(rows.iter().all(|(id, _)| wanted.contains(id)));
        assert!(!rows.is_empty(), "main region must have measured cost");
    }

    #[test]
    fn wrong_family_binding_is_error() {
        let (_, _, spec, schema, _) = fixture();
        assert!(compile_batch(&spec, &schema, "SyncCost", 9, &[], None).is_err());
        // Missing fixed params.
        assert!(compile_batch(&spec, &schema, "SyncCost", 0, &[], None).is_err());
    }
}
