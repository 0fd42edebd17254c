//! The §5 evaluation strategies, instrumented with virtual costs.
//!
//! * **naive client** — the strategy the paper argues against: "first
//!   accessing the data components and evaluating the expressions in the
//!   analysis tool". The tool navigates the object model on demand; every
//!   object it touches during an evaluation is one record access over the
//!   connection (statement + round trip + row fetch + marshalling) — the
//!   access pattern behind the "fetching a record … takes about 1 ms"
//!   remark.
//! * **bulk client** — a modernized client: prefetch the analyzed run's
//!   dynamic tables with four cursors, then evaluate locally. Not in the
//!   paper; included as an honest upper bound for client-side designs.
//! * **SQL per-context** — compile each (property, context) pair into
//!   scalar queries executed server-side.
//! * **SQL batched** — one query per property covering all contexts, only
//!   holding rows returned (the fully automated version of "translate the
//!   conditions entirely into SQL").
//!
//! All strategies must produce the same set of holding (property, context,
//! severity) triples; [`StrategyResult::fingerprint`] is compared by tests.
//! Which instances exist is the [`Analyzer`]'s decision
//! ([`Analyzer::families`]); the strategies differ in how they evaluate
//! them.

use asl_eval::{CosyData, Interpreter, ObjRef, ObjectModel, Value};
use asl_sql::{
    compile_batch, compile_property, eval_batch_conn, property::eval_compiled_conn, SchemaInfo,
};
use cosy::Analyzer;
use perfdata::{Store, TestRunId};
use reldb::remote::{ApiBinding, BackendProfile, Connection};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Outcome of running one strategy.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Virtual seconds charged to the connection.
    pub virtual_secs: f64,
    /// Records fetched over the wire (client strategy) or returned by
    /// queries (SQL strategies).
    pub records: usize,
    /// Queries/statements issued.
    pub statements: usize,
    /// Holding (property, context-id, severity) triples.
    pub held: Vec<(String, u32, f64)>,
}

impl StrategyResult {
    /// A canonical fingerprint for cross-strategy comparison.
    pub fn fingerprint(&self) -> Vec<(String, u32, i64)> {
        let mut v: Vec<(String, u32, i64)> = self
            .held
            .iter()
            // Severities quantized to 1e-9 to absorb float formatting.
            .map(|(p, c, s)| (p.clone(), *c, (s / 1e-9).round() as i64))
            .collect();
        v.sort();
        v
    }
}

/// An [`ObjectModel`] wrapper counting distinct record accesses per
/// evaluation — the cost model of an on-demand JDBC object mapper with a
/// per-evaluation cache.
struct CountingData<'a> {
    inner: CosyData<'a>,
    seen: RefCell<HashSet<(asl_core::Symbol, u32)>>,
    fetches: RefCell<HashMap<String, u64>>,
}

impl<'a> CountingData<'a> {
    fn new(store: &'a Store) -> Self {
        CountingData {
            inner: CosyData::new(store),
            seen: RefCell::new(HashSet::new()),
            fetches: RefCell::new(HashMap::new()),
        }
    }

    /// Start a fresh evaluation (the mapper's cache is per evaluation).
    fn reset_eval(&self) {
        self.seen.borrow_mut().clear();
    }
}

impl ObjectModel for CountingData<'_> {
    fn attr(&self, obj: &ObjRef, attr: &str) -> asl_eval::error::EvalResult<Value> {
        if self.seen.borrow_mut().insert((obj.class, obj.index)) {
            *self
                .fetches
                .borrow_mut()
                .entry(obj.class.as_str().to_string())
                .or_default() += 1;
        }
        self.inner.attr(obj, attr)
    }

    fn extent(&self, class: &str) -> Option<usize> {
        self.inner.extent(class)
    }
}

/// Naive client strategy (the paper's §5 strawman): evaluate in the tool,
/// fetching every data component on demand — each touched object is one
/// point `SELECT … WHERE id = ?` over the connection.
pub fn client_naive(
    profile: &BackendProfile,
    binding: &ApiBinding,
    store: &Store,
    analyzer: &Analyzer<'_>,
    schema: &SchemaInfo,
    run: TestRunId,
) -> Result<StrategyResult, String> {
    let data = CountingData::new(store);
    let basis = analyzer.basis();
    let mut held = Vec::new();
    {
        let interp = Interpreter::new(analyzer.spec(), &data).map_err(|e| e.to_string())?;
        for family in analyzer.families() {
            let prop = family.property.as_str();
            for &id in family.subjects.iter() {
                data.reset_eval();
                let args = [family.subject(id), Value::run(run), Value::region(basis)];
                match interp.eval_property(prop, &args) {
                    Ok(o) if o.holds && o.severity > 0.0 => {
                        held.push((prop.to_string(), id, o.severity))
                    }
                    Ok(_) => {}
                    Err(e) if e.is_not_applicable() => {}
                    Err(e) => return Err(format!("{prop}: {e}")),
                }
            }
        }
    }
    // Charge the access cost: each record access is a point query by
    // primary key (statement parse + plan + round trip + one row).
    let mut virtual_secs = 0.0;
    let mut records = 0usize;
    for (class, n) in data.fetches.borrow().iter() {
        let arity = schema.table(class).map(|t| t.arity()).unwrap_or(4);
        let per_record = profile.network_rtt
            + profile.stmt_parse
            + profile.query_base
            + profile.row_fetch
            + binding.call_cost(arity);
        virtual_secs += *n as f64 * per_record;
        records += *n as usize;
    }
    Ok(StrategyResult {
        virtual_secs,
        records,
        statements: records,
        held,
    })
}

/// Bulk client strategy: prefetch the analyzed run's dynamic records with
/// four cursors, then interpret locally.
pub fn client_side(
    conn: &mut Connection,
    store: &Store,
    analyzer: &Analyzer<'_>,
    run: TestRunId,
) -> Result<StrategyResult, String> {
    let t0 = conn.elapsed();
    let run_id = run.0;
    let version = store.runs[run.index()].version;
    let mut records = 0usize;
    let mut statements = 0usize;
    // The tool pulls every record of the run it analyzes (plus the
    // reference run for SublinearSpeedup) record-at-a-time, as COSY's JDBC
    // access did.
    let ref_run = store.min_pe_run(version).map(|r| r.0).unwrap_or(run_id);
    for table in [
        format!("SELECT id, Run_id, Excl, Incl, Ovhd, TotTimes_owner FROM TotalTiming WHERE Run_id = {run_id} OR Run_id = {ref_run}"),
        format!("SELECT id, Run_id, Type, Time, TypTimes_owner FROM TypedTiming WHERE Run_id = {run_id}"),
        format!("SELECT id, Run_id, MeanCount, StdevCount, MeanTime, StdevTime, MinTime, MaxTime, Sums_owner FROM CallTiming WHERE Run_id = {run_id}"),
        "SELECT id, NoPe, Clockspeed FROM TestRun".to_string(),
    ] {
        statements += 1;
        let mut cur = conn.open_cursor(&table).map_err(|e| e.to_string())?;
        while cur.fetch().is_some() {
            records += 1;
        }
    }

    // Local evaluation (free on the virtual clock: the data is client-side
    // now; we read it from the store, which holds identical values).
    let data = CosyData::new(store);
    let interp = Interpreter::new(analyzer.spec(), data).map_err(|e| e.to_string())?;
    let basis = analyzer.basis();
    let mut held = Vec::new();
    for family in analyzer.families() {
        let prop = family.property.as_str();
        for &id in family.subjects.iter() {
            let args = [family.subject(id), Value::run(run), Value::region(basis)];
            match interp.eval_property(prop, &args) {
                Ok(o) if o.holds && o.severity > 0.0 => {
                    held.push((prop.to_string(), id, o.severity))
                }
                Ok(_) => {}
                Err(e) if e.is_not_applicable() => {}
                Err(e) => return Err(format!("{prop}: {e}")),
            }
        }
    }
    Ok(StrategyResult {
        virtual_secs: conn.elapsed() - t0,
        records,
        statements,
        held,
    })
}

/// SQL per-context strategy: scalar queries per (property, context).
pub fn sql_per_context(
    conn: &mut Connection,
    analyzer: &Analyzer<'_>,
    schema: &SchemaInfo,
    run: TestRunId,
) -> Result<StrategyResult, String> {
    let t0 = conn.elapsed();
    let (spec, basis) = (analyzer.spec(), analyzer.basis());
    let mut held = Vec::new();
    let mut statements = 0usize;
    let mut records = 0usize;
    for family in analyzer.families() {
        let prop = family.property.as_str();
        for &id in family.subjects.iter() {
            let args = [family.subject(id), Value::run(run), Value::region(basis)];
            let cp = compile_property(spec, schema, prop, &args).map_err(|e| e.to_string())?;
            statements += cp.conditions.len(); // arm queries counted on demand
            let o = eval_compiled_conn(conn, &cp).map_err(|e| e.to_string())?;
            records += 1;
            if o.holds && o.severity > 0.0 {
                statements += cp.confidence.len() + cp.severity.len();
                held.push((prop.to_string(), id, o.severity));
            }
        }
    }
    Ok(StrategyResult {
        virtual_secs: conn.elapsed() - t0,
        records,
        statements,
        held,
    })
}

/// SQL batched strategy: one query per property over all contexts.
pub fn sql_batched(
    conn: &mut Connection,
    analyzer: &Analyzer<'_>,
    schema: &SchemaInfo,
    run: TestRunId,
) -> Result<StrategyResult, String> {
    let t0 = conn.elapsed();
    let (spec, basis) = (analyzer.spec(), analyzer.basis());
    let fixed = [(1usize, Value::run(run)), (2usize, Value::region(basis))];
    let mut held = Vec::new();
    let mut statements = 0usize;
    let mut records = 0usize;
    for family in analyzer.families() {
        let (prop, ids) = (family.property.as_str(), &family.subjects);
        if ids.is_empty() {
            continue;
        }
        let bc =
            compile_batch(spec, schema, prop, 0, &fixed, Some(ids)).map_err(|e| e.to_string())?;
        statements += 1;
        let outcomes = eval_batch_conn(conn, &bc).map_err(|e| e.to_string())?;
        records += outcomes.len();
        for (id, o) in outcomes {
            if o.holds && o.severity > 0.0 {
                held.push((prop.to_string(), id, o.severity));
            }
        }
    }
    Ok(StrategyResult {
        virtual_secs: conn.elapsed() - t0,
        records,
        statements,
        held,
    })
}
