//! E4 — §5 work distribution: client-side evaluation vs full SQL
//! translation.
//!
//! Paper: "The overall performance depends very much on the work
//! distribution between the client and the database. It is a significant
//! advantage to translate the conditions of performance properties entirely
//! into SQL queries instead of first accessing the data components and
//! evaluating the expressions in the analysis tool."

use crate::data;
use crate::experiments::strategies::{client_naive, client_side, sql_batched, sql_per_context};
use crate::table::Table;
use cosy::Analyzer;
use reldb::remote::{connection::share, ApiBinding, BackendProfile, Connection};
use std::sync::Arc;

/// One program scale of the comparison.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Instrumented regions of the analyzed program.
    pub regions: usize,
    /// Dynamic rows in the database.
    pub db_rows: usize,
    /// Records accessed by the naive client.
    pub naive_records: usize,
    /// Naive client cost — the paper's strawman (virtual ms).
    pub naive_ms: f64,
    /// Bulk-prefetch client cost (virtual ms).
    pub client_ms: f64,
    /// SQL per-context strategy cost (virtual ms).
    pub per_context_ms: f64,
    /// SQL batched strategy cost (virtual ms).
    pub batched_ms: f64,
    /// Whether all strategies agreed on the held properties.
    pub agreed: bool,
}

/// Run the comparison across program sizes (Oracle 7 over JDBC, the
/// paper's primary setup). `scales` are generator function counts; region
/// counts grow roughly proportionally.
pub fn run(scales: &[usize]) -> Vec<E4Row> {
    let mut out = Vec::new();
    for &scale in scales {
        let (store, version) = data::generated_store(scale, &[1, 4, 16, 64]);
        let (spec, schema, db) = data::loaded_database(&store);
        let analyzer = Analyzer::with_spec(&store, version, Arc::new(spec)).expect("analyzer");
        let shared = share(db);
        let run = *store.versions[version.index()].runs.last().unwrap();

        let naive = client_naive(
            &BackendProfile::oracle7(),
            &ApiBinding::jdbc(),
            &store,
            &analyzer,
            &schema,
            run,
        )
        .expect("naive client");

        let mut conn = Connection::connect(
            shared.clone(),
            BackendProfile::oracle7(),
            ApiBinding::jdbc(),
        );
        let client = client_side(&mut conn, &store, &analyzer, run).expect("client");

        let mut conn = Connection::connect(
            shared.clone(),
            BackendProfile::oracle7(),
            ApiBinding::jdbc(),
        );
        let per_ctx = sql_per_context(&mut conn, &analyzer, &schema, run).expect("per-ctx");

        let mut conn = Connection::connect(shared, BackendProfile::oracle7(), ApiBinding::jdbc());
        let batched = sql_batched(&mut conn, &analyzer, &schema, run).expect("batched");

        let agreed = client.fingerprint() == per_ctx.fingerprint()
            && client.fingerprint() == batched.fingerprint()
            && client.fingerprint() == naive.fingerprint();

        out.push(E4Row {
            regions: store.regions.len(),
            db_rows: data::dynamic_row_count(&store),
            naive_records: naive.records,
            naive_ms: naive.virtual_secs * 1e3,
            client_ms: client.virtual_secs * 1e3,
            per_context_ms: per_ctx.virtual_secs * 1e3,
            batched_ms: batched.virtual_secs * 1e3,
            agreed,
        });
    }
    out
}

/// Render the E4 table.
pub fn render(rows: &[E4Row]) -> String {
    let mut t = Table::new(&[
        "regions",
        "db rows",
        "records",
        "naive client [ms]",
        "bulk client [ms]",
        "SQL/ctx [ms]",
        "SQL/batch [ms]",
        "advantage",
        "agree",
    ]);
    for r in rows {
        t.row(vec![
            r.regions.to_string(),
            r.db_rows.to_string(),
            r.naive_records.to_string(),
            format!("{:.1}", r.naive_ms),
            format!("{:.1}", r.client_ms),
            format!("{:.1}", r.per_context_ms),
            format!("{:.1}", r.batched_ms),
            format!("{:.1}x", r.naive_ms / r.batched_ms),
            if r.agreed { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.render()
}

/// The §5 claim: translating conditions entirely into SQL is a significant
/// advantage over accessing the data components and evaluating in the tool
/// — and the advantage grows with program size.
pub fn check_claims(rows: &[E4Row]) -> Result<(), String> {
    for r in rows {
        if !r.agreed {
            return Err(format!("{} regions: strategies disagreed", r.regions));
        }
        if r.batched_ms >= r.naive_ms {
            return Err(format!(
                "{} regions: batched SQL ({:.1} ms) did not beat on-demand client \
                 evaluation ({:.1} ms)",
                r.regions, r.batched_ms, r.naive_ms
            ));
        }
    }
    if let Some(last) = rows.last() {
        let adv = last.naive_ms / last.batched_ms;
        if adv < 5.0 {
            return Err(format!(
                "advantage at the largest program only {adv:.1}x (expected \"significant\")"
            ));
        }
    }
    Ok(())
}
