//! E7 (ablation) — when does each work distribution win?
//!
//! §5 observes that the right split between client and database depends on
//! the setup. This ablation varies the backend (networked Oracle vs
//! in-process Access) and the database size, and reports all three
//! strategies. Expected shape: the batched SQL translation wins everywhere
//! it matters (networked server, growing data); the client strategy is
//! competitive only when the database is tiny and local (no round trips to
//! amortize).

use crate::data;
use crate::experiments::strategies::{client_naive, client_side, sql_batched, sql_per_context};
use crate::table::Table;
use cosy::Analyzer;
use reldb::remote::{connection::share, ApiBinding, BackendProfile, Connection};
use std::sync::Arc;

/// One cell of the ablation grid.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Backend name.
    pub backend: &'static str,
    /// Instrumented regions of the analyzed program.
    pub regions: usize,
    /// Naive (on-demand) client strategy (virtual ms).
    pub naive_ms: f64,
    /// Bulk-prefetch client strategy (virtual ms).
    pub client_ms: f64,
    /// Per-context SQL (virtual ms).
    pub per_context_ms: f64,
    /// Batched SQL (virtual ms).
    pub batched_ms: f64,
}

impl E7Row {
    /// Name of the cheapest strategy.
    pub fn winner(&self) -> &'static str {
        let mut best = ("naive client", self.naive_ms);
        for (name, v) in [
            ("bulk client", self.client_ms),
            ("SQL/ctx", self.per_context_ms),
            ("SQL/batch", self.batched_ms),
        ] {
            if v < best.1 {
                best = (name, v);
            }
        }
        best.0
    }
}

/// Run the grid over generated program sizes (`scales` = generator
/// function counts).
pub fn run(scales: &[usize]) -> Vec<E7Row> {
    let mut out = Vec::new();
    for &scale in scales {
        let (store, version) = data::generated_store(scale, &[1, 4, 16, 64]);
        let (spec, schema, db) = data::loaded_database(&store);
        let analyzer = Analyzer::with_spec(&store, version, Arc::new(spec)).expect("analyzer");
        let shared = share(db);
        let run = *store.versions[version.index()].runs.last().unwrap();

        for (profile, binding) in [
            (BackendProfile::oracle7(), ApiBinding::jdbc()),
            (BackendProfile::msaccess(), ApiBinding::native_c()),
        ] {
            let naive = client_naive(&profile, &binding, &store, &analyzer, &schema, run)
                .expect("naive client");
            let mut conn = Connection::connect(shared.clone(), profile.clone(), binding.clone());
            let client = client_side(&mut conn, &store, &analyzer, run).expect("client");
            let mut conn = Connection::connect(shared.clone(), profile.clone(), binding.clone());
            let per_ctx = sql_per_context(&mut conn, &analyzer, &schema, run).expect("per-ctx");
            let mut conn = Connection::connect(shared.clone(), profile.clone(), binding.clone());
            let batched = sql_batched(&mut conn, &analyzer, &schema, run).expect("batched");
            assert_eq!(
                client.fingerprint(),
                batched.fingerprint(),
                "strategies must agree"
            );
            assert_eq!(
                naive.fingerprint(),
                batched.fingerprint(),
                "strategies must agree"
            );
            out.push(E7Row {
                backend: profile.name,
                regions: store.regions.len(),
                naive_ms: naive.virtual_secs * 1e3,
                client_ms: client.virtual_secs * 1e3,
                per_context_ms: per_ctx.virtual_secs * 1e3,
                batched_ms: batched.virtual_secs * 1e3,
            });
        }
    }
    out
}

/// Render the grid.
pub fn render(rows: &[E7Row]) -> String {
    let mut t = Table::new(&[
        "backend",
        "regions",
        "naive client [ms]",
        "bulk client [ms]",
        "SQL/ctx [ms]",
        "SQL/batch [ms]",
        "winner",
    ]);
    for r in rows {
        t.row(vec![
            r.backend.to_string(),
            r.regions.to_string(),
            format!("{:.2}", r.naive_ms),
            format!("{:.2}", r.client_ms),
            format!("{:.2}", r.per_context_ms),
            format!("{:.2}", r.batched_ms),
            r.winner().to_string(),
        ]);
    }
    t.render()
}

/// Shape claims of the ablation — "the overall performance depends very
/// much on the work distribution between the client and the database" (§5):
/// * batched SQL always beats per-context SQL;
/// * the naive on-demand client (the paper's strawman) always loses to the
///   batched translation;
/// * the in-process (MS Access) setup is far less sensitive to the choice
///   than the networked one — the spread between best and worst strategy
///   shrinks when round trips are free.
pub fn check_claims(rows: &[E7Row]) -> Result<(), String> {
    for r in rows {
        if r.batched_ms > r.per_context_ms {
            return Err(format!(
                "{} ({} regions): batching lost to per-context queries",
                r.backend, r.regions
            ));
        }
        if r.batched_ms >= r.naive_ms {
            return Err(format!(
                "{} ({} regions): naive client beat the batched translation",
                r.backend, r.regions
            ));
        }
    }
    // Spread comparison at the largest program size.
    let at_max = |prefix: &str| {
        rows.iter()
            .filter(|r| r.backend.starts_with(prefix))
            .max_by_key(|r| r.regions)
    };
    if let (Some(oracle), Some(access)) = (at_max("Oracle"), at_max("MS Access")) {
        let spread = |r: &E7Row| {
            let vals = [r.naive_ms, r.client_ms, r.per_context_ms, r.batched_ms];
            let max = vals.iter().cloned().fold(f64::MIN, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        if spread(access) >= spread(oracle) {
            return Err(format!(
                "expected the local setup to be less sensitive: spread {:.1}x (Access) \
                 vs {:.1}x (Oracle)",
                spread(access),
                spread(oracle)
            ));
        }
    }
    Ok(())
}
