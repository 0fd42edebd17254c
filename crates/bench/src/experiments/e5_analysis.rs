//! E5 — the COSY analysis product (§3/§4): the severity-ranked property
//! list with problem flags and the bottleneck, for each archetype.

use crate::table::Table;
use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::{Analyzer, Backend, ProblemThreshold};
use perfdata::Store;

/// The per-archetype analysis output.
#[derive(Debug, Clone)]
pub struct E5Result {
    /// Application name.
    pub app: String,
    /// Rendered COSY report.
    pub report_text: String,
    /// Bottleneck property name.
    pub bottleneck: Option<String>,
    /// Number of performance problems.
    pub problems: usize,
    /// Whether the compiled, interpreter and SQL backends produced the
    /// same ranking.
    pub backends_agree: bool,
}

/// Run the full analysis for every archetype at 64 PEs. The compiled IR is
/// the production engine; the interpreter oracle and the SQL translation
/// are evaluated alongside and must agree.
pub fn run() -> Vec<E5Result> {
    let machine = MachineModel::t3e_900();
    let mut out = Vec::new();
    for model in archetypes::all(42) {
        let mut store = Store::new();
        let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16, 64]);
        let run = *store.versions[version.index()].runs.last().unwrap();
        let analyzer = Analyzer::new(&store, version).expect("analyzer");
        let a = analyzer
            .analyze(run, Backend::Compiled, ProblemThreshold::default())
            .expect("compiled analysis");
        let oracle = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .expect("interpreter analysis");
        let b = analyzer
            .analyze(run, Backend::Sql, ProblemThreshold::default())
            .expect("sql analysis");
        // Compiled vs interpreter: identical arithmetic, exact equality.
        let agree = a == oracle
            && a.entries.len() == b.entries.len()
            && a.entries.iter().zip(&b.entries).all(|(x, y)| {
                x.property == y.property
                    && x.context.label == y.context.label
                    && (x.severity - y.severity).abs() <= 1e-9 * x.severity.abs().max(1.0)
            });
        out.push(E5Result {
            app: model.name.clone(),
            report_text: cosy::report::render_text(&a),
            bottleneck: a.bottleneck().map(|e| e.property.to_string()),
            problems: a.problems().count(),
            backends_agree: agree,
        });
    }
    out
}

/// Render every ranked report, then the E5 summary table.
pub fn render(results: &[E5Result]) -> String {
    let reports: String = (results.iter())
        .map(|r| format!("{}\n", r.report_text))
        .collect();
    let mut t = Table::new(&["application", "bottleneck", "problems", "backends agree"]);
    for r in results {
        t.row(vec![
            r.app.clone(),
            r.bottleneck.clone().unwrap_or_else(|| "-".to_string()),
            r.problems.to_string(),
            if r.backends_agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    reports + &t.render()
}

/// Expected bottleneck signatures per archetype.
pub fn check_claims(results: &[E5Result]) -> Result<(), String> {
    for r in results {
        if !r.backends_agree {
            return Err(format!("{}: backends disagree", r.app));
        }
        if r.bottleneck.is_none() {
            return Err(format!("{}: no bottleneck found at 64 PEs", r.app));
        }
        if r.problems == 0 {
            return Err(format!("{}: no problems at 64 PEs", r.app));
        }
    }
    Ok(())
}
