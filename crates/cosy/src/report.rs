//! Text rendering of analysis reports — the presentation the paper's §3
//! describes: "The performance properties are ranked according to their
//! severity and presented to the application programmer."

use crate::analyzer::AnalysisReport;
use std::fmt::Write;

/// Render a fixed-width text table of the ranked properties.
pub fn render_text(report: &AnalysisReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "COSY analysis: program `{}`, {} PEs (reference: {} PEs)",
        report.program, report.no_pe, report.reference_pe
    );
    let _ = writeln!(
        out,
        "basis duration {:.3} s (summed over processes); total cost {:.1}% of basis",
        report.basis_duration,
        report.total_cost * 100.0
    );
    let _ = writeln!(
        out,
        "problem threshold: severity > {:.1}% | {} contexts quiet/skipped",
        report.threshold.0 * 100.0,
        report.skipped
    );
    out.push('\n');

    let header = ["rank", "property", "context", "severity", "conf", "problem"];
    let mut rows: Vec<[String; 6]> = Vec::with_capacity(report.entries.len());
    for e in &report.entries {
        rows.push([
            e.rank.to_string(),
            e.property.to_string(),
            e.context.label.to_string(),
            format!("{:8.4}%", e.severity * 100.0),
            format!("{:.2}", e.confidence),
            if e.is_problem { "YES" } else { "-" }.to_string(),
        ]);
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let print_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    };
    print_row(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &rows {
        print_row(&mut out, row);
    }
    out.push('\n');
    match report.bottleneck() {
        Some(b) if b.is_problem => {
            let _ = writeln!(
                out,
                "bottleneck: {} at {} (severity {:.2}%) — tuning recommended",
                b.property,
                b.context.label,
                b.severity * 100.0
            );
        }
        Some(b) => {
            let _ = writeln!(
                out,
                "bottleneck: {} at {} (severity {:.2}%) — below threshold, \
                 no further tuning needed",
                b.property,
                b.context.label,
                b.severity * 100.0
            );
        }
        None => {
            let _ = writeln!(out, "no property holds: nothing to tune");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{Analyzer, ProblemThreshold};
    use crate::backend::Backend;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};

    #[test]
    fn report_renders_ranked_table() {
        let mut store = perfdata::Store::new();
        let model = archetypes::particle_mc(3);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        let report = Analyzer::new(&store, version)
            .unwrap()
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let text = render_text(&report);
        assert!(text.contains("COSY analysis"), "{text}");
        assert!(text.contains("SublinearSpeedup") || text.contains("SyncCost"));
        assert!(text.contains("bottleneck:"));
        // Ranked table is aligned: the header line is as long as the rule.
        assert!(text.lines().any(|l| l.starts_with("rank")));
    }

    #[test]
    fn empty_report_renders_gracefully() {
        // A minimal hand-built store: one overhead-free run of one region.
        use perfdata::{DateTime, RegionKind, Store};
        let mut store = Store::new();
        let p = store.add_program("quiet");
        let version = store.add_version(p, DateTime::from_secs(0), "");
        let run = store.add_run(version, DateTime::from_secs(1), 1, 450);
        let f = store.add_function(version, "main");
        let root = store.add_region(f, None, RegionKind::Subprogram, "main", (1, 10));
        store.add_total_timing(root, run, 1.0, 1.0, 0.0);
        let report = Analyzer::new(&store, version)
            .unwrap()
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let text = render_text(&report);
        // Nothing holds: no overhead, reference run compared with itself.
        assert!(text.contains("no property holds"), "{text}");
    }
}
