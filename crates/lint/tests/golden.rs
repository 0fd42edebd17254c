//! Golden-file tests: one `.asl` fixture per rule family under
//! `tests/golden/`, each checked against a blessed text report
//! (`render_text`) and a blessed JSON report (`to_json`).
//!
//! Every fixture is linted with the COSY data model prepended, exactly as
//! `cosy_lint --with-suite` would do for a standalone property file, so
//! the performance rules see the store's real `(owner, Run)` indexes and
//! spans/line numbers in the goldens are offsets into the combined
//! source.
//!
//! To bless new output after an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p kojak-lint --test golden
//! ```

use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_golden(path: &Path, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("missing golden file {path:?}; run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {path:?}; run with UPDATE_GOLDEN=1 to bless"
    );
}

fn run_fixture(name: &str) {
    let dir = golden_dir();
    let fixture = std::fs::read_to_string(dir.join(format!("{name}.asl"))).unwrap();
    let source = format!("{}\n{fixture}", asl_eval::COSY_DATA_MODEL);
    let report = match lint::lint_source(&source) {
        Ok(r) => r,
        Err(d) => panic!("fixture {name} does not check:\n{}", d.render(&source)),
    };
    check_golden(
        &dir.join(format!("{name}.txt")),
        &report.render_text(&source),
    );
    check_golden(&dir.join(format!("{name}.json")), &report.to_json(&source));
}

#[test]
fn golden_unused() {
    run_fixture("unused");
}

#[test]
fn golden_shadow() {
    run_fixture("shadow");
}

#[test]
fn golden_arms() {
    run_fixture("arms");
}

#[test]
fn golden_divzero() {
    run_fixture("divzero");
}

#[test]
fn golden_perf() {
    run_fixture("perf");
}

/// Blessed on the commit before the three performance rules were folded
/// into one typed walk: binder attribution under nesting, shadowing and a
/// `LET`-bound source must not move.
#[test]
fn golden_perf_nested() {
    run_fixture("perf_nested");
}

#[test]
fn golden_allow() {
    run_fixture("allow");
}

/// Regression pin for the cost lints: a two-key `Run == t AND Type == X`
/// filter over an indexed set is flagged (the `Type ==` test runs per
/// element after the indexed load), while the structurally identical
/// single-key filter — served entirely by the store's `FilterEq` index —
/// stays quiet.
#[test]
fn two_key_filter_flagged_filtereq_equivalent_quiet() {
    let prop = |filter: &str| {
        format!(
            "{}\nProperty P(Region r, TestRun t, Region Basis) {{\n\
             LET float X = SUM(tt.Time WHERE tt IN r.TypTimes AND {filter})\n\
             IN CONDITION: X > 0; CONFIDENCE: 1;\n\
             SEVERITY: X / Duration(Basis, t); }}",
            asl_eval::COSY_DATA_MODEL
        )
    };

    let two_key = prop("tt.Run == t AND tt.Type == Barrier");
    let report = lint::lint_source(&two_key).unwrap();
    let residual: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "residual-filter-scan")
        .collect();
    assert_eq!(residual.len(), 1, "{}", report.render_text(&two_key));
    assert!(
        residual[0].message.contains("Type"),
        "finding names the residual key: {}",
        residual[0].message
    );

    let one_key = prop("tt.Run == t");
    let report = lint::lint_source(&one_key).unwrap();
    assert!(
        report.is_clean(),
        "FilterEq-served filter must stay quiet:\n{}",
        report.render_text(&one_key)
    );
}

#[test]
fn golden_flow_unreachable() {
    run_fixture("flow_unreachable");
}

#[test]
fn golden_flow_units() {
    run_fixture("flow_units");
}

#[test]
fn golden_flow_subsumed() {
    run_fixture("flow_subsumed");
}

/// Keys are structural: a constant named `p0` is not parameter 0, binder
/// names do not matter, and a guard on a LET's body guards the LET.
#[test]
fn golden_flow_keys() {
    run_fixture("flow_keys");
}

#[test]
fn golden_unused_allow() {
    run_fixture("unused_allow");
}

/// `lint_with` survives only as a shim whose flag is ignored: either value
/// renders exactly what `lint` does, in text and JSON.
#[test]
fn lint_with_ignores_its_flag() {
    let divzero = std::fs::read_to_string(golden_dir().join("divzero.asl")).unwrap();
    let sources = [
        cosy::suite::standard_suite_source(),
        format!("{}\n{divzero}", asl_eval::COSY_DATA_MODEL),
    ];
    for source in &sources {
        let spec = asl_core::parse_and_check(source).unwrap();
        let reference = lint::lint(&spec, source);
        for flag in [false, true] {
            let shim = lint::lint_with(&spec, source, flag);
            assert_eq!(shim.render_text(source), reference.render_text(source));
            assert_eq!(shim.to_json(source), reference.to_json(source));
        }
    }
}
