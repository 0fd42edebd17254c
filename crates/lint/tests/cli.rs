//! End-to-end tests for the `cosy_lint` binary: the exit-code contract
//! (0 = clean, 1 = findings, 2 = front-end/IO/usage error), the flow
//! verdicts it always reports, and the JSON schema field.

use std::path::PathBuf;
use std::process::{Command, Output};

fn write_fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("cosy_lint_test_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cosy_lint"))
        .args(args)
        .output()
        .expect("spawn cosy_lint")
}

const CLEAN: &str = "class TestRun { int NoPe; }\n\
                     PROPERTY P(TestRun t) {\n\
                         CONDITION: t.NoPe > 0;\n\
                         CONFIDENCE: 1;\n\
                         SEVERITY: 1.0;\n\
                     }";

const DIRTY: &str = "class TestRun { int NoPe; }\n\
                     float Unused = 1.0;\n\
                     PROPERTY P(TestRun t) {\n\
                         LET int N = t.NoPe - t.NoPe;\n\
                         IN CONDITION: t.NoPe > 0;\n\
                         CONFIDENCE: 1;\n\
                         SEVERITY: 1.0 / N;\n\
                     }";

#[test]
fn exit_zero_on_clean_file() {
    let f = write_fixture("clean.asl", CLEAN);
    let out = run(&[f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint: clean"));
}

#[test]
fn exit_one_on_findings_with_flow_verdicts() {
    let f = write_fixture("dirty.asl", DIRTY);
    let out = run(&[f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    // The LET-resolved `N = t.NoPe - t.NoPe` denominator is proven, not
    // merely possible.
    assert!(text.contains("proven division by zero"), "{text}");
    assert!(text.contains("verdict: proven-div-by-zero"), "{text}");
}

/// The flow pass is the only tier: the switches that selected a tier are
/// usage errors now, like any other unknown flag.
#[test]
fn flow_switches_are_unknown_options() {
    let f = write_fixture("dirty_switch.asl", DIRTY);
    for flag in ["--flow", "--no-flow"] {
        let out = run(&[flag, f.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option `{flag}`")), "{err}");
    }
}

#[test]
fn json_output_carries_schema_and_verdicts() {
    let f = write_fixture("dirty_json.asl", DIRTY);
    let out = run(&["--json", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\":1"), "{json}");
    assert!(
        json.contains("\"verdict\":\"proven-div-by-zero\""),
        "{json}"
    );
}

#[test]
fn exit_two_on_missing_file_and_parse_error() {
    let out = run(&["/nonexistent/file.asl"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let f = write_fixture("broken.asl", "PROPERTY oops {");
    let out = run(&[f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = run(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn help_documents_the_exit_code_contract() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("EXIT CODES"), "{help}");
    assert!(!help.contains("-flow"), "{help}");
    let out = run(&["--rules"]);
    assert_eq!(out.status.code(), Some(0));
    let rules = String::from_utf8_lossy(&out.stdout);
    assert!(rules.contains("unit-mismatch"), "{rules}");
    assert!(rules.contains("subsumed-property"), "{rules}");
    assert!(rules.contains("unused-allow"), "{rules}");
}
