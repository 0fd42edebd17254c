//! The `harness` command-line contract: which experiments a flag list
//! selects, and that an argument outside the table is refused.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

/// The experiment banners (`== E…`) of a run, in print order.
fn banners(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("== E"))
        .map(|l| l.split(':').next().unwrap_or(l).to_string())
        .collect()
}

#[test]
fn unknown_flag_is_refused_before_anything_runs() {
    let out = harness(&["--e1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`--bogus`"), "{stderr}");
    assert!(
        stderr.contains("--e1") && stderr.contains("--e13"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run or claim success");
}

#[test]
fn one_flag_runs_one_experiment() {
    let out = harness(&["--e1"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(banners(&out), ["== E1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.ends_with("all checked paper claims reproduced\n"));
}

#[test]
fn several_flags_run_in_table_order() {
    let out = harness(&["--e3", "--e2"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(banners(&out), ["== E2", "== E3"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for exp in ["E2", "E3"] {
        assert!(stdout.contains(&format!("[{exp}] paper-shape claims hold")));
    }
}
