//! The `harness` command-line contract: which experiments a flag list
//! selects, that an argument outside the table is refused, that the paper
//! reproduction prints what it always printed, and what E13 leaves behind.

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

/// E2–E7 run on the virtual clock only, so their output is a function of
/// the SQL path's cost model and nothing else. The golden was captured
/// from the binary of the commit before the E9–E12 removal; a PR that
/// changes it is changing the paper reproduction and must say so.
#[test]
fn paper_reproduction_matches_the_golden() {
    let out = harness(&["--e2", "--e3", "--e4", "--e5", "--e6", "--e7"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/e2_e7.txt");
    for (n, (got, want)) in stdout.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from golden/e2_e7.txt", n + 1);
    }
    assert_eq!(stdout, golden, "line count or trailing bytes differ");
}

/// E9–E12 were retired in favour of `benchmark/`; their flags are plain
/// unknown arguments now, not aliases.
#[test]
fn retired_experiment_flags_are_refused() {
    let usage = "valid flags (none = run all): --e1 --e2 --e3 --e4 --e5 --e6 --e7 --e8 --e13";
    for flag in ["--e9", "--e10", "--e11", "--e12"] {
        let out = harness(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().last(), Some(usage), "{stderr}");
    }
}

/// The one wall-clock experiment left: it must run to a verdict (0 held,
/// 1 failed on this host — a noisy neighbour is not a test failure) and
/// leave `BENCH_e13.json` with its field names in the working directory.
#[test]
fn e13_writes_its_json_where_it_runs() {
    let dir = std::env::temp_dir().join(format!("kojak-harness-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("--e13")
        .current_dir(&dir)
        .output()
        .expect("spawn harness");
    let json = std::fs::read_to_string(dir.join("BENCH_e13.json"));
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{stderr}");
    assert_eq!(banners(&out), ["== E13"]);
    let json = json.expect("BENCH_e13.json written");
    for key in [
        "events",
        "cores",
        "stages",
        "enabled_ns_per_event",
        "disabled_ns_per_event",
        "overhead_pct",
        "max_overhead_pct",
    ] {
        assert!(
            json.contains(&format!("\"{key}\": ")),
            "no `{key}` in {json}"
        );
    }
}
