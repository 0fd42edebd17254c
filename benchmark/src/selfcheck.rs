//! `--self-check`: two full sets of runs of this same build, compared
//! against the bounds in `BENCHMARK.json` (an A/A test). Each run is a
//! child process of this executable, exactly as the driver starts it, so
//! peak memory and set-up are per run, not per set.

use crate::json::Json;
use crate::workloads::Name;
use std::collections::BTreeMap;
use std::process::Command;

/// One child run; returns its metrics by name.
fn child(
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.as_str()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let what = format!("{} --trace {}", workload.as_str(), u8::from(trace));
    if !output.status.success() {
        return Err(format!(
            "{what} exited with {}:\n{}{}",
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(line).map_err(|e| format!("{what}: result line: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{what}: not correct: {line}"));
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err(format!("{what}: no metrics in {line}"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{what}: metric {name} has no value"))
        })
        .collect()
}

type Set = BTreeMap<(Name, bool), BTreeMap<String, f64>>;

fn one_set(label: &str, seed: u64, seconds: f64) -> Result<Set, String> {
    let mut set = Set::new();
    for workload in Name::ALL {
        for trace in [false, true] {
            eprintln!(
                "set {label}: {} --trace {}",
                workload.as_str(),
                u8::from(trace)
            );
            set.insert((workload, trace), child(workload, seed, seconds, trace)?);
        }
    }
    Ok(set)
}

/// Run sets A and B; `Ok(true)` when every end-to-end pair agrees within
/// its bound and every exact count repeats.
pub fn run(seed: u64, seconds: Option<f64>) -> Result<bool, String> {
    let bench = crate::benchmark_json()?;
    let seconds = seconds.unwrap_or(bench.run_seconds);
    let a = one_set("A", seed, seconds)?;
    let b = one_set("B", seed, seconds)?;

    let mut agree = true;
    let mut rows = Vec::new();
    println!(
        "{:<20} {:<20} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "A", "B", "diff %", "bound %"
    );
    for workload in Name::ALL {
        for (metric, bound) in &bench.end_to_end {
            let (Some(va), Some(vb)) = (
                a[&(workload, false)].get(metric),
                b[&(workload, false)].get(metric),
            ) else {
                return Err(format!("{}: no metric {metric}", workload.as_str()));
            };
            // Lower is better for every end-to-end metric; the pair
            // disagrees when either side is worse than the other by more
            // than the bound.
            let diff = (va - vb).abs() / va.min(*vb);
            let ok = diff <= *bound;
            agree &= ok;
            println!(
                "{:<20} {:<20} {:>12.4} {:>12.4} {:>8.2} {:>7.1}{}",
                workload.as_str(),
                metric,
                va,
                vb,
                100.0 * diff,
                100.0 * bound,
                if ok { "" } else { "  DISAGREE" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.as_str())),
                ("metric", Json::str(metric.as_str())),
                ("a", (*va).into()),
                ("b", (*vb).into()),
                ("diff", diff.into()),
                ("bound", (*bound).into()),
                ("agree", ok.into()),
            ]));
        }
    }
    let mut count_rows = Vec::new();
    let mut counts_repeat = true;
    for workload in Name::ALL {
        for (metric, unit) in bench.per_layer.iter().filter(|(_, unit)| unit == "count") {
            let va = a[&(workload, true)].get(metric);
            let vb = b[&(workload, true)].get(metric);
            if va.is_none() || va != vb {
                counts_repeat = false;
                println!(
                    "{:<20} {metric}: count differs between sets: {va:?} vs {vb:?}  DISAGREE",
                    workload.as_str()
                );
            }
            count_rows.push(Json::obj([
                ("workload", Json::str(workload.as_str())),
                ("metric", Json::str(metric.as_str())),
                ("unit", Json::str(unit.as_str())),
                ("a", va.copied().map_or(Json::Null, Json::from)),
                ("b", vb.copied().map_or(Json::Null, Json::from)),
            ]));
        }
    }
    println!(
        "exact counts: {} (workload, metric) pairs compared; {}",
        count_rows.len(),
        if counts_repeat {
            "all repeat"
        } else {
            "NOT all repeat"
        }
    );
    agree &= counts_repeat;
    let doc = Json::obj([
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("agree", agree.into()),
        ("end_to_end", Json::Arr(rows)),
        ("exact_counts", Json::Arr(count_rows)),
    ]);
    let dir = crate::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("aa.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(agree)
}
