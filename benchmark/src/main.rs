//! `kojak-benchmark` — the repo benchmark. One command generates the
//! inputs from `--seed`, runs fixed-work passes on one pinned CPU, checks
//! every output against an independent oracle, and prints every metric by
//! name with its unit; the last line of standard output is the result
//! object `BENCHMARK.json` describes. See `README.md` beside this crate.

mod corpus;
mod fingerprint;
mod gen;
mod json;
mod oracle;
mod probes;
mod run;
mod selfcheck;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use run::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Name, SetUpArgs};

const USAGE: &str = "\
usage: kojak-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
       kojak-benchmark --bless [--workload <name>]
       kojak-benchmark --self-check [--seed <n>] [--seconds <s>]

  --workload    batch_full | online_refresh | tcp_durable_ingest | spec_frontend
                (default: all four, one after the other)
  --seed        input seed (default 1; seeds 1 and 2 have committed expectations)
  --seconds     measurement budget per workload: fixed-work passes repeat until
                it is used up, never fewer than 9 (default: BENCHMARK.json's run_seconds)
  --trace       0: end-to-end metrics; 1: traced passes + layer probes, writes
                out/trace-<workload>.json (default 0)
  --bless       recompute the interpreter oracle for seeds 1 and 2 and rewrite expected/
  --self-check  run two full sets on this build and compare them against the bounds";

/// The benchmark's own directory (`expected/`, `out/` live here).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
pub struct BenchmarkJson {
    pub run_seconds: f64,
    /// name → bound, as a share of the median (lower is better for all).
    pub end_to_end: Vec<(String, f64)>,
    /// name → unit.
    pub per_layer: Vec<(String, String)>,
}

pub fn benchmark_json() -> Result<BenchmarkJson, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = (|| {
        let end_to_end = json
            .get("end_to_end")?
            .as_arr()?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let per_layer = json
            .get("per_layer")?
            .as_arr()?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(BenchmarkJson {
            run_seconds: json.get("run_seconds")?.as_f64()?,
            end_to_end,
            per_layer,
        })
    })();
    parsed.ok_or_else(|| format!("{}: not a benchmark description", path.display()))
}

/// What the run is pinned to.
pub struct Host {
    /// CPUs the process was allowed before pinning.
    pub nproc: usize,
    /// The one CPU it runs on.
    pub cpu: usize,
}

enum Mode {
    Run,
    Bless,
    SelfCheck,
}

struct Cli {
    mode: Mode,
    workload: Option<Name>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload =
                    Some(Name::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?,
                );
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                };
            }
            "--bless" => cli.mode = Mode::Bless,
            "--self-check" => cli.mode = Mode::SelfCheck,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Pin to one CPU and read the restriction back.
fn pin() -> Result<Host, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = sys::pin_to_first_allowed_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    match std::thread::available_parallelism().map(|n| n.get()) {
        Ok(1) => Ok(Host { nproc, cpu }),
        other => Err(format!(
            "pinned to cpu {cpu} but available parallelism reads {other:?}"
        )),
    }
}

/// The workload asked for, or all four.
fn selected(workload: Option<Name>) -> impl Iterator<Item = Name> {
    Name::ALL
        .into_iter()
        .filter(move |n| workload.is_none_or(|w| w == *n))
}

fn bless(workload: Option<Name>) -> Result<(), String> {
    for name in selected(workload) {
        for seed in oracle::BLESSED_SEEDS {
            let set = workloads::set_up(
                name,
                SetUpArgs {
                    seed,
                    bless: true,
                    cache: &mut None,
                },
            )?;
            // The engine under test must agree with what was just blessed.
            let pass = set.workload.pass(0, &mut trace::Tracer::off())?;
            println!(
                "blessed {} seed {seed}: canary {:016x}, oracle {:.2}s, engine check: {} of {} operations failed",
                name.as_str(),
                set.workload.canary(),
                set.oracle_s,
                pass.failed,
                pass.attempted
            );
            if let Some(first) = pass.first_failure {
                return Err(format!("{} seed {seed}: {first}", name.as_str()));
            }
        }
    }
    Ok(())
}

/// Run the selected workloads one after the other; `Ok(true)` when every
/// operation of every one verified.
fn run_workloads(cli: &Cli, host: &Host) -> Result<bool, String> {
    let seconds = match cli.seconds {
        Some(s) => s,
        None => benchmark_json()?.run_seconds,
    };
    let mut all_correct = true;
    for workload in selected(cli.workload) {
        let result = run::run(
            &RunArgs {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
            },
            host,
        )?;
        result.print();
        println!("{}", result.contract_line());
        all_correct &= result.correct();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = match pin() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.mode {
        Mode::Bless => bless(cli.workload).map(|()| true),
        Mode::SelfCheck => selfcheck::run(cli.seed, cli.seconds),
        Mode::Run => run_workloads(&cli, &host),
    };
    // Scratch directories remove themselves; drop the empty parent too.
    let _ = std::fs::remove_dir(bench_dir().join("out").join("tmp"));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let c = cli(&[
            "--workload",
            "online_refresh",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Name::OnlineRefresh));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(10.0), true));
    }

    #[test]
    fn unknown_flags_workloads_and_values_are_usage_errors() {
        for bad in [
            &["--unknown-flag"][..],
            &["--workload", "batch"],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["stray"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
