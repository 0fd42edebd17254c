//! The experiment harness: regenerates every table/figure/claim of the
//! paper (E1–E7), the incremental-vs-batch claim (E8) and the
//! instrumentation-overhead gate (E13), and prints paper-style tables.
//! E13 also emits machine-readable JSON (`BENCH_e13.json`). Every other
//! wall-clock question about the engine is answered by the benchmark of
//! record in `benchmark/` (README, "Measuring").
//!
//! ```sh
//! cargo run --release -p kojak-bench --bin harness            # all
//! cargo run --release -p kojak-bench --bin harness -- --e2    # one
//! ```
//!
//! Exit codes: 0 every checked claim holds, 1 a claim failed, 2 an
//! argument is not one of the flags below.

use kojak_bench::experiments::{
    e13_obs as e13, e1_parse as e1, e2_insert as e2, e3_fetch as e3, e4_client_vs_sql as e4,
    e5_analysis as e5, e6_cost_scaling as e6, e7_distribution as e7, e8_online as e8,
};

/// One experiment: its flag, its banner, how to run it, and what is printed
/// verbatim after it (the paper's statement and the separating blank line).
struct Experiment {
    flag: &'static str,
    banner: &'static str,
    run: fn() -> Outcome,
    footer: &'static str,
}

/// What one experiment hands back to the loop in `main`.
struct Outcome {
    /// The paper-style table(s).
    text: String,
    /// The claim check, for experiments that have one.
    claim: Option<Result<(), String>>,
    /// The machine-readable result, written to `BENCH_<experiment>.json`.
    json: Option<String>,
}

type Render<R> = fn(&R) -> String;
type Check<R> = fn(&R) -> Result<(), String>;
const E6_PES: &[u32] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Render and check a result with the experiment module's own functions.
fn checked<R: ?Sized>(render: Render<R>, check: Option<Check<R>>, result: &R) -> Outcome {
    Outcome {
        text: render(result),
        claim: check.map(|check| check(result)),
        json: None,
    }
}

/// Like [`checked`], and serialize the result for its `BENCH_*.json`.
fn tracked<R>(render: Render<R>, check: Check<R>, to_json: Render<R>, result: &R) -> Outcome {
    Outcome {
        json: Some(to_json(result)),
        ..checked(render, Some(check), result)
    }
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        flag: "--e1",
        banner: "== E1: ASL front-end (Figure 1 grammar) =====================================",
        run: || checked(e1::render, None, &e1::run()),
        footer: "",
    },
    Experiment {
        flag: "--e2",
        banner: "== E2: insertion across database backends (§5) ==============================",
        run: || checked(e2::render, Some(e2::check_claims), &e2::run(2)),
        footer:
            "paper: Oracle ~2x slower than MS SQL/Postgres; MS Access ~20x faster than Oracle\n\n",
    },
    Experiment {
        flag: "--e3",
        banner: "== E3: record fetch & API binding overhead (§5) =============================",
        run: || checked(e3::render, Some(e3::check_claims), &e3::run()),
        footer: "paper: fetching a record from Oracle ~1 ms; JDBC 2-4x slower than C\n\n",
    },
    Experiment {
        flag: "--e4",
        banner: "== E4: client-side evaluation vs SQL translation (§5) =======================",
        run: || checked(e4::render, Some(e4::check_claims), &e4::run(&[2, 6, 12])),
        footer:
            "paper: \"significant advantage to translate the conditions ... entirely into SQL\"\n\n",
    },
    Experiment {
        flag: "--e5",
        banner: "== E5: COSY ranked analysis (§3/§4) ==========================================",
        run: || checked(e5::render, Some(e5::check_claims), &e5::run()),
        footer: "\n",
    },
    Experiment {
        flag: "--e6",
        banner: "== E6: total cost vs processor count (§4.2 semantics) =======================",
        run: || checked(e6::render, Some(e6::check_claims), &e6::run(E6_PES)),
        footer: "\n",
    },
    Experiment {
        flag: "--e7",
        banner: "== E7: work-distribution ablation ===========================================",
        run: || checked(e7::render, Some(e7::check_claims), &e7::run(&[2, 10])),
        footer: "\n",
    },
    Experiment {
        flag: "--e8",
        banner: "== E8: online ingestion — incremental vs batch re-analysis ==================",
        run: || checked(e8::render, Some(e8::check_claims), &e8::run(50)),
        footer: "claim: single-run append ≥ 10x faster incrementally than full re-analysis\n\n",
    },
    Experiment {
        flag: "--e13",
        banner: "== E13: observability — stage latency breakdown + overhead gate =============",
        run: || tracked(e13::render, e13::check_claims, e13::to_json, &e13::run()),
        footer: "claim: every hot stage histogram is live at 1 and 4 shards; always-on \
                 instrumentation costs <= 3% ingest throughput\n\n",
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = (args.iter()).find(|a| EXPERIMENTS.iter().all(|e| e.flag != a.as_str())) {
        let flags: Vec<&str> = EXPERIMENTS.iter().map(|e| e.flag).collect();
        eprintln!("harness: unknown argument `{bad}`");
        eprintln!("valid flags (none = run all): {}", flags.join(" "));
        std::process::exit(2);
    }

    let mut failures = Vec::new();
    let wanted = |e: &&Experiment| args.is_empty() || args.iter().any(|a| a == e.flag);
    for exp in EXPERIMENTS.iter().filter(wanted) {
        println!("{}\n", exp.banner);
        let outcome = (exp.run)();
        println!("{}", outcome.text);
        let name = &exp.flag[2..];
        match outcome.claim {
            Some(Ok(())) => println!("[{}] paper-shape claims hold", name.to_uppercase()),
            Some(Err(e)) => {
                println!("[{}] CLAIM FAILED: {e}", name.to_uppercase());
                failures.push(format!("{}: {e}", name.to_uppercase()));
            }
            None => {}
        }
        if let Some(json) = outcome.json {
            let file = format!("BENCH_{name}.json");
            match std::fs::write(&file, &json) {
                Ok(()) => println!("wrote {file}"),
                Err(e) => println!("could not write {file}: {e}"),
            }
        }
        print!("{}", exp.footer);
    }

    if !failures.is_empty() {
        println!("CLAIM CHECK FAILURES:\n  {}", failures.join("\n  "));
        std::process::exit(1);
    }
    println!("all checked paper claims reproduced");
}
