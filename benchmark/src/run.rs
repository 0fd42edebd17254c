//! One run of one workload: repeated set-ups, each followed by its share
//! of the timed passes (or, with `--trace 1`, one set-up, alternating
//! untraced and traced passes, and the layer probes), and the metrics
//! that come out.
//!
//! A pass is fixed work, so the passes of a run differ only by what the
//! host added: on this shared VM neighbours slow passes by 20–90 % for
//! seconds to a minute at a time, and that only ever *adds* time. A run
//! therefore reports its **fastest** pass — the program's own cost, the
//! thing a change to the program moves — and prints the median and
//! quartiles of the passes beside it; the median over runs is the
//! driver's.

use crate::json::Json;
use crate::probes;
use crate::stats::{percentile, sorted, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Name, PassOutcome, SetUpArgs};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per untraced run, however short `--seconds` is.
const MIN_PASSES: usize = 9;
/// Passes of a traced run (half untraced, half traced).
const MIN_TRACE_PASSES: usize = 6;

pub struct RunArgs {
    pub workload: Name,
    pub seed: u64,
    /// Measurement budget: passes repeat until it is used up.
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Distribution of the samples behind `value`, when there are any.
    pub summary: Option<Summary>,
}

pub struct RunResult {
    pub workload: Name,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// Context lines for the print-out.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the benchmark contract.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", m.value.into()), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }

    /// Every metric by name, with unit and spread.
    pub fn print(&self) {
        println!("== {} ==", self.workload.as_str());
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            let spread = m.summary.map_or(String::new(), |s| {
                format!(
                    "  (n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4})",
                    s.n, s.min, s.q1, s.median, s.q3, s.max
                )
            });
            println!("  {:<44} {:>14.4} {}{spread}", m.name, m.value, m.unit);
        }
        println!(
            "  operations: {} attempted, {} failed{}",
            self.attempted,
            self.failed,
            self.first_failure
                .as_ref()
                .map_or(String::new(), |f| format!(" — first: {f}"))
        );
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Count a pass's operations; a pass that could not be carried
    /// through is one failed operation and yields no samples.
    fn add(&mut self, pass: Result<PassOutcome, String>) -> Option<PassOutcome> {
        match pass {
            Ok(pass) => {
                self.attempted += pass.attempted;
                self.failed += pass.failed;
                if self.first_failure.is_none() {
                    self.first_failure.clone_from(&pass.first_failure);
                }
                Some(pass)
            }
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }
}

/// A metric that is the median of its samples (`setup_s`).
fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples);
    Metric {
        name,
        value: summary.median,
        unit,
        summary: Some(summary),
    }
}

/// A timing over the passes: the least disturbed pass's.
fn fastest(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples);
    Metric {
        name,
        value: summary.min,
        unit,
        summary: Some(summary),
    }
}

fn scalar(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        summary: None,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(crate::bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn run(args: &RunArgs, host: &crate::Host) -> Result<RunResult, String> {
    let name = args.workload;
    let mut tally = Tally::default();
    let mut cache = None;
    let mut setup_s = Vec::new();
    let mut oracle_s = 0.0;
    let mut oracle_from = "";
    let mut set = None;
    let rss_before_inputs = sys::rss_mb();
    let mut input_rss_mb = 0.0;
    let mut untraced: Vec<PassOutcome> = Vec::new();
    let mut traced: Vec<PassOutcome> = Vec::new();
    let mut last_trace = None;
    let (rounds, min_passes, budget) = if args.trace {
        (1, MIN_TRACE_PASSES, args.seconds / 2.0)
    } else {
        (SETUPS, MIN_PASSES, args.seconds)
    };
    let mut measured_s = 0.0;
    let mut pass_no = 0;
    // Set-ups and passes alternate — each set-up is followed by its share
    // of the passes — so the passes sample the whole length of the run,
    // not only its end: a neighbour's burst outlasts fewer runs.
    for round in 1..=rounds {
        // Free the previous inputs first: set-ups repeat, they do not stack.
        drop(set.take());
        let t = Instant::now();
        let s = workloads::set_up(
            name,
            SetUpArgs {
                seed: args.seed,
                bless: false,
                cache: &mut cache,
            },
        )?;
        if round == 1 {
            input_rss_mb = (sys::rss_mb() - rss_before_inputs).max(0.0);
            oracle_from = s.oracle_from;
        }
        tally.add(s.workload.pass(0, &mut Tracer::off()));
        setup_s.push(t.elapsed().as_secs_f64() - s.oracle_s);
        oracle_s += s.oracle_s;

        let share = round as f64 / rounds as f64;
        while (pass_no as f64) < min_passes as f64 * share || measured_s < budget * share {
            pass_no += 1;
            let t = Instant::now();
            if args.trace && pass_no % 2 == 0 {
                let mut tracer = Tracer::on();
                traced.extend(tally.add(s.workload.pass(pass_no, &mut tracer)));
                last_trace = Some(tracer);
            } else {
                untraced.extend(tally.add(s.workload.pass(pass_no, &mut Tracer::off())));
            }
            measured_s += t.elapsed().as_secs_f64();
        }
        set = Some(s);
    }
    let workload = set.expect("at least one set-up ran").workload;

    let wall: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    // Latency percentiles are taken per pass and the fastest pass's is
    // reported, like every other timing: disturbed passes move no metric.
    let per_pass: Vec<Vec<f64>> = untraced
        .iter()
        .map(|p| sorted(&p.latencies_ms.iter().map(|(_, ms)| *ms).collect::<Vec<_>>()))
        .filter(|samples| !samples.is_empty())
        .collect();
    let pass_percentile =
        |q: f64| -> Vec<f64> { per_pass.iter().map(|s| percentile(s, q)).collect() };
    let samples: usize = per_pass.iter().map(Vec::len).sum();
    let mut notes = vec![
        format!(
            "seed {}  canary {:016x}  events/pass {}  passes {} ({} latency samples)",
            args.seed,
            workload.canary(),
            workload.events_per_pass(),
            untraced.len() + traced.len(),
            samples
        ),
        format!("reference: {oracle_from} (oracle_s {oracle_s:.3}, not in setup_s)"),
        format!(
            "host: nproc {}  cpus_used 1 (cpu {})  git {}  {}",
            host.nproc,
            host.cpu,
            command_line("git", &["rev-parse", "--short", "HEAD"]),
            command_line("rustc", &["-V"])
        ),
    ];
    notes.push(format!(
        "pass wall times in order, ms: {}",
        wall.iter()
            .map(|w| format!("{:.0}", w * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if workload.events_per_pass() > 0 {
        notes.push(format!(
            "throughput {:.0} events/s (events/pass ÷ time_to_reports_s)",
            workload.events_per_pass() as f64 / Summary::of(&wall).min
        ));
    }
    if samples == 0 || (args.trace && traced.is_empty()) {
        return Err(tally
            .first_failure
            .unwrap_or_else(|| "no pass produced a result".to_string()));
    }

    let metrics = if args.trace {
        let tracer = last_trace.expect("a traced run has traced passes");
        let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        let (traced_s, untraced_s) = (Summary::of(&traced_wall).min, Summary::of(&wall).min);
        let overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s;
        let last = traced.last().expect("a traced run has traced passes");
        let shares = Shares::of(&tracer, last.wall_s);
        let mut metrics = vec![
            scalar("trace_overhead_pct", "%", overhead_pct),
            scalar("pass.ingest_share_pct", "%", shares.ingest),
            scalar("pass.flush_share_pct", "%", shares.flush),
            scalar("pass.reports_share_pct", "%", shares.reports),
            scalar("pass.net_share_pct", "%", shares.net),
            scalar("pass.front_end_share_pct", "%", shares.front_end),
            scalar("pass.other_share_pct", "%", shares.other),
            scalar(
                "pass.refresh_p99_ms",
                "ms",
                Summary::of(&pass_percentile(0.99)).min,
            ),
            scalar("pass.events", "count", workload.events_per_pass() as f64),
            scalar("pass.operations", "count", last.attempted as f64),
            scalar("pass.spans", "count", tracer.spans().len() as f64),
            scalar("input_rss_mb", "MB", input_rss_mb),
        ];
        let probes = probes::run(args.seed)?;
        metrics.extend(probes.iter().map(|p| scalar(p.name, p.unit, p.value)));
        write_trace(args, host, &metrics, last, &untraced, &tracer)?;
        metrics
    } else {
        let recover: Vec<f64> = untraced.iter().filter_map(|p| p.recover_s).collect();
        vec![
            median_of("setup_s", "s", &setup_s),
            fastest("time_to_reports_s", "s", &wall),
            fastest("refresh_p50_ms", "ms", &pass_percentile(0.5)),
            fastest("refresh_p90_ms", "ms", &pass_percentile(0.9)),
            // Without a durable directory, losing the process means
            // running the job again: recovery *is* a pass.
            fastest(
                "recover_s",
                "s",
                if recover.is_empty() { &wall } else { &recover },
            ),
            fastest(
                "cpu_s",
                "s",
                &untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>(),
            ),
            scalar("peak_rss_mb", "MB", sys::peak_rss_mb()),
        ]
    };
    let contract = crate::benchmark_json()?;
    let declared: Vec<&str> = if args.trace {
        contract.per_layer.iter().map(|(n, _)| n.as_str()).collect()
    } else {
        contract
            .end_to_end
            .iter()
            .map(|(n, _)| n.as_str())
            .collect()
    };
    let mut printed: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let mut declared_sorted = declared.clone();
    printed.sort_unstable();
    declared_sorted.sort_unstable();
    if printed != declared_sorted {
        return Err(format!(
            "the metrics measured are not the ones BENCHMARK.json declares:\n measured {printed:?}\n declared {declared_sorted:?}"
        ));
    }
    if !args.trace {
        notes.push(format!(
            "input_rss_mb {input_rss_mb:.1} (resident growth over the first set-up's generation)"
        ));
    }
    Ok(RunResult {
        workload: name,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        metrics,
        notes,
    })
}

/// Where a traced pass's wall time went, by layer group, in percent.
struct Shares {
    ingest: f64,
    flush: f64,
    reports: f64,
    net: f64,
    front_end: f64,
    other: f64,
}

impl Shares {
    fn of(tracer: &Tracer, wall_s: f64) -> Shares {
        let pct =
            |pick: &dyn Fn(&str) -> bool| 100.0 * tracer.self_ns_where(pick) as f64 * 1e-9 / wall_s;
        let ingest = pct(&|n| n == "kojak-engine.ingest_batch");
        let flush = pct(&|n| n == "kojak-engine.flush" || n == "kojak-engine.checkpoint");
        let reports = pct(&|n| n == "kojak-engine.reports" || n == "kojak-engine.report");
        // In a closed loop on one CPU, time inside the producer's calls
        // is also where the server decodes, routes, logs and applies.
        let net = pct(&|n| n.starts_with("kojak-net."));
        let front_end = pct(&|n| {
            n.starts_with("asl-core.")
                || n.starts_with("asl-eval.")
                || n.starts_with("kojak-lint.")
                || n == "kojak-engine.build"
        });
        Shares {
            ingest,
            flush,
            reports,
            net,
            front_end,
            other: 100.0 - ingest - flush - reports - net - front_end,
        }
    }
}

fn write_trace(
    args: &RunArgs,
    host: &crate::Host,
    metrics: &[Metric],
    traced: &PassOutcome,
    untraced: &[PassOutcome],
    tracer: &Tracer,
) -> Result<(), String> {
    let counts = |p: &PassOutcome| Json::obj(p.counts.iter().map(|(k, v)| (*k, Json::from(*v))));
    let mut by_kind: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (kind, ms) in untraced.iter().flat_map(|p| p.latencies_ms.iter()) {
        by_kind.entry(kind).or_default().push(*ms);
    }
    let latency = by_kind.into_iter().map(|(kind, samples)| {
        let s = sorted(&samples);
        (
            kind,
            Json::obj([
                ("n", s.len().into()),
                ("p50_ms", percentile(&s, 0.5).into()),
                ("p90_ms", percentile(&s, 0.9).into()),
                ("p99_ms", percentile(&s, 0.99).into()),
            ]),
        )
    });
    let Json::Obj(mut fields) = tracer.to_json() else {
        unreachable!("a tracer renders as an object")
    };
    let mut doc = vec![
        ("workload".to_string(), Json::str(args.workload.as_str())),
        ("seed".to_string(), args.seed.into()),
        ("nproc".to_string(), host.nproc.into()),
        ("cpus_used".to_string(), 1usize.into()),
        ("traced_pass_wall_s".to_string(), traced.wall_s.into()),
        ("traced_pass_counts".to_string(), counts(traced)),
        ("result_latency_by_kind".to_string(), Json::obj(latency)),
        (
            "layer_metrics".to_string(),
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", m.value.into()), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ];
    doc.append(&mut fields);
    let dir = crate::bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload.as_str()));
    std::fs::write(&path, Json::Obj(doc).pretty()).map_err(|e| format!("{}: {e}", path.display()))
}
