//! E9 — compiled-IR evaluation vs the tree-walking interpreter.
//!
//! Two workloads, both run through the *same* analyzers with only the
//! evaluation backend switched:
//!
//! * **full analysis** (the E5 shape): a complete COSY ranked analysis of
//!   the 64-PE particle-MC run on a 4-run store;
//! * **online append** (the E8 shape): one 64-PE run streamed into a
//!   session already holding 50 runs, incremental flush included.
//!
//! The PR-level claim checked here: the compiled path is **≥ 2× faster**
//! than the interpreter on both, with identical reports. Best-of-N over
//! several iterations; the harness writes the numbers to `BENCH_e9.json`
//! so the perf trajectory is tracked across PRs.

use crate::table::Table;
use cosy::{Analyzer, Backend, ProblemThreshold};
use online::replay::events_for_run;
use online::{OnlineSession, RunKey, SessionConfig};
use perfdata::TestRunId;
use std::time::Instant;

/// Best observed wall-clock (ns) and a result of one timed closure. The
/// minimum over many iterations is the noise-robust estimator for a
/// shared machine: scheduler interference only ever adds time, so the
/// fastest run bounds the intrinsic cost.
fn best_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> (u64, T) {
    assert!(iters > 0);
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..iters {
        let t = Instant::now();
        let out = f();
        best = best.min(t.elapsed().as_nanos() as u64);
        last = Some(out);
    }
    (best, last.expect("iters > 0"))
}

/// Measured outcome of the interpreter-vs-compiled comparison.
#[derive(Debug, Clone)]
pub struct E9Result {
    /// Best wall-clock of one full E5-style analysis, interpreter.
    pub full_interp_ns: u64,
    /// Best wall-clock of one full E5-style analysis, compiled.
    pub full_compiled_ns: u64,
    /// `full_interp_ns / full_compiled_ns`.
    pub full_speedup: f64,
    /// Best wall-clock of one E8-style single-run append, interpreter.
    pub append_interp_ns: u64,
    /// Best wall-clock of one E8-style single-run append, compiled.
    pub append_compiled_ns: u64,
    /// `append_interp_ns / append_compiled_ns`.
    pub append_speedup: f64,
    /// Do the two engines produce identical reports on both workloads?
    pub reports_identical: bool,
}

/// Runs already in the store for the append scenario (matches E8).
const APPEND_BASE_RUNS: usize = 50;
/// Timing iterations per measurement.
const ITERS_FULL: usize = 15;
const ITERS_APPEND: usize = 25;
/// Untimed appends before sampling (cold caches, first-touch page faults).
const WARMUP_APPENDS: u64 = 3;

/// Time (best-of-N) the incremental re-analysis (flush) of one E8-style
/// single-run append through a session using `backend`. Ingestion bookkeeping (event
/// application, dirty tracking) is byte-for-byte the same code on both
/// backends and runs outside the timed window — the measurement isolates
/// the evaluation core the backends actually differ in.
fn append_best(backend: Backend) -> (u64, cosy::AnalysisReport) {
    let mut pe_counts: Vec<u32> = (1..=APPEND_BASE_RUNS as u32).collect();
    pe_counts.push(64);
    let (store, _version) = crate::data::particle_store(&pe_counts);
    let appended = TestRunId(APPEND_BASE_RUNS as u32);
    let template = events_for_run(&store, appended);

    let session = OnlineSession::new(SessionConfig {
        threshold: ProblemThreshold::default(),
        backend,
        ..SessionConfig::default()
    });
    for r in 0..APPEND_BASE_RUNS as u32 {
        session
            .ingest_batch(&events_for_run(&store, TestRunId(r)))
            .expect("base ingest");
    }
    session.flush().expect("base flush");

    let mut samples = Vec::with_capacity(ITERS_APPEND);
    for i in 0..WARMUP_APPENDS + ITERS_APPEND as u64 {
        let key = RunKey(5_000_000 + i);
        let events: Vec<_> = template.iter().map(|e| e.clone().with_run(key)).collect();
        session.ingest_batch(&events).expect("append ingest");
        let t = Instant::now();
        session.flush().expect("append flush");
        if i >= WARMUP_APPENDS {
            samples.push(t.elapsed().as_nanos() as u64);
        }
    }
    let best = samples.into_iter().min().expect("samples non-empty");
    // Live report of the last appended run, for cross-backend comparison
    // (both backends replay the identical key/event sequence).
    let last_key = RunKey(5_000_000 + WARMUP_APPENDS + ITERS_APPEND as u64 - 1);
    let report = session
        .report(last_key)
        .expect("appended run has a live report");
    (best, report)
}

/// Run the comparison.
pub fn run() -> E9Result {
    let threshold = ProblemThreshold::default();

    // --- full analysis (E5 shape) --------------------------------------
    let (store, version) = crate::data::particle_store(&[1, 4, 16, 64]);
    let run = *store.versions[version.index()].runs.last().unwrap();
    let analyzer = Analyzer::new(&store, version).expect("analyzer");
    // Warm the one-time lowering so the measurement shows steady-state
    // per-analysis cost (the lowering is shared across runs/flushes).
    let _ = analyzer.compiled_spec();

    let (full_interp_ns, report_interp) = best_ns(ITERS_FULL, || {
        analyzer
            .analyze(run, Backend::Interpreter, threshold)
            .expect("interpreter analysis")
    });
    let (full_compiled_ns, report_compiled) = best_ns(ITERS_FULL, || {
        analyzer
            .analyze(run, Backend::Compiled, threshold)
            .expect("compiled analysis")
    });
    // --- online single-run append (E8 shape) ---------------------------
    let (append_interp_ns, append_report_interp) = append_best(Backend::Interpreter);
    let (append_compiled_ns, append_report_compiled) = append_best(Backend::Compiled);
    let reports_identical =
        report_interp == report_compiled && append_report_interp == append_report_compiled;

    E9Result {
        full_interp_ns,
        full_compiled_ns,
        full_speedup: full_interp_ns as f64 / full_compiled_ns.max(1) as f64,
        append_interp_ns,
        append_compiled_ns,
        append_speedup: append_interp_ns as f64 / append_compiled_ns.max(1) as f64,
        reports_identical,
    }
}

/// Render the E9 table.
pub fn render(r: &E9Result) -> String {
    let ms = |ns: u64| format!("{:.2} ms", ns as f64 / 1e6);
    let mut t = Table::new(&["workload", "interpreter", "compiled IR", "speedup"]);
    t.row(vec![
        "E5 full analysis (64-PE run)".into(),
        ms(r.full_interp_ns),
        ms(r.full_compiled_ns),
        format!("{:.1}x", r.full_speedup),
    ]);
    t.row(vec![
        format!("E8 incremental flush ({APPEND_BASE_RUNS}+1 runs)"),
        ms(r.append_interp_ns),
        ms(r.append_compiled_ns),
        format!("{:.1}x", r.append_speedup),
    ]);
    format!(
        "{}\nreports identical: {}\n",
        t.render(),
        if r.reports_identical { "yes" } else { "NO" }
    )
}

/// Machine-readable JSON for `BENCH_e9.json` (best-of-N ns + speedup ratios).
pub fn to_json(r: &E9Result) -> String {
    format!(
        "{{\n  \"experiment\": \"e9_compiled_eval\",\n  \
         \"full_analysis\": {{ \"interpreter_ns_best\": {}, \"compiled_ns_best\": {}, \"speedup\": {:.3} }},\n  \
         \"online_append\": {{ \"interpreter_ns_best\": {}, \"compiled_ns_best\": {}, \"speedup\": {:.3} }},\n  \
         \"reports_identical\": {},\n  \
         \"regenerate\": \"cargo run --release -p kojak-bench --bin harness -- --e9\"\n}}\n",
        r.full_interp_ns,
        r.full_compiled_ns,
        r.full_speedup,
        r.append_interp_ns,
        r.append_compiled_ns,
        r.append_speedup,
        r.reports_identical
    )
}

/// The PR-level claim: ≥ 2x on both workloads, identical reports.
pub fn check_claims(r: &E9Result) -> Result<(), String> {
    if !r.reports_identical {
        return Err("compiled and interpreted reports differ".into());
    }
    if r.full_speedup < 2.0 {
        return Err(format!(
            "full analysis only {:.2}x faster compiled ({} ns vs {} ns)",
            r.full_speedup, r.full_compiled_ns, r.full_interp_ns
        ));
    }
    if r.append_speedup < 2.0 {
        return Err(format!(
            "online append only {:.2}x faster compiled ({} ns vs {} ns)",
            r.append_speedup, r.append_compiled_ns, r.append_interp_ns
        ));
    }
    Ok(())
}
