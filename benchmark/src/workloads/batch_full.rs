//! `batch_full` — the analyst's job: the whole measurement database of
//! 49 program versions × 6 processor counts through the batch engine:
//! `ingest_batch` in 256-event chunks → one `flush()` → `reports()`.
//!
//! Why: full evaluation of every context is ≈ 85 % of the pass, so
//! `asl-eval` / `cosy` work shows here and ingest-path work barely does.

use super::{reports_reference, Name, PassClock, PassOutcome, SetUp, SetUpArgs, Workload, BATCH};
use crate::fingerprint::{Prints, StreamCanary};
use crate::gen;
use crate::trace::Tracer;
use kojak::engine::{AnalysisEngine, EngineBuilder};
use kojak::online::replay::replay_store;
use kojak::online::TraceEvent;
use std::time::Instant;

pub struct BatchFull {
    events: Vec<TraceEvent>,
    canary: u64,
    expected: Prints,
}

pub fn set_up(args: SetUpArgs<'_>) -> Result<SetUp, String> {
    let store = gen::batch_store(args.seed);
    let events = replay_store(&store);
    let mut canary = StreamCanary::default();
    events.iter().for_each(|e| canary.push(e));
    let (expected, oracle_s, oracle_from) = reports_reference(
        Name::BatchFull,
        args,
        canary.value(),
        events.len() as u64,
        &store,
    )?;
    Ok(SetUp {
        workload: Box::new(BatchFull {
            events,
            canary: canary.value(),
            expected,
        }),
        oracle_s,
        oracle_from,
    })
}

impl Workload for BatchFull {
    fn canary(&self) -> u64 {
        self.canary
    }

    fn events_per_pass(&self) -> u64 {
        self.events.len() as u64
    }

    fn pass(&self, _pass_no: usize, tracer: &mut Tracer) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let clock = PassClock::start();
        let engine = tracer
            .span("kojak-engine.build", 1, |_| {
                EngineBuilder::new().batch().build()
            })
            .map_err(|e| format!("engine build: {e}"))?;
        let mut last_input = Instant::now();
        let mut ingest_errors = 0u64;
        tracer.span(
            "kojak-engine.ingest_batch",
            self.events.len() as u64,
            |_| {
                for chunk in self.events.chunks(BATCH) {
                    last_input = Instant::now();
                    if engine.ingest_batch(chunk).is_err() {
                        ingest_errors += 1;
                    }
                }
            },
        );
        let flushed = tracer.span("kojak-engine.flush", 1, |_| engine.flush());
        let reports = tracer.span("kojak-engine.reports", 1, |_| engine.reports());
        out.latencies_ms
            .push(("batch", last_input.elapsed().as_secs_f64() * 1e3));
        clock.stop(&mut out);

        // events + one flush + one report read.
        out.attempted = self.events.len() as u64 + 2;
        let stats = engine.stats();
        out.fail(stats.events_rejected, || {
            format!(
                "{} event(s) rejected ({ingest_errors} failing batches)",
                stats.events_rejected
            )
        });
        if let Err(e) = flushed {
            out.fail(1, || format!("flush: {e}"));
        }
        out.check_reports("batch reports", &self.expected, &reports);
        out.counts = vec![
            ("events_applied", stats.events_applied),
            (
                "report_entries",
                reports.values().map(|r| r.entries.len() as u64).sum(),
            ),
        ];
        Ok(out)
    }
}
