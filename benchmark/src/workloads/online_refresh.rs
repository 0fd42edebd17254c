//! `online_refresh` — the monitoring operator's job on an in-memory
//! incremental session: every fourth version is history, bulk-loaded and
//! flushed once; then every run of the other versions — and a correction
//! after every fifth — arrives as one *refresh unit*, each followed by
//! `flush()` + `report(run)`.
//!
//! Why: the same `asl-eval` / `cosy` / `perfdata` layers as `batch_full`,
//! used differently — hundreds of small flushes where per-flush fixed
//! costs and store *upserts* dominate instead of bulk inserts and bulk
//! evaluation. A change that speeds full evaluation at the cost of
//! incremental refresh (or the reverse) moves the two workloads apart.

use super::{reports_reference, Name, PassClock, PassOutcome, SetUp, SetUpArgs, Workload, BATCH};
use crate::fingerprint::{Prints, StreamCanary};
use crate::gen::{self, RefreshPlan};
use crate::trace::Tracer;
use kojak::engine::{AnalysisEngine, EngineBuilder};
use std::time::Instant;

/// A correction unit follows every this-many run units.
const CORRECTION_EVERY: usize = 5;

pub struct OnlineRefresh {
    plan: RefreshPlan,
    canary: u64,
    expected: Prints,
}

pub fn set_up(args: SetUpArgs<'_>) -> Result<SetUp, String> {
    let store = gen::refresh_store(args.seed);
    let plan = RefreshPlan::new(&store, args.seed, CORRECTION_EVERY);
    let mut canary = StreamCanary::default();
    plan.all_events().for_each(|e| canary.push(e));
    let (expected, oracle_s, oracle_from) = reports_reference(
        Name::OnlineRefresh,
        args,
        canary.value(),
        canary.events,
        &store,
    )?;
    Ok(SetUp {
        workload: Box::new(OnlineRefresh {
            plan,
            canary: canary.value(),
            expected,
        }),
        oracle_s,
        oracle_from,
    })
}

impl Workload for OnlineRefresh {
    fn canary(&self) -> u64 {
        self.canary
    }

    fn events_per_pass(&self) -> u64 {
        self.plan.events_total()
    }

    fn pass(&self, _pass_no: usize, tracer: &mut Tracer) -> Result<PassOutcome, String> {
        let mut out = PassOutcome::default();
        let clock = PassClock::start();
        let engine = tracer
            .span("kojak-engine.build", 1, |_| EngineBuilder::new().build())
            .map_err(|e| format!("engine build: {e}"))?;
        let mut errors = 0u64;
        let mut first_error = None;
        let mut note = |what: &str, e: &dyn std::fmt::Display| {
            errors += 1;
            first_error.get_or_insert_with(|| format!("{what}: {e}"));
        };

        tracer.span(
            "kojak-engine.ingest_batch",
            self.plan.bulk.len() as u64,
            |_| {
                for chunk in self.plan.bulk.chunks(BATCH) {
                    if let Err(e) = engine.ingest_batch(chunk) {
                        note("bulk ingest", &e);
                    }
                }
            },
        );
        if let Err(e) = tracer.span("kojak-engine.flush", 1, |_| engine.flush()) {
            note("bulk flush", &e);
        }

        out.latencies_ms.reserve(self.plan.units.len());
        for unit in &self.plan.units {
            let handed = Instant::now();
            let ingested = tracer.span(
                "kojak-engine.ingest_batch",
                unit.events.len() as u64,
                |_| engine.ingest_batch(&unit.events),
            );
            let flushed = tracer.span("kojak-engine.flush", 1, |_| engine.flush());
            let report = tracer.span("kojak-engine.report", 1, |_| engine.report(unit.run));
            out.latencies_ms
                .push((unit.kind.label(), handed.elapsed().as_secs_f64() * 1e3));
            if let Err(e) = ingested {
                note("unit ingest", &e);
            }
            if let Err(e) = flushed {
                note("unit flush", &e);
            }
            if report.is_none() {
                note("unit report", &format!("no report for {}", unit.run));
            }
        }
        let reports = tracer.span("kojak-engine.reports", 1, |_| engine.reports());
        clock.stop(&mut out);

        let units = self.plan.units.len() as u64;
        // events + (bulk flush + one per unit) + (one report per unit + reports()).
        out.attempted = self.plan.events_total() + (1 + units) + (units + 1);
        let stats = engine.stats();
        out.fail(stats.events_rejected, || {
            format!("{} event(s) rejected", stats.events_rejected)
        });
        out.fail(errors, || first_error.unwrap_or_default());
        out.check_reports("final reports", &self.expected, &reports);
        let inc = stats.incremental;
        out.counts = vec![
            ("events_applied", stats.events_applied),
            ("flushes", inc.flushes),
            ("runs_reevaluated", inc.runs_reevaluated),
            ("full_reevaluations", inc.full_reevaluations),
            ("instances_evaluated", inc.instances_evaluated),
            (
                "report_entries",
                reports.values().map(|r| r.entries.len() as u64).sum(),
            ),
        ];
        Ok(out)
    }
}
