//! The four workloads. Each does *fixed work* per pass — event and round
//! counts are constants, never a time-boxed loop — on a fresh engine,
//! stops its clock when the last report is in hand, and only then checks
//! what it read against the reference.

pub mod batch_full;
pub mod online_refresh;
pub mod spec_frontend;
pub mod tcp_durable_ingest;

use crate::corpus::Verdict;
use crate::fingerprint::{self, Prints};
use crate::oracle::{self, ExpectedReports};
use crate::trace::Tracer;
use kojak::cosy::AnalysisReport;
use kojak::online::RunKey;
use kojak::perfdata::Store;
use std::collections::HashMap;
use std::time::Instant;

/// Events per `ingest_batch` call / producer frame.
pub const BATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    BatchFull,
    OnlineRefresh,
    TcpDurableIngest,
    SpecFrontend,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::BatchFull,
        Name::OnlineRefresh,
        Name::TcpDurableIngest,
        Name::SpecFrontend,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::BatchFull => "batch_full",
            Name::OnlineRefresh => "online_refresh",
            Name::TcpDurableIngest => "tcp_durable_ingest",
            Name::SpecFrontend => "spec_frontend",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// What one pass measured and what its verification found.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Fresh-engine construction → last report (or verdict) in hand.
    pub wall_s: f64,
    /// Process CPU over the same interval.
    pub cpu_s: f64,
    /// Result latencies: hand-over of a unit's last input → its result in
    /// hand, with the unit's kind.
    pub latencies_ms: Vec<(&'static str, f64)>,
    /// Re-open of the killed directory → recovered reports in hand.
    pub recover_s: Option<f64>,
    /// Operations attempted: events offered, flushes, report reads,
    /// recoveries, specs judged.
    pub attempted: u64,
    /// Rejected events, errors, fingerprint mismatches, wrong verdicts.
    pub failed: u64,
    /// The first failure, naming the run key or spec.
    pub first_failure: Option<String>,
    /// Exact counts read from the program after the pass.
    pub counts: Vec<(&'static str, u64)>,
}

impl PassOutcome {
    pub fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// Check a report map against the reference; each differing run is
    /// one failed operation.
    pub fn check_reports(
        &mut self,
        what: &str,
        expected: &Prints,
        reports: &HashMap<RunKey, AnalysisReport>,
    ) {
        let (differing, first) = fingerprint::diff(expected, &fingerprint::prints_of(reports));
        self.fail(differing, || {
            format!(
                "{what}: {differing} report(s) differ from the interpreter oracle, first {}",
                RunKey(first.unwrap_or_default())
            )
        });
    }
}

/// Wall and CPU clocks of one pass.
pub struct PassClock {
    wall: Instant,
    cpu: f64,
}

impl PassClock {
    pub fn start() -> PassClock {
        PassClock {
            wall: Instant::now(),
            cpu: crate::sys::process_cpu_seconds(),
        }
    }

    pub fn stop(&self, outcome: &mut PassOutcome) {
        outcome.wall_s = self.wall.elapsed().as_secs_f64();
        outcome.cpu_s = crate::sys::process_cpu_seconds() - self.cpu;
    }
}

pub trait Workload {
    /// Fingerprint of the generated inputs.
    fn canary(&self) -> u64;
    /// Events offered per pass (0 for `spec_frontend`).
    fn events_per_pass(&self) -> u64;
    /// One whole job on a fresh engine. `pass_no` only names scratch
    /// directories. `Err` when the job could not be carried through
    /// (engine build, bind, connect, stream): one failed operation.
    fn pass(&self, pass_no: usize, tracer: &mut Tracer) -> Result<PassOutcome, String>;
}

/// The reference of one run of the benchmark, kept across its repeated
/// set-ups so the interpreter oracle is computed at most once.
#[derive(Clone)]
pub enum Reference {
    Reports(Prints),
    Verdicts(Vec<(String, Verdict)>),
}

pub struct SetUp {
    pub workload: Box<dyn Workload>,
    /// Seconds spent computing the oracle (0 when it was read from
    /// `expected/` or reused); not part of `setup_s`.
    pub oracle_s: f64,
    pub oracle_from: &'static str,
}

pub struct SetUpArgs<'a> {
    pub seed: u64,
    /// Recompute the reference and write it to `expected/`.
    pub bless: bool,
    pub cache: &'a mut Option<Reference>,
}

pub fn set_up(name: Name, args: SetUpArgs<'_>) -> Result<SetUp, String> {
    match name {
        Name::BatchFull => batch_full::set_up(args),
        Name::OnlineRefresh => online_refresh::set_up(args),
        Name::TcpDurableIngest => tcp_durable_ingest::set_up(args),
        Name::SpecFrontend => spec_frontend::set_up(args),
    }
}

/// The interpreter-oracle fingerprints of a stream workload: reused from
/// this run's cache, read from `expected/` (where the committed canary
/// must match the generated stream), or computed from `store`.
fn reports_reference(
    name: Name,
    args: SetUpArgs<'_>,
    canary: u64,
    events: u64,
    store: &Store,
) -> Result<(Prints, f64, &'static str), String> {
    if let Some(Reference::Reports(prints)) = args.cache.as_ref() {
        return Ok((prints.clone(), 0.0, "this run's first set-up"));
    }
    let committed = if args.bless {
        None
    } else {
        oracle::load(name.as_str(), args.seed, ExpectedReports::from_json)?
    };
    let (prints, oracle_s, from) = match committed {
        Some(e) if (e.canary, e.events) != (canary, events) => {
            return Err(format!(
                "workload drifted: {} seed {} generates canary {canary:016x} over {events} events, \
                 expected/ holds {:016x} over {}; if the generator change is intended, rerun with --bless",
                name.as_str(),
                args.seed,
                e.canary,
                e.events
            ));
        }
        Some(e) => (e.prints, 0.0, "expected/"),
        None => {
            let t = Instant::now();
            let prints = oracle::interpreter_prints(store);
            (prints, t.elapsed().as_secs_f64(), "computed in set-up")
        }
    };
    if args.bless {
        let expected = ExpectedReports {
            canary,
            events,
            prints: prints.clone(),
        };
        oracle::save(
            name.as_str(),
            args.seed,
            &expected.to_json(name.as_str(), args.seed),
        )?;
    }
    *args.cache = Some(Reference::Reports(prints.clone()));
    Ok((prints, oracle_s, from))
}

/// A scratch directory for one pass's durable session, under
/// `out/tmp/<pid>-<pass>`; removed by [`ScratchDir`]'s drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        let dir = crate::bench_dir()
            .join("out")
            .join("tmp")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
