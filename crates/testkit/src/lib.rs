//! # `testkit` — one differential harness
//!
//! ROADMAP aim 3 is a contract: every way of running a specification
//! finds the same problems — a one-shot analysis, an online session
//! flushed chunk by chunk, a sharded one, a durable one killed and
//! recovered, and a server fed over TCP. This crate states it once:
//!
//! * [`Scenario`] generates the cases: spec, programs and versions,
//!   event order, chunking, kill point, checkpoints, shard count, late
//!   corrections and rejected events, with a proptest
//!   [`Scenario::strategy`];
//! * [`oracle`] is the reference: `Analyzer::analyze(run,
//!   Backend::Interpreter)` for every run of the store a stream builds;
//! * [`fingerprint`] is the id-free projection of a report. It mirrors
//!   the benchmark's `RunPrint` rather than importing it, because
//!   `benchmark/` is a package of its own; [`store_contents`] is the
//!   id-free projection of a store, held to the simulator's;
//! * [`assert_all_shapes_agree`] drives every engine shape over a
//!   scenario and holds each one to the oracle.
//!
//! The evaluator-level suites (interpreter ≡ compiled, flow soundness,
//! lint never panics) draw from one generator too: [`random_store`] and
//! [`generated_suite`].
//!
//! Beside them live the small helpers the suites used to copy:
//! [`ScratchDir`], [`cases`], [`generator`], [`uninterrupted`],
//! [`durable_config`], and the allocation gates' [`Counting`] allocator
//! with [`allocations`]. The kit is a dev-dependency only.

use apprentice_sim::{archetypes, simulate_program, MachineModel, ProgramGenerator, ProgramModel};
use asl_core::check::CheckedSpec;
use cosy::{AnalysisReport, Analyzer, Backend, ProblemThreshold};
use engine::ShardedSession;
use engine::{AnalysisEngine, Engine, EngineBuilder, EngineError, RecoverableState};
use net::{EngineServer, ProducerConfig, ServerConfig, TraceProducer};
use online::replay::{events_for_run, replay_run_key};
use online::{
    DurableConfig, FsyncPolicy, IngestError, OnlineSession, RunKey, SessionConfig, SessionStats,
    StoreBuilder, StoreDelta, TraceEvent,
};
use perfdata::{RegionId, Store, TestRunId, TimingType, VersionId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod counting;
mod specgen;
pub use counting::{allocated_bytes, allocations, Counting};
pub use specgen::{generated_suite, random_store, subjects};

/// Live reports keyed by producer run key, as every engine serves them.
pub type Reports = HashMap<RunKey, AnalysisReport>;

/// A scratch directory, unique per call (process id plus a counter) and
/// removed on drop, also when a failing assertion unwinds past it. It is
/// not created: a test that needs it to exist creates it.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh path under the system temp directory; `name` only makes
    /// it recognisable.
    pub fn new(name: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("kojak-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `default` proptest cases, or `PROPTEST_CASES` when it is set. The
/// proptest RNG is keyed on (test name, case index), so widening the run
/// adds cases without changing the first ones.
pub fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// The generated-program shape the suites draw from: `functions`
/// functions besides `main`, three levels deep, up to three children per
/// region, communication in 60 % of the regions.
pub fn generator(seed: u64, functions: usize) -> ProgramGenerator {
    ProgramGenerator {
        seed,
        functions,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.6,
    }
}

/// An in-memory standard-suite session that ingested `events` in one
/// batch and flushed once: the uninterrupted reference of the kill,
/// fault and partition tests.
pub fn uninterrupted(events: &[TraceEvent]) -> OnlineSession {
    let session = OnlineSession::new(SessionConfig::default());
    if !events.is_empty() {
        session.ingest_batch(events).expect("uninterrupted ingest");
    }
    session.flush().expect("uninterrupted flush");
    session
}

/// A standard-suite durable configuration that never fsyncs (a kill on
/// the same machine observes the page cache, and skipping fsync keeps the
/// suites fast) and checkpoints every `snapshot_every_flushes` flushes
/// (0: only when asked).
pub fn durable_config(snapshot_every_flushes: u32) -> DurableConfig {
    DurableConfig {
        session: SessionConfig::default(),
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes,
        faults: Default::default(),
    }
}

/// The frame a version-2 producer wrote for `events`: kind 1,
/// `first_seq u64`, count `u32`, then a `len u32 | encode_wire` entry per
/// event. Nothing in the workspace writes this form any more; servers
/// still read it.
pub fn entry_batch_frame(first_seq: u64, events: &[TraceEvent]) -> Vec<u8> {
    use online::wire;
    let mut frame = Vec::new();
    wire::put_frame(&mut frame, |buf| {
        wire::put_u8(buf, 1);
        wire::put_u64(buf, first_seq);
        wire::put_u32(buf, events.len() as u32);
        for event in events {
            let mut bytes = Vec::new();
            event.encode_wire(&mut bytes);
            wire::put_u32(buf, bytes.len() as u32);
            buf.extend_from_slice(&bytes);
        }
    });
    frame
}

/// The specification a [`Scenario`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The built-in COSY suite.
    Standard,
    /// The standard suite plus `examples/specs/io_contention.asl`, a user
    /// property that reads the min-PE run's typed timings, which no
    /// standard property does.
    WithIoContention,
}

impl Suite {
    /// The checked specification.
    pub fn spec(self) -> Arc<CheckedSpec> {
        match self {
            Suite::Standard => Arc::new(cosy::standard_suite()),
            Suite::WithIoContention => {
                let user = include_str!("../../../examples/specs/io_contention.asl");
                let src = format!("{}\n{user}", cosy::standard_suite_source());
                Arc::new(asl_core::parse_and_check(&src).expect("suite + io_contention.asl"))
            }
        }
    }
}

/// The program of a [`Scenario`]'s first version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Generated by [`generator`] from the scenario's seed and function
    /// count.
    Generated,
    /// `archetypes::stencil3d`.
    Stencil3d,
    /// `archetypes::particle_mc`.
    ParticleMc,
    /// `archetypes::spectral_io`: I/O-bound, what `io_contention.asl`
    /// looks for.
    SpectralIo,
}

impl Program {
    fn model(self, seed: u64, functions: usize) -> ProgramModel {
        match self {
            Program::Generated => generator(seed, functions).generate(),
            Program::Stencil3d => archetypes::stencil3d(seed),
            Program::ParticleMc => archetypes::particle_mc(seed),
            Program::SpectralIo => archetypes::spectral_io(seed),
        }
    }
}

/// One case of the contract: a specification, the event stream of some
/// simulated program versions, and how the engines are fed and killed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The specification.
    pub suite: Suite,
    /// The first version's program.
    pub program: Program,
    /// Seed of every simulated program.
    pub seed: u64,
    /// Functions besides `main` in a generated program.
    pub functions: usize,
    /// Processor counts of each version's runs, in run order.
    pub pes: Vec<u32>,
    /// Program versions: the first is [`program`](Scenario::program),
    /// later ones cycle through the archetypes.
    pub versions: usize,
    /// Seed of a deterministic interleaving of the runs' streams (each
    /// run's own order is kept); `None` streams one run after another.
    pub interleave: Option<u64>,
    /// Events per ingest; every chunked shape flushes after each.
    pub chunk: usize,
    /// Where the durable shapes are killed and recovered, in ‰ of the
    /// stream.
    pub cut: u32,
    /// Where the durable shapes checkpoint, in ‰ of the stream (at the
    /// cut at the latest).
    pub checkpoint_at: Option<u32>,
    /// The durable shapes also checkpoint by themselves every this many
    /// flushes (0: only where asked).
    pub snapshot_every: u32,
    /// Shards of the sharded-durable shape and of the TCP server.
    pub shards: usize,
    /// Append corrections to the first version, sent after every run has
    /// been reported, each halved. Of the reference (min-PE) run: its last
    /// I/O sample (its last typed sample if it has none), its last typed
    /// sample and its total at the ranking basis, its last call statistic
    /// and its last region exit. Of its last other run: its last exit of a
    /// region other than the basis.
    pub late_corrections: bool,
    /// Refuse the last run (`NoPe = 0`, so its later events name a run
    /// that never started) and add one event for the unknown run
    /// `RunKey(u64::MAX)`.
    pub rejected_events: bool,
}

impl Scenario {
    /// The standard suite over one generated version on 1 + 4 PEs,
    /// streamed run after run in chunks of 64, killed half-way with 3
    /// shards and no snapshot, nothing corrected or rejected.
    pub fn new(seed: u64) -> Scenario {
        Scenario {
            suite: Suite::Standard,
            program: Program::Generated,
            seed,
            functions: 2,
            pes: vec![1, 4],
            versions: 1,
            interleave: None,
            chunk: 64,
            cut: 500,
            checkpoint_at: None,
            snapshot_every: 0,
            shards: 3,
            late_corrections: false,
            rejected_events: false,
        }
    }

    /// Every dimension at random. `io_contention.asl` is paired with the
    /// I/O-bound archetype, the standard suite with a generated program.
    pub fn strategy() -> impl Strategy<Value = Scenario> {
        let program = (
            prop_oneof![
                Just((Suite::Standard, Program::Generated)),
                Just((Suite::Standard, Program::Generated)),
                Just((Suite::WithIoContention, Program::SpectralIo))
            ],
            0u64..10_000,
            1usize..4,
            prop_oneof![
                Just(vec![1, 4]),
                Just(vec![1, 8]),
                Just(vec![1, 16]),
                Just(vec![16, 4, 1]),
                Just(vec![2, 8, 64]),
            ],
            prop_oneof![Just(1usize), Just(1), Just(2), Just(3)],
        );
        let schedule = (
            prop::option::of(any::<u64>()),
            prop_oneof![Just(1usize), Just(7), Just(33), Just(128), Just(1024)],
            0u32..1001,
            prop::option::of(0u32..1001),
            prop_oneof![Just(0u32), Just(1), Just(4)],
            prop_oneof![Just(3usize), Just(8)],
        );
        let fed = (any::<bool>(), any::<bool>());
        (program, schedule, fed).prop_map(
            |(
                ((suite, program), seed, functions, pes, versions),
                (interleave, chunk, cut, checkpoint_at, snapshot_every, shards),
                (late_corrections, rejected_events),
            )| Scenario {
                suite,
                program,
                seed,
                functions,
                pes,
                versions,
                interleave,
                chunk,
                cut,
                checkpoint_at,
                snapshot_every,
                shards,
                late_corrections,
                rejected_events,
            },
        )
    }

    /// The checked specification.
    pub fn spec(&self) -> Arc<CheckedSpec> {
        self.suite.spec()
    }

    /// The simulated store the stream is replayed from.
    pub fn store(&self) -> Store {
        self.simulate(false)
    }

    /// What the engines should hold once every event but the late
    /// corrections is in: [`store`](Scenario::store) without the refused
    /// run (the last one), simulated without it rather than cut out.
    pub fn accepted_store(&self) -> Store {
        self.simulate(self.rejected_events)
    }

    /// The interpreter's reports over
    /// [`accepted_store`](Scenario::accepted_store), keyed by replay run
    /// key: a reference that owes nothing to `StoreBuilder`, before any
    /// late correction.
    pub fn reports(&self) -> Reports {
        let store = self.accepted_store();
        analyze_all(&store, &self.spec(), Backend::Interpreter, replay_run_key)
    }

    fn simulate(&self, without_last_run: bool) -> Store {
        let machine = MachineModel::t3e_900();
        let mut store = Store::new();
        let versions = self.versions.max(1);
        for v in 0..versions {
            let model = match v {
                0 => self.program.model(self.seed, self.functions),
                v => archetypes::all(self.seed).swap_remove((v - 1) % 3),
            };
            let pes = match &self.pes[..] {
                [pes @ .., _] if without_last_run && v + 1 == versions => pes,
                pes => pes,
            };
            // A version without runs is not representable as events.
            if !pes.is_empty() {
                simulate_program(&mut store, &model, &machine, pes);
            }
        }
        store
    }

    /// The event stream, late corrections and rejected events included.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.build().0
    }

    /// The stream, and where the late corrections start.
    fn build(&self) -> (Vec<TraceEvent>, usize) {
        let store = self.store();
        let mut runs: Vec<Vec<TraceEvent>> = (0..store.runs.len() as u32)
            .map(|r| events_for_run(&store, TestRunId(r)))
            .collect();
        let refused = self.rejected_events.then(|| runs.len() - 1);
        if let Some(TraceEvent::RunStarted { no_pe, .. }) =
            refused.and_then(|r| runs[r].first_mut())
        {
            *no_pe = 0;
        }
        let accepted = || {
            let runs = store.versions[0].runs.iter().map(|r| r.index());
            runs.filter(|&r| Some(r) != refused)
        };
        let reference = accepted().min_by_key(|&r| store.runs[r].no_pe);
        let other = accepted().rfind(|&r| Some(r) != reference);
        let key = |r: usize| replay_run_key(TestRunId(r as u32));
        let basis = store.main_region(VersionId(0));
        let basis = basis.map_or("", |b| store.regions[b.index()].name.as_str());
        let mut events = match self.interleave {
            Some(seed) => interleave(runs, seed),
            None => runs.concat(),
        };
        if self.rejected_events {
            let middle = events.len() / 2;
            let unknown = TraceEvent::RunFinished {
                run: RunKey(u64::MAX),
            };
            events.insert(middle, unknown);
        }
        let late = events.len();
        if let Some(reference) = reference.filter(|_| self.late_corrections) {
            let corrections = corrections(&events, key(reference), other.map(key), basis);
            events.extend(corrections);
        }
        (events, late)
    }

    /// The flush points besides every `chunk` events: the checkpoint, the
    /// cut, and the start of the late corrections (`late`).
    fn schedule(&self, len: usize, late: usize) -> Schedule {
        let at = |permille: u32| len * permille.min(1000) as usize / 1000;
        let cut = at(self.cut).max(1).min(len);
        let checkpoint = self
            .checkpoint_at
            .map(|c| at(c.min(self.cut)).min(cut))
            .filter(|&c| c > 0);
        let mut bounds: Vec<usize> = [0, cut, late, len].into_iter().chain(checkpoint).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let runs = self.versions.max(1) * self.pes.len();
        let refused = match self.rejected_events {
            true => vec![RunKey(runs as u64 - 1), RunKey(u64::MAX)],
            false => Vec::new(),
        };
        Schedule {
            bounds,
            checkpoint,
            cut,
            late,
            refused,
        }
    }
}

/// Deterministically interleave per-run event streams, keeping each
/// run's own order (the only order producers guarantee).
fn interleave(mut streams: Vec<Vec<TraceEvent>>, seed: u64) -> Vec<TraceEvent> {
    for s in &mut streams {
        s.reverse(); // pop() from the back == front of the stream
    }
    let mut out = Vec::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    loop {
        let live: Vec<usize> = (0..streams.len())
            .filter(|&i| !streams[i].is_empty())
            .collect();
        if live.is_empty() {
            return out;
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = live[(state >> 33) as usize % live.len()];
        out.extend(streams[pick].pop());
    }
}

/// The late corrections, each halved. Of the `reference` run: its last
/// I/O sample (its last typed sample if it has none), its last typed sample
/// and its total at the `basis` region, its last call statistic and its
/// last region exit. Of the `other` run: its last exit of a region other
/// than the basis.
fn corrections(
    events: &[TraceEvent],
    reference: RunKey,
    other: Option<RunKey>,
    basis: &str,
) -> Vec<TraceEvent> {
    let of = |run: RunKey| events.iter().filter(move |e| e.run_key() == run);
    let at_basis = |e: &&TraceEvent| match e {
        TraceEvent::TypedSample { region, .. } | TraceEvent::RegionExited { region, .. } => {
            region.name == basis
        }
        _ => false,
    };
    let sample = |e: &&TraceEvent| matches!(e, TraceEvent::TypedSample { .. });
    let exit = |e: &&TraceEvent| matches!(e, TraceEvent::RegionExited { .. });
    let io = |e: &&TraceEvent| {
        matches!(
            e,
            TraceEvent::TypedSample {
                ty: TimingType::IoRead | TimingType::IoWrite,
                ..
            }
        )
    };
    let picked = [
        of(reference)
            .rfind(io)
            .or_else(|| of(reference).rfind(sample)),
        of(reference).rfind(|e| sample(e) && at_basis(e)),
        of(reference).rfind(|e| matches!(e, TraceEvent::CallSiteStat { .. })),
        of(reference).rfind(|e| exit(e) && at_basis(e)),
        of(reference).rfind(exit),
        other.and_then(|other| of(other).rfind(|e| exit(e) && !at_basis(e))),
    ];
    let mut out: Vec<TraceEvent> = picked.into_iter().flatten().cloned().collect();
    for e in &mut out {
        match e {
            TraceEvent::TypedSample { time, .. } => *time *= 0.5,
            TraceEvent::RegionExited { excl, incl, .. } => {
                *excl *= 0.5;
                *incl *= 0.5;
            }
            TraceEvent::CallSiteStat { stats, .. } => {
                for time in [
                    &mut stats.min_time,
                    &mut stats.max_time,
                    &mut stats.mean_time,
                    &mut stats.stdev_time,
                ] {
                    *time *= 0.5;
                }
            }
            _ => {}
        }
    }
    out
}

/// Where a scenario's chunked shapes stop besides every `chunk` events.
struct Schedule {
    /// Sorted segment bounds, `0` and the stream length included.
    bounds: Vec<usize>,
    /// The durable shapes checkpoint after this many events.
    checkpoint: Option<usize>,
    /// The durable shapes are killed and recovered after this many events.
    cut: usize,
    /// The late corrections start after this many events (the stream's
    /// length when there are none).
    late: usize,
    /// The runs whose events are refused.
    refused: Vec<RunKey>,
}

/// The interpreter oracle of an event stream.
pub struct Oracle {
    /// The store the stream builds: the arena of every unsharded engine.
    pub store: Store,
    /// `Analyzer::analyze(run, Backend::Interpreter)` of every run of
    /// [`store`](Oracle::store), keyed by producer run key.
    pub reports: Reports,
    /// The producer key of each store run, by run index.
    pub keys: Vec<RunKey>,
    /// Events the store applied.
    pub applied: u64,
    /// Events the store refused.
    pub rejected: u64,
}

/// Build the store `events` describe (refused events are counted and
/// skipped, as every engine does) and analyze each of its runs with the
/// interpreter under `spec`.
pub fn oracle(spec: &Arc<CheckedSpec>, events: &[TraceEvent]) -> Oracle {
    let mut builder = StoreBuilder::new();
    let mut delta = StoreDelta::new();
    let rejected = events
        .iter()
        .filter(|e| builder.apply(e, &mut delta).is_err())
        .count() as u64;
    let keys: Vec<RunKey> = (0..builder.store().runs.len() as u32)
        .map(|r| {
            builder
                .run_key_of(TestRunId(r))
                .expect("a store run has a key")
        })
        .collect();
    let key = |run: TestRunId| keys[run.index()];
    let reports = analyze_all(builder.store(), spec, Backend::Interpreter, key);
    Oracle {
        store: builder.store().clone(),
        reports,
        keys,
        applied: builder.events_applied(),
        rejected,
    }
}

/// Every run of `store` analyzed by `backend`, keyed by `key(run)`.
fn analyze_all(
    store: &Store,
    spec: &Arc<CheckedSpec>,
    backend: Backend,
    key: impl Fn(TestRunId) -> RunKey,
) -> Reports {
    let mut analyzers = HashMap::new();
    (0..store.runs.len() as u32)
        .map(TestRunId)
        .map(|run| {
            let version = store.runs[run.index()].version;
            let analyzer = analyzers.entry(version).or_insert_with(|| {
                Analyzer::with_spec(store, version, Arc::clone(spec)).expect("analyzable version")
            });
            let report = analyzer
                .analyze(run, backend, ProblemThreshold::default())
                .expect("analysis");
            (key(run), report)
        })
        .collect()
}

/// The id-free projection of a store's contents: one line per program,
/// version, run, region, timing and call statistic, each named by program
/// names, lines and timestamps instead of arena ids, sorted. Two stores
/// with the same contents have the same projection even when their ids
/// differ (a trace stream never shows a function that is neither run nor
/// called, so a replayed store may lack some runtime-routine `Function`
/// records the simulator declared, and an interleaved stream allocates
/// in arrival order).
pub fn store_contents(store: &Store) -> Vec<String> {
    let version = |v: VersionId| {
        let program = &store.programs[store.versions[v.index()].program.index()];
        let ordinal = program.versions.iter().position(|x| *x == v).unwrap();
        format!("{}#{ordinal}", program.name)
    };
    let run = |r: TestRunId| {
        let run = &store.runs[r.index()];
        let pe = run.no_pe;
        format!("{}/pe{pe}@{}", version(run.version), run.start.micros())
    };
    let region = |r: RegionId| {
        let region = &store.regions[r.index()];
        let f = &store.functions[region.function.index()];
        let line = region.first_line;
        format!("{}::{}::{}@{line}", version(f.version), f.name, region.name)
    };
    let mut out = Vec::new();
    for p in &store.programs {
        out.push(format!("program {}", p.name));
    }
    for (i, v) in store.versions.iter().enumerate() {
        let (at, source) = (v.compilation.micros(), &store.sources[v.code.index()].text);
        let name = version(VersionId(i as u32));
        out.push(format!("version {name} compiled {at} source {source:?}"));
    }
    for (i, r) in store.runs.iter().enumerate() {
        let name = run(TestRunId(i as u32));
        out.push(format!("run {name} clock {}", r.clockspeed));
    }
    for (i, r) in store.regions.iter().enumerate() {
        let lines = (r.kind, r.first_line, r.last_line, r.parent.map(region));
        out.push(format!("region {} {lines:?}", region(RegionId(i as u32))));
    }
    for t in &store.total_timings {
        let times = (t.excl, t.incl, t.ovhd);
        out.push(format!(
            "total {} {} {times:?}",
            region(t.region),
            run(t.run)
        ));
    }
    for t in &store.typed_timings {
        let time = (t.ty, t.time);
        out.push(format!(
            "typed {} {} {time:?}",
            region(t.region),
            run(t.run)
        ));
    }
    for c in &store.calls {
        let caller = &store.functions[c.caller.index()].name;
        let callee = &store.functions[c.callee.index()].name;
        let site = format!("call {caller}->{callee} at {}", region(c.calling_reg));
        for s in c.sums.iter().map(|ct| &store.call_timings[ct.index()]) {
            let counts = (s.min_count, s.max_count, s.mean_count, s.stdev_count);
            let times = (s.min_time, s.max_time, s.mean_time, s.stdev_time);
            let pes = (s.min_count_pe, s.max_count_pe, s.min_time_pe, s.max_time_pe);
            out.push(format!(
                "{site} {} {counts:?} {times:?} {pes:?}",
                run(s.run)
            ));
        }
    }
    out.sort();
    out
}

/// 64-bit FNV-1a over what an analyst reads in a report: the header, and
/// per entry the rank, property, context label, severity, confidence and
/// problem flag. Arena ids are left out, because every shard allocates
/// its own. Floats enter as bit patterns.
pub fn fingerprint(report: &AnalysisReport) -> u64 {
    let mut f = Fnv(0xcbf2_9ce4_8422_2325);
    f.str(&report.program);
    f.u64(u64::from(report.no_pe));
    f.u64(u64::from(report.reference_pe));
    f.u64(report.basis_duration.to_bits());
    f.u64(report.total_cost.to_bits());
    f.u64(report.threshold.0.to_bits());
    f.u64(report.skipped as u64);
    for e in &report.entries {
        f.u64(e.rank as u64);
        f.str(&e.property);
        f.str(&e.context.label);
        f.u64(e.severity.to_bits());
        f.u64(e.confidence.to_bits());
        f.u64(u64::from(e.is_problem));
    }
    f.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Assert that `got` serves the reports of `expected`, run by run: `==`
/// when both built the same store arena (`exact`), the same
/// [`fingerprint`] otherwise.
pub fn assert_reports_agree(what: &str, exact: bool, expected: &Reports, got: &Reports) {
    let keys: BTreeSet<RunKey> = expected.keys().chain(got.keys()).copied().collect();
    for key in keys {
        let (e, g) = (expected.get(&key), got.get(&key));
        let same = if exact {
            e == g
        } else {
            e.map(fingerprint) == g.map(fingerprint)
        };
        let class = if exact { "==" } else { "id-free fingerprint" };
        assert!(
            same,
            "{what}: the report of {key} differs ({class})\nexpected: {e:#?}\n     got: {g:#?}"
        );
    }
}

/// What the online shape saw of a scenario, for callers that check more
/// than agreement.
pub struct Agreement {
    /// The oracle's reports.
    pub reports: Reports,
    /// The online shape's flushes: the runs each one changed, and the
    /// session's counters after it.
    pub flushes: Vec<(Vec<RunKey>, SessionStats)>,
}

/// One engine shape driven chunk by chunk.
struct Shape {
    name: &'static str,
    /// Opens the engine; a durable shape is opened again after its kill.
    open: Box<dyn Fn() -> Engine>,
    durable: bool,
    /// `None`: one session.
    shards: Option<usize>,
    /// Builds the online shape's store arena, so its reports are `==`.
    exact: bool,
}

/// What an engine serves at one point of the stream.
struct State {
    reports: Reports,
    /// Events applied, events refused, runs finished.
    counts: (u64, u64, u64),
    /// The store, of an unsharded engine.
    store: Option<Store>,
}

impl State {
    fn of(engine: &Engine) -> State {
        let stats = engine.stats();
        State {
            reports: engine.reports(),
            counts: (
                stats.events_applied,
                stats.events_rejected,
                stats.runs_finished,
            ),
            store: match engine {
                Engine::Online(session) => Some(session.store_snapshot()),
                Engine::ShardedOnline(_) => None,
            },
        }
    }
}

/// What a chunked shape left behind.
struct Outcome {
    flushes: Vec<(Vec<RunKey>, SessionStats)>,
    at_cut: State,
    /// Before the late corrections.
    at_late: State,
    end: State,
}

/// Drive every engine shape over `scenario` and hold each one to the
/// interpreter oracle:
///
/// * the compiled `Analyzer` over the oracle's store;
/// * online, sharded at 1, 2 and 3 shards, durable, and sharded-durable
///   at `shards` shards, each fed in `chunk`-sized batches with a flush
///   after each; the durable ones checkpoint at `checkpoint_at` and every
///   `snapshot_every` flushes, are killed at `cut`, and recover to
///   exactly their pre-kill reports and counters;
/// * a producer streaming over TCP into a server of `shards` shards.
///
/// Shapes that build the oracle's store arena (every unsharded one, and
/// every one when there is a single version, whose runs share a shard)
/// must serve `==` reports; the others must match the id-free
/// [`fingerprint`]. Every flush of a chunked shape changes the same runs
/// as the online shape's, their reports agree at the cut too, and every
/// shape applies and refuses the oracle's counts of events.
///
/// The oracle's store is built by the `StoreBuilder` the engines use, so
/// the simulator is the independent reference: before the late
/// corrections every chunked shape serves the fingerprints of
/// [`Scenario::reports`], and an unsharded one holds the
/// [`store_contents`] of [`Scenario::accepted_store`].
pub fn assert_all_shapes_agree(scenario: &Scenario) -> Agreement {
    let what = format!("{scenario:?}");
    let spec = scenario.spec();
    let (events, late) = scenario.build();
    let schedule = scenario.schedule(events.len(), late);
    let oracle = oracle(&spec, &events);
    let single_version = scenario.versions <= 1;
    assert!(
        oracle.reports.values().any(|r| r.bottleneck().is_some()),
        "{what}: the oracle finds no bottleneck, so agreement would prove little"
    );

    let key = |run: TestRunId| oracle.keys[run.index()];
    let compiled = analyze_all(&oracle.store, &spec, Backend::Compiled, key);
    assert_reports_agree(
        &format!("{what} compiled"),
        true,
        &oracle.reports,
        &compiled,
    );
    let simulated = scenario.reports();
    let simulated_contents = store_contents(&scenario.accepted_store());

    let config = SessionConfig {
        threshold: ProblemThreshold::default(),
        spec: Some(Arc::clone(&spec)),
    };
    let builder = EngineBuilder::new().spec(Arc::clone(&spec));
    let durable = builder
        .clone()
        .fsync(FsyncPolicy::Never)
        .snapshot_every_flushes(scenario.snapshot_every);
    let (durable_dir, sharded_dir) = (ScratchDir::new("durable"), ScratchDir::new("sharded"));
    let build = |builder: EngineBuilder| -> Box<dyn Fn() -> Engine> {
        Box::new(move || builder.clone().build().expect("engine"))
    };
    // A durable shape lives in `dir`; a sharded one has `shards` shards.
    let shape = |name, dir: Option<&ScratchDir>, shards: Option<usize>| {
        let builder = match dir {
            Some(dir) => durable.clone().durable(dir.path()),
            None => builder.clone(),
        };
        let config = config.clone();
        let open: Box<dyn Fn() -> Engine> = match shards {
            // The builder opens one session for one shard.
            Some(1) => Box::new(move || {
                Engine::ShardedOnline(ShardedSession::in_memory(1, config.clone()))
            }),
            Some(n) => build(builder.shards(n)),
            None => build(builder),
        };
        let exact = shards.is_none_or(|n| n == 1 || single_version);
        let durable = dir.is_some();
        Shape {
            name,
            open,
            durable,
            shards,
            exact,
        }
    };
    let shapes = [
        shape("online", None, None),
        shape("sharded-1", None, Some(1)),
        shape("sharded-2", None, Some(2)),
        shape("sharded-3", None, Some(3)),
        shape("durable", Some(&durable_dir), None),
        shape("sharded-durable", Some(&sharded_dir), Some(scenario.shards)),
    ];

    let mut online: Option<Outcome> = None;
    for shape in &shapes {
        let what = format!("{what} {}", shape.name);
        let got = drive(shape, &events, &schedule, scenario, &what);
        assert_reports_agree(&what, shape.exact, &oracle.reports, &got.end.reports);
        assert_eq!(
            (got.end.counts.0, got.end.counts.1),
            (oracle.applied, oracle.rejected),
            "{what}: applied and refused events"
        );
        if let Some(store) = &got.end.store {
            assert!(*store == oracle.store, "{what}: the oracle's store arena");
        }
        let before_late = format!("{what} before the late corrections");
        assert_reports_agree(&before_late, false, &simulated, &got.at_late.reports);
        if let Some(store) = &got.at_late.store {
            assert_eq!(
                store_contents(store),
                simulated_contents,
                "{before_late}: the simulated store's contents"
            );
        }
        let Some(reference) = &online else {
            online = Some(got);
            continue;
        };
        assert_eq!(got.end.counts, reference.end.counts, "{what}: counters");
        let changed = |o: &Outcome| o.flushes.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        assert_eq!(
            changed(&got),
            changed(reference),
            "{what}: runs changed per flush"
        );
        let at_cut = format!("{what} at the cut");
        let (a, b) = (&reference.at_cut, &got.at_cut);
        assert_reports_agree(&at_cut, shape.exact, &a.reports, &b.reports);
        if let (Some(a), Some(b)) = (&a.store, &b.store) {
            assert!(a == b, "{at_cut}: store arena");
        }
    }

    let (reports, stats) = over_tcp(&spec, scenario.shards, &events, late, &what);
    let tcp = format!("{what} over TCP");
    assert_reports_agree(&tcp, single_version, &oracle.reports, &reports);
    assert_eq!(
        (stats.events_applied, stats.events_rejected),
        (oracle.applied, oracle.rejected),
        "{tcp}: applied and refused events"
    );

    Agreement {
        reports: oracle.reports,
        flushes: online.expect("the online shape ran").flushes,
    }
}

/// Feed `events` to one shape through the schedule's segments, `chunk`
/// events per ingest and a flush after each; checkpoint and kill the
/// durable shapes where the schedule says.
fn drive(
    shape: &Shape,
    events: &[TraceEvent],
    schedule: &Schedule,
    scenario: &Scenario,
    what: &str,
) -> Outcome {
    let mut engine = (shape.open)();
    assert_layout(shape, &engine, what);
    let mut flushes = Vec::new();
    let (mut at_cut, mut at_late) = (None, None);
    for bounds in schedule.bounds.windows(2) {
        let end = bounds[1];
        for batch in events[bounds[0]..end].chunks(scenario.chunk.max(1)) {
            match engine.ingest_batch(batch) {
                Ok(applied) => assert_eq!(applied, batch.len(), "{what}: applied"),
                // Typed, and counted: compared with the oracle's count below.
                Err(EngineError::Ingest(
                    IngestError::NoProcessors(run) | IngestError::UnknownRun(run),
                )) if schedule.refused.contains(&run) => {}
                Err(e) => panic!("{what}: ingest: {e}"),
            }
            let changed = engine
                .flush()
                .unwrap_or_else(|e| panic!("{what}: flush: {e}"));
            flushes.push((changed, engine.stats()));
        }
        if shape.durable && schedule.checkpoint == Some(end) {
            engine
                .checkpoint()
                .unwrap_or_else(|e| panic!("{what}: checkpoint: {e}"));
        }
        if end == schedule.cut {
            if shape.durable {
                // Every shard flushes every time, so all of them snapshot
                // alike.
                let every = scenario.snapshot_every;
                let snapshot =
                    schedule.checkpoint.is_some() || (every > 0 && flushes.len() >= every as usize);
                engine = kill_and_recover(shape, engine, snapshot, what);
            }
            at_cut = Some(State::of(&engine));
        }
        if end == schedule.late {
            at_late = Some(State::of(&engine));
        }
    }
    // Nothing was left queued to change, or to fail on.
    let idle = engine
        .flush()
        .unwrap_or_else(|e| panic!("{what}: idle flush: {e}"));
    assert_eq!(idle, [], "{what}: an idle flush changes no run");
    Outcome {
        flushes,
        at_cut: at_cut.expect("the cut is a segment bound"),
        at_late: at_late.expect("the late corrections start at a segment bound"),
        end: State::of(&engine),
    }
}

/// Drop a durable engine without a checkpoint or a graceful shutdown,
/// reopen its directory, and check that recovery restored exactly what
/// the engine served before the kill, from a snapshot in every shard if
/// one was written.
fn kill_and_recover(shape: &Shape, engine: Engine, snapshot: bool, what: &str) -> Engine {
    let before = State::of(&engine);
    drop(engine);
    let engine = (shape.open)();
    assert_layout(shape, &engine, what);
    let recovery = engine.recovery().expect("a durable engine recovered");
    assert!(
        recovery.iter().all(|r| r.wal_corruption.is_none()),
        "{what}: a clean log after a kill"
    );
    assert!(
        recovery.iter().all(|r| r.used_snapshot == snapshot),
        "{what}: recovery loads a snapshot: {snapshot}"
    );
    let after = State::of(&engine);
    assert!(
        after.reports == before.reports,
        "{what}: the pre-kill reports"
    );
    assert!(after.store == before.store, "{what}: the pre-kill store");
    assert_eq!(after.counts, before.counts, "{what}: the pre-kill counters");
    engine
}

/// The engine is the shape its configuration asks for: where its state
/// comes back from after a kill, its variant, and what it recovered.
/// (One variant carries both the in-memory and the durable session, so
/// the recovery shape follows the configuration, not the variant.)
fn assert_layout(shape: &Shape, engine: &Engine, what: &str) {
    let state = engine.recoverable_state();
    let layout = match (shape.durable, shape.shards) {
        (false, _) => state.is_ephemeral(),
        (true, None) => matches!(state, RecoverableState::Durable { .. }),
        (true, Some(n)) => {
            matches!(state, RecoverableState::Sharded { ref shard_dirs } if shard_dirs.len() == n)
        }
    };
    assert!(layout, "{what}: recoverable state {state:?}");
    assert_eq!(
        matches!(engine, Engine::ShardedOnline(_)),
        shape.shards.is_some(),
        "{what}: engine variant"
    );
    assert_eq!(
        engine.recovery().map(|r| r.len()),
        shape.durable.then(|| shape.shards.unwrap_or(1)),
        "{what}: recovered shards"
    );
}

/// Stream `events` from one producer over loopback TCP into a server of
/// `shards` shards; the events from `late` on are sent once the server has
/// flushed everything before them. Checks the producer's and the
/// server's ledgers, and returns the engine's reports and counters.
fn over_tcp(
    spec: &Arc<CheckedSpec>,
    shards: usize,
    events: &[TraceEvent],
    late: usize,
    what: &str,
) -> (Reports, SessionStats) {
    let engine = EngineBuilder::new()
        .spec(Arc::clone(spec))
        .shards(shards)
        .build()
        .expect("sharded engine");
    let config = ServerConfig {
        flush_every_events: 512,
        ..ServerConfig::default()
    };
    let server = EngineServer::bind("127.0.0.1:0", Arc::new(engine), config).expect("bind");
    let producer = ProducerConfig {
        producer_id: 1,
        spec_hash: net::spec_hash(spec),
        batch_events: 64,
        ..ProducerConfig::default()
    };
    let mut producer =
        TraceProducer::connect(server.local_addr().to_string(), producer).expect("connect");
    for (i, event) in events.iter().enumerate() {
        if i == late {
            producer.flush().expect("producer flush");
            server.engine().flush().expect("every run reported");
        }
        producer.send(event).expect("send");
    }
    let sent = producer.close().expect("close");
    let len = events.len() as u64;
    assert_eq!(
        (sent.events_sent, sent.events_acked, sent.events_inflight),
        (len, len, 0),
        "{what} over TCP: producer ledger"
    );
    server.engine().flush().expect("final flush");
    let received = server.stats();
    assert_eq!(
        (
            received.connections_accepted,
            received.events_received,
            received.events_deduplicated,
            received.goodbyes
        ),
        (1, len, 0, 1),
        "{what} over TCP: server ledger"
    );
    let served = (server.engine().reports(), server.engine().stats());
    server.shutdown();
    served
}
