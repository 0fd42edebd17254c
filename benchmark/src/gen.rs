//! Seeded input generation. Everything a workload feeds the program is
//! made here from `--seed`; the program under test only ever sees the
//! resulting events and spec sources.
//!
//! Work is *fixed*: `ProgramGenerator` draws random region trees, so an
//! unsteered set of programs varies ±5 % in size between seeds — and the
//! timings with it. [`sized_programs`] steers every set onto one size, so
//! different seeds give different programs of the same size.

use kojak::apprentice_sim::{
    archetypes, simulate_program, MachineModel, ProgramGenerator, ProgramModel,
};
use kojak::online::replay::events_for_run;
use kojak::online::{RunKey, TraceEvent};
use kojak::perfdata::{Store, TestRunId};
use std::collections::HashSet;

/// The processor-count sweep of every simulated version.
pub const PES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Mean [`weight`] a generated function contributes (depth 4, fan-out 3,
/// communication probability 0.6; measured over 10⁴ functions): the
/// steering target per function.
const WEIGHT_PER_FUNCTION: f64 = 66.0;

/// Candidate programs drawn per slot; the one landing closest to the
/// running size target is kept.
const CANDIDATES: u64 = 12;

/// SplitMix64: the benchmark's own generator, independent of the
/// simulator's noise functions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Measurement events one run of `model` emits, estimated from the
/// model alone (simulating every candidate would cost more than the
/// workload): per region its total, the instrumentation sample, one
/// sample per synchronizing construct, five for point-to-point traffic
/// (absent from the 1-PE run of the six) and one call-site statistic per
/// call. Ingest work follows this count, evaluation work the regions and
/// samples it is made of.
pub fn weight(model: &ProgramModel) -> f64 {
    model
        .functions
        .iter()
        .flat_map(|f| f.root.walk())
        .map(|r| {
            let c = &r.workload.comm;
            let flag = |on: bool| f64::from(u8::from(on));
            2.0 + flag(c.barriers > 0.0)
                + flag(c.collectives > 0.0)
                + flag(c.ptp_msgs > 0.0) * 5.0 * 5.0 / 6.0
                + r.calls.len() as f64
        })
        .sum()
}

/// One generated program per entry of `functions` (its function count),
/// steered so the cumulative [`weight`] tracks
/// `WEIGHT_PER_FUNCTION × Σ (functions + main)` slot by slot.
pub fn sized_programs(seed: u64, functions: &[usize]) -> Vec<ProgramModel> {
    let mut rng = Rng::new(seed, 0x5153);
    let mut out = Vec::with_capacity(functions.len());
    let (mut have, mut want) = (0f64, 0f64);
    for &f in functions {
        want += WEIGHT_PER_FUNCTION * (f + 1) as f64;
        let best = (0..CANDIDATES)
            .map(|_| {
                ProgramGenerator {
                    seed: rng.next(),
                    functions: f,
                    max_depth: 4,
                    max_fanout: 3,
                    base_work: 0.02,
                    comm_probability: 0.6,
                }
                .generate()
            })
            .min_by(|a, b| {
                let miss = |m: &ProgramModel| (have + weight(m) - want).abs();
                miss(a).total_cmp(&miss(b))
            })
            .expect("CANDIDATES > 0");
        have += weight(&best);
        out.push(best);
    }
    out
}

/// Simulate `programs` (plus `archetype_rounds` × the three archetypes)
/// over [`PES`] into one store.
pub fn simulate(seed: u64, programs: &[ProgramModel], archetype_rounds: u64) -> Store {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    for model in programs {
        simulate_program(&mut store, model, &machine, &PES);
    }
    for round in 0..archetype_rounds {
        for model in archetypes::all(seed.wrapping_mul(977).wrapping_add(round)) {
            simulate_program(&mut store, &model, &machine, &PES);
        }
    }
    store
}

/// `batch_full`: 28 generated versions of 24 functions + 21 archetype
/// versions, six runs each.
pub fn batch_store(seed: u64) -> Store {
    simulate(seed, &sized_programs(seed, &[24; 28]), 7)
}

/// `online_refresh`: 44 generated versions whose sizes spread evenly
/// over 3–15 functions (so refresh latency is a continuous distribution,
/// not two clusters) + 12 archetype versions.
pub fn refresh_store(seed: u64) -> Store {
    let functions: Vec<usize> = (0..44).map(|i| 3 + (i * 12) / 43).collect();
    simulate(seed, &sized_programs(seed, &functions), 4)
}

/// `tcp_durable_ingest` and the layer probes: 16 generated versions of
/// 7 functions.
pub fn ingest_store(seed: u64) -> Store {
    simulate(seed, &sized_programs(seed, &[7; 16]), 0)
}

fn is_measurement(e: &TraceEvent) -> bool {
    matches!(
        e,
        TraceEvent::RegionExited { .. }
            | TraceEvent::TypedSample { .. }
            | TraceEvent::CallSiteStat { .. }
    )
}

/// Multiply an event's time values by `factor` (taking them from `base`,
/// so repeated scaling never compounds). Counts and PE indices stay.
fn scale_from(event: &mut TraceEvent, base: &TraceEvent, factor: f64) {
    match (event, base) {
        (
            TraceEvent::RegionExited {
                excl, incl, ovhd, ..
            },
            TraceEvent::RegionExited {
                excl: e,
                incl: i,
                ovhd: o,
                ..
            },
        ) => {
            *excl = e * factor;
            *incl = i * factor;
            *ovhd = o * factor;
        }
        (TraceEvent::TypedSample { time, .. }, TraceEvent::TypedSample { time: t, .. }) => {
            *time = t * factor;
        }
        (TraceEvent::CallSiteStat { stats, .. }, TraceEvent::CallSiteStat { stats: s, .. }) => {
            stats.min_time = s.min_time * factor;
            stats.max_time = s.max_time * factor;
            stats.mean_time = s.mean_time * factor;
            stats.stdev_time = s.stdev_time * factor;
        }
        _ => unreachable!("scale_from pairs an event with its own base"),
    }
}

/// A refinement-heavy stream: every run announces itself and its
/// structure once, then its measurement events arrive `rounds` times as
/// running totals (`k / rounds` of the final value in round `k`, as a
/// live monitor refreshing its counters does), then every run finishes.
/// The last round carries the final values exactly, so the end state is
/// the simulated store and the interpreter oracle needs no second model
/// of the stream.
pub struct RefinementStream {
    structure: Vec<TraceEvent>,
    measurements: Vec<TraceEvent>,
    finish: Vec<TraceEvent>,
    rounds: u32,
}

impl RefinementStream {
    pub fn new(store: &Store, rounds: u32) -> RefinementStream {
        let mut s = RefinementStream {
            structure: Vec::new(),
            measurements: Vec::new(),
            finish: Vec::new(),
            rounds,
        };
        for r in 0..store.runs.len() as u32 {
            for e in events_for_run(store, TestRunId(r)) {
                if is_measurement(&e) {
                    s.measurements.push(e);
                } else if matches!(e, TraceEvent::RunFinished { .. }) {
                    s.finish.push(e);
                } else {
                    s.structure.push(e);
                }
            }
        }
        s
    }

    pub fn events_total(&self) -> u64 {
        (self.structure.len() + self.finish.len()) as u64
            + self.measurements.len() as u64 * u64::from(self.rounds)
    }

    /// A buffer for [`play`](Self::play) to scale the rounds in; made
    /// before a pass starts its clock.
    pub fn scratch(&self) -> Vec<TraceEvent> {
        self.measurements.clone()
    }

    /// Offer the whole stream, in order, to `sink`; after round
    /// `rounds / 2` the sink is called once with [`Phase::Half`] and no
    /// events. The canary and every pass go through this one driver, so
    /// they see the same events.
    pub fn play<E>(
        &self,
        scratch: &mut [TraceEvent],
        mut sink: impl FnMut(Phase, &[TraceEvent]) -> Result<(), E>,
    ) -> Result<(), E> {
        sink(Phase::Structure, &self.structure)?;
        for k in 1..=self.rounds {
            let factor = f64::from(k) / f64::from(self.rounds);
            for (event, base) in scratch.iter_mut().zip(&self.measurements) {
                scale_from(event, base, factor);
            }
            sink(Phase::Round, scratch)?;
            if k == self.rounds / 2 {
                sink(Phase::Half, &[])?;
            }
        }
        sink(Phase::Finish, &self.finish)
    }

    /// Canary and event count of the whole stream.
    pub fn canary(&self) -> (u64, u64) {
        let mut canary = crate::fingerprint::StreamCanary::default();
        let played: Result<(), std::convert::Infallible> =
            self.play(&mut self.scratch(), |_, events| {
                events.iter().for_each(|e| canary.push(e));
                Ok(())
            });
        let Ok(()) = played;
        (canary.value(), canary.events)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Structure,
    Round,
    /// Half of the rounds are out; no events.
    Half,
    Finish,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKind {
    /// A new run of a version the session already knows.
    NewRun,
    /// The first run of a version: announces its whole structure.
    NewVersion,
    /// ~10 % of a finished run's measurement events, re-sent with their
    /// final values (the run first delivered preliminary ones).
    Correction,
}

impl UnitKind {
    pub fn label(self) -> &'static str {
        match self {
            UnitKind::NewRun => "new_run",
            UnitKind::NewVersion => "new_version",
            UnitKind::Correction => "correction",
        }
    }
}

pub struct RefreshUnit {
    pub kind: UnitKind,
    pub run: RunKey,
    pub events: Vec<TraceEvent>,
}

/// The `online_refresh` input: a bulk load, then refresh units that
/// arrive one at a time.
pub struct RefreshPlan {
    pub bulk: Vec<TraceEvent>,
    pub units: Vec<RefreshUnit>,
}

/// Orders in which a version's six runs (by index into [`PES`]) arrive.
/// How much a version re-evaluates depends on how often a new run
/// undercuts its smallest processor count so far: never, every time, once.
const ARRIVAL_ORDERS: [[usize; 6]; 3] =
    [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 0, 4, 1, 5, 3]];

impl RefreshPlan {
    /// Every fourth version is history: all its runs are in the bulk load.
    /// The runs of the other versions arrive one per unit, each version in
    /// one of the [`ARRIVAL_ORDERS`] (by version index, so a version's
    /// size and its order pair up the same way for every seed — the work
    /// is fixed) and the versions interleaved by the seed. After every
    /// `correction_every`-th run unit a correction to some earlier run
    /// follows. A corrected run first delivers values up to ±10 % off for
    /// the events the correction later fixes, so the end state is again
    /// the simulated store.
    pub fn new(store: &Store, seed: u64, correction_every: usize) -> RefreshPlan {
        let mut rng = Rng::new(seed, 0x0eef);
        let mut bulk_runs: Vec<u32> = Vec::new();
        let mut queues: Vec<std::collections::VecDeque<u32>> = Vec::new();
        for (v, version) in store.versions.iter().enumerate() {
            if v % 4 == 3 {
                bulk_runs.extend(version.runs.iter().map(|r| r.0));
            } else {
                let order = ARRIVAL_ORDERS[v % ARRIVAL_ORDERS.len()];
                queues.push(order.iter().map(|i| version.runs[*i].0).collect());
            }
        }
        rng.shuffle(&mut bulk_runs);
        let mut order = bulk_runs.clone();
        while !queues.is_empty() {
            let q = rng.below(queues.len());
            order.extend(queues[q].pop_front());
            if queues[q].is_empty() {
                queues.swap_remove(q);
            }
        }
        let bulk_runs = bulk_runs.len();

        // Who gets corrected, and after which run unit.
        let mut corrected: HashSet<u32> = HashSet::new();
        let mut correction_after: Vec<Option<u32>> = vec![None; order.len()];
        for slot in
            (bulk_runs..order.len()).filter(|i| (i - bulk_runs).is_multiple_of(correction_every))
        {
            // The first not-yet-corrected run at or after a random
            // delivered position (there are always more delivered runs
            // than corrections).
            let start = rng.below(slot + 1);
            let target = (0..=slot)
                .map(|i| order[(start + i) % (slot + 1)])
                .find(|run| !corrected.contains(run))
                .expect("fewer corrections than delivered runs");
            corrected.insert(target);
            correction_after[slot] = Some(target);
        }

        let mut fixes: Vec<Option<Vec<TraceEvent>>> = vec![None; store.runs.len()];
        let mut deliver = |run: u32, rng: &mut Rng| {
            let mut events = events_for_run(store, TestRunId(run));
            if corrected.contains(&run) {
                // Never the first measurement — the ranking basis' own
                // total, whose change re-evaluates the whole run: a
                // correction is the *partial* refresh.
                let measured: Vec<usize> = (0..events.len())
                    .filter(|i| is_measurement(&events[*i]))
                    .skip(1)
                    .collect();
                let mut picked: Vec<usize> = measured
                    .iter()
                    .copied()
                    .filter(|_| rng.below(10) == 0)
                    .collect();
                if picked.is_empty() {
                    picked.extend(measured.last());
                }
                let mut fix = Vec::with_capacity(picked.len());
                for i in picked {
                    let truth = events[i].clone();
                    scale_from(&mut events[i], &truth, 0.9 + 0.2 * rng.unit());
                    fix.push(truth);
                }
                fixes[run as usize] = Some(fix);
            }
            events
        };

        let mut bulk = Vec::new();
        for &run in &order[..bulk_runs] {
            bulk.extend(deliver(run, &mut rng));
        }
        let mut seen_versions: HashSet<u32> = HashSet::new();
        let mut units = Vec::new();
        for slot in bulk_runs..order.len() {
            let run = order[slot];
            let kind = if seen_versions.insert(store.runs[run as usize].version.0) {
                UnitKind::NewVersion
            } else {
                UnitKind::NewRun
            };
            units.push((kind, run, Some(deliver(run, &mut rng))));
            if let Some(target) = correction_after[slot] {
                units.push((UnitKind::Correction, target, None));
            }
        }
        let units = units
            .into_iter()
            .map(|(kind, run, events)| RefreshUnit {
                kind,
                run: RunKey(u64::from(run)),
                events: events.unwrap_or_else(|| {
                    fixes[run as usize]
                        .take()
                        .expect("a correction follows its run's delivery")
                }),
            })
            .collect();
        RefreshPlan { bulk, units }
    }

    pub fn events_total(&self) -> u64 {
        (self.bulk.len() + self.units.iter().map(|u| u.events.len()).sum::<usize>()) as u64
    }

    pub fn all_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.bulk
            .iter()
            .chain(self.units.iter().flat_map(|u| u.events.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::StreamCanary;
    use kojak::online::{StoreBuilder, StoreDelta};

    fn canary<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> (u64, u64) {
        let mut c = StreamCanary::default();
        events.for_each(|e| c.push(e));
        (c.value(), c.events)
    }

    fn small_store(seed: u64) -> Store {
        simulate(seed, &sized_programs(seed, &[3; 4]), 0)
    }

    #[test]
    fn same_seed_same_canary_other_seed_other_canary() {
        let stream = |seed| {
            let store = small_store(seed);
            let plan = RefreshPlan::new(&store, seed, 3);
            canary(plan.all_events())
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7).0, stream(8).0);

        let refine = |seed| RefinementStream::new(&small_store(seed), 4).canary();
        assert_eq!(refine(7), refine(7));
        assert_ne!(refine(7).0, refine(8).0);
    }

    #[test]
    fn steering_holds_the_size_across_seeds() {
        let sizes: Vec<usize> = (1..=6)
            .map(|seed| {
                sized_programs(seed, &[24; 28])
                    .iter()
                    .map(weight)
                    .sum::<f64>() as usize
            })
            .collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!((hi - lo) * 200 < *lo, "sizes spread > 0.5 %: {sizes:?}");
    }

    /// Apply a stream to a bare `StoreBuilder`; every event must apply.
    fn applies_cleanly<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> StoreBuilder {
        let mut builder = StoreBuilder::new();
        let mut delta = StoreDelta::new();
        for e in events {
            builder
                .apply(e, &mut delta)
                .unwrap_or_else(|err| panic!("rejected {}: {err}", e.kind()));
        }
        builder
    }

    /// Every measured time value of a store, order-free.
    fn value_bits(store: &Store) -> Vec<u64> {
        let mut bits: Vec<u64> = store
            .total_timings
            .iter()
            .flat_map(|t| [t.excl, t.incl, t.ovhd])
            .chain(store.typed_timings.iter().map(|t| t.time))
            .chain(
                store
                    .call_timings
                    .iter()
                    .flat_map(|c| [c.mean_time, c.stdev_time]),
            )
            .map(f64::to_bits)
            .collect();
        bits.sort_unstable();
        bits
    }

    #[test]
    fn corrections_and_refinements_are_never_rejected_and_end_on_the_simulated_values() {
        let store = small_store(3);
        let plan = RefreshPlan::new(&store, 3, 2);
        assert!(plan.units.iter().any(|u| u.kind == UnitKind::Correction));
        assert!(plan.units.iter().any(|u| u.kind == UnitKind::NewVersion));
        let built = applies_cleanly(plan.all_events());
        assert_eq!(value_bits(built.store()), value_bits(&store));

        let mut all = Vec::new();
        let stream = RefinementStream::new(&store, 3);
        stream
            .play(&mut stream.scratch(), |_, events| {
                all.extend_from_slice(events);
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(all.len() as u64, stream.events_total());
        assert_eq!(
            value_bits(applies_cleanly(all.iter()).store()),
            value_bits(&store)
        );
    }
}
