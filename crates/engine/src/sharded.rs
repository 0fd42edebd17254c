//! The sharded session: N independent [`OnlineSession`] shards — in
//! memory, or durable with one WAL + snapshot pair per shard.
//!
//! ```text
//!                      ┌─ shard-000 ─ session ─ wal.log + snapshot.bin
//!  events ─▶ router ───┼─ shard-001 ─ session ─ wal.log + snapshot.bin
//!            (affine   ├─ …
//!             by run)  └─ shard-N-1 ─ session ─ wal.log + snapshot.bin
//!                             │
//!                 reports() = merge of per-shard maps
//! ```
//!
//! ## Routing: run affinity, version locality
//!
//! Every event is routed by its [`RunKey`] — a run's whole stream lands in
//! exactly one shard, so per-shard WALs need no cross-shard ordering and
//! recover independently. The *shard choice* for a new run hashes its
//! [`online::VersionTag`] with a splitmix64 finalizer: all runs of one
//! program version co-locate. That version affinity is what
//! makes shard-local analysis **globally exact** — the §4.2 data
//! dependencies of the standard suite (min-PE reference run, ranking
//! basis, `SublinearSpeedup`'s cross-run comparison) never cross a version
//! boundary, so each shard's reports are bit-identical to what an
//! unsharded session over the same events would produce (enforced by the
//! equivalence proptest in `tests/sharded.rs`).
//!
//! ## Recovery
//!
//! Opening a sharded durable session recovers every shard **in parallel**
//! from its own WAL + snapshot pair, then rebuilds the run→shard affinity
//! map from the recovered shard stores. A torn tail in one shard's log is
//! that shard's problem alone: the other shards recover their full
//! history untouched.
//!
//! ## Quarantine: graceful degradation instead of poisoning
//!
//! A shard whose recovery, ingest or flush fails **wholesale** does not
//! poison the session. It is *quarantined* with a typed
//! [`QuarantineReason`]; events routed to it while quarantined are
//! *parked* in arrival order (accepted, held in memory, volatile until
//! reintegration), and the merged `reports()`/`stats()`/`metrics()`
//! surfaces return the healthy shards' partial results —
//! [`ShardedSession::degraded_state`] says exactly which shards are out,
//! why, and how many events are parked.
//!
//! [`ShardedSession::reintegrate`] drives a quarantined shard back to
//! consistency: reopen from its WAL + snapshot if the engine was lost at
//! recovery, replay the parked backlog, flush, and restore the shard's
//! run routes. Exactly-once across the quarantine boundary rests on the
//! WAL's append atomicity (a failed `append_batch` leaves *no frame* of
//! the batch in the log), so a parked batch can always be replayed
//! without double-logging.
//!
//! Two recovery failures stay **hard errors** at open, never quarantine:
//! [`RecoveryError::CorruptSnapshot`] (the snapshot's history exists
//! nowhere else) and [`RecoveryError::Incompatible`] (layout or format
//! refusal — resharding and binary downgrades must stay loud).

use crate::error::EngineError;
use crate::{AnalysisEngine, RecoverableState};
use asl_core::check::CheckedSpec;
use cosy::AnalysisReport;
use online::{
    DurableConfig, IncrementalStats, OnlineSession, RecoveryError, RecoveryStats, RunKey,
    SessionConfig, SessionStats, TraceEvent,
};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration of a sharded durable session.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of independent shards (≥ 1), each with its own WAL +
    /// snapshot pair.
    pub shards: usize,
    /// The per-shard durable configuration (session, fsync policy,
    /// checkpoint cadence).
    pub durable: DurableConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            durable: DurableConfig::default(),
        }
    }
}

/// The directory of shard `index` inside a sharded session directory.
pub fn shard_dir(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:03}"))
}

/// Why a shard is quarantined (cheap to clone: the underlying typed
/// errors are shared, not copied).
#[derive(Debug, Clone)]
pub enum QuarantineReason {
    /// The shard's recovery at open failed (I/O or recovery-flush error);
    /// the shard has no engine until [`ShardedSession::reintegrate`]
    /// reopens it from disk.
    Recovery(Arc<RecoveryError>),
    /// An ingest into the shard failed wholesale (e.g. a WAL append
    /// error): nothing of the failing batch reached the shard, and the
    /// batch was parked instead.
    Ingest(Arc<EngineError>),
    /// The shard's flush or checkpoint failed.
    Flush(Arc<EngineError>),
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Recovery(e) => write!(f, "recovery failed: {e}"),
            QuarantineReason::Ingest(e) => write!(f, "wholesale ingest failure: {e}"),
            QuarantineReason::Flush(e) => write!(f, "flush failed: {e}"),
        }
    }
}

/// One quarantined shard, as reported by
/// [`ShardedSession::degraded_state`].
#[derive(Debug, Clone)]
pub struct QuarantinedShard {
    /// The shard index.
    pub shard: usize,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
    /// Events parked for this shard since quarantine (volatile — held in
    /// memory until reintegration replays them).
    pub parked_events: usize,
}

/// Which shards are quarantined, why, and how much is parked — the tag
/// qualifying every partial `reports()`/`stats()`/`metrics()` answer.
/// Empty means the session is whole.
#[derive(Debug, Clone, Default)]
pub struct DegradedState {
    /// The quarantined shards, in shard order.
    pub quarantined: Vec<QuarantinedShard>,
}

impl DegradedState {
    /// True when at least one shard is quarantined.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Total events parked across all quarantined shards.
    pub fn parked_events(&self) -> usize {
        self.quarantined.iter().map(|q| q.parked_events).sum()
    }
}

impl fmt::Display for DegradedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.quarantined.is_empty() {
            return write!(f, "healthy");
        }
        write!(f, "degraded:")?;
        for q in &self.quarantined {
            write!(
                f,
                " [shard {} — {} ({} parked)]",
                q.shard, q.reason, q.parked_events
            )?;
        }
        Ok(())
    }
}

/// A quarantined shard's book-keeping.
struct Quarantine {
    /// The shard engine, when it survived quarantine (ingest/flush
    /// failures keep it; a failed recovery never produced one).
    engine: Option<OnlineSession>,
    reason: QuarantineReason,
    /// Events routed here since quarantine, in arrival order.
    parked: Vec<TraceEvent>,
}

enum ShardState {
    Healthy(OnlineSession),
    Quarantined(Quarantine),
}

impl ShardState {
    /// The shard's session — behind on parked events while quarantined,
    /// `None` when it was lost at recovery.
    fn engine(&self) -> Option<&OnlineSession> {
        match self {
            ShardState::Healthy(engine) => Some(engine),
            ShardState::Quarantined(q) => q.engine.as_ref(),
        }
    }
}

/// Swap a healthy shard into quarantine, keeping its engine.
fn quarantine_in_place(state: &mut ShardState, reason: QuarantineReason, parked: Vec<TraceEvent>) {
    let prev = std::mem::replace(
        state,
        ShardState::Quarantined(Quarantine {
            engine: None,
            reason,
            parked,
        }),
    );
    if let (ShardState::Healthy(engine), ShardState::Quarantined(q)) = (prev, &mut *state) {
        q.engine = Some(engine);
    }
}

/// How a batch splits over the shards (see `ShardedSession::partition`).
enum Partitioned<'a> {
    /// Every event routed to one shard: the caller's slice is passed
    /// through untouched — the zero-copy hot path.
    Single(usize, &'a [TraceEvent]),
    /// A mixed batch, cloned into per-shard groups (idle shards empty).
    Groups(Vec<Vec<TraceEvent>>),
}

/// N independent [`OnlineSession`] shards behind one [`AnalysisEngine`]
/// surface: [`ShardedSession::open`] is the shard-per-WAL deployment
/// shape, [`ShardedSession::in_memory`] shards purely in-memory sessions
/// (useful for scaling ingest on one node without durability).
pub struct ShardedSession {
    shards: Vec<Mutex<ShardState>>,
    /// Run → shard affinity. The shard of a run is *chosen* by hashing its
    /// version tag at `RunStarted` (version locality, see module docs) and
    /// is *sticky* for the run's remaining events. Rebuilt from the shard
    /// stores on recovery.
    routes: Mutex<HashMap<RunKey, usize>>,
    /// Where and how the shards were opened — what
    /// [`ShardedSession::reintegrate`] needs to reopen a shard whose
    /// recovery failed. `None` for in-memory sessions.
    durable_ctx: Option<(PathBuf, DurableConfig)>,
    /// The suite every shard evaluates. Kept here because a quarantined
    /// shard has no session to ask.
    spec: Arc<CheckedSpec>,
}

/// The suite `config` names (`None`: the standard suite), resolved once
/// and written back so that every shard shares it.
fn resolve_spec(config: &mut SessionConfig) -> Arc<CheckedSpec> {
    let standard = || Arc::new(cosy::suite::standard_suite());
    Arc::clone(config.spec.get_or_insert_with(standard))
}

/// The shard router: a splitmix64-style finalizer over the raw key,
/// reduced modulo `shards`. Adjacent producer keys spread evenly.
fn shard_of(key: u64, shards: usize) -> usize {
    let mut h = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h % shards.max(1) as u64) as usize
}

impl ShardedSession {
    /// A purely in-memory sharded session: N [`OnlineSession`]s sharing
    /// one configuration.
    pub fn in_memory(shards: usize, mut config: SessionConfig) -> Self {
        let spec = resolve_spec(&mut config);
        ShardedSession {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(ShardState::Healthy(OnlineSession::new(config.clone()))))
                .collect(),
            routes: Mutex::new(HashMap::new()),
            durable_ctx: None,
            spec,
        }
    }

    fn state(&self, index: usize) -> MutexGuard<'_, ShardState> {
        self.shards[index].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` against shard `index`'s engine. `None` when the index is
    /// out of range or the shard is quarantined (its engine, if any, is
    /// behind on parked events — partial answers come from healthy shards
    /// only).
    pub fn with_shard<T>(&self, index: usize, f: impl FnOnce(&OnlineSession) -> T) -> Option<T> {
        let guard = self
            .shards
            .get(index)?
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match &*guard {
            ShardState::Healthy(engine) => Some(f(engine)),
            ShardState::Quarantined(_) => None,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard the run's events are (or would be) handled by.
    pub fn shard_of_run(&self, run: RunKey) -> Option<usize> {
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&run)
            .copied()
    }

    /// Which shards are quarantined, why, and how many events each has
    /// parked. Empty (`!is_degraded()`) when the session is whole.
    pub fn degraded_state(&self) -> DegradedState {
        let mut out = DegradedState::default();
        for i in 0..self.shards.len() {
            if let ShardState::Quarantined(q) = &*self.state(i) {
                out.quarantined.push(QuarantinedShard {
                    shard: i,
                    reason: q.reason.clone(),
                    parked_events: q.parked.len(),
                });
            }
        }
        out
    }

    /// Partition a batch into per-shard sub-batches, preserving relative
    /// order, updating run affinity as `RunStarted` events appear.
    ///
    /// The hot path is allocation-conscious: one pass resolves every
    /// event's route (a single `routes` lock for the whole batch) into a
    /// flat shard-index array; a batch that lands entirely on one shard —
    /// always at one shard, and common for run-affine producer batches —
    /// is returned as a zero-copy borrow of the caller's slice, and only
    /// genuinely mixed batches clone, into groups allocated at their
    /// exact final size.
    fn partition<'a>(&self, events: &'a [TraceEvent]) -> Partitioned<'a> {
        let n = self.shards.len();
        let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        let mut shard_ids: Vec<u32> = Vec::with_capacity(events.len());
        let mut counts = vec![0usize; n];
        for event in events {
            let run = event.run_key();
            let shard = match routes.get(&run) {
                Some(s) => *s,
                None => {
                    let s = match event {
                        // Version affinity: all runs of one version land
                        // on one shard, keeping shard-local analysis
                        // globally exact.
                        TraceEvent::RunStarted { version, .. } => shard_of(version.0, n),
                        // An event for a run nobody started: route by the
                        // run key — the shard rejects it (UnknownRun)
                        // exactly like an unsharded session would.
                        _ => shard_of(run.0, n),
                    };
                    if matches!(event, TraceEvent::RunStarted { .. }) {
                        routes.insert(run, s);
                    }
                    s
                }
            };
            shard_ids.push(shard as u32);
            counts[shard] += 1;
        }
        drop(routes);

        if let Some(shard) = counts.iter().position(|&c| c == events.len()) {
            if !events.is_empty() {
                return Partitioned::Single(shard, events);
            }
        }
        let mut groups: Vec<Vec<TraceEvent>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (event, &shard) in events.iter().zip(&shard_ids) {
            groups[shard as usize].push(event.clone());
        }
        Partitioned::Groups(groups)
    }

    /// Run `f` for each listed shard index — the one fan-out/fan-in used
    /// by ingest, flush and checkpoint. A single listed index runs inline
    /// (no thread spawn); more fan out over scoped threads. Unlisted
    /// shards get `None`.
    fn fan_out<T, F>(&self, indices: &[usize], f: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut results: Vec<Option<T>> = (0..self.shards.len()).map(|_| None).collect();
        match indices {
            [] => {}
            &[i] => results[i] = Some(f(i)),
            _ => {
                std::thread::scope(|scope| {
                    for (i, slot) in results.iter_mut().enumerate() {
                        if !indices.contains(&i) {
                            continue;
                        }
                        let f = &f;
                        scope.spawn(move || *slot = Some(f(i)));
                    }
                });
            }
        }
        results
    }

    /// Open (or create) a sharded durable session under `dir`: shard `i`
    /// lives in `dir/shard-00i` with its own WAL + snapshot pair. Every
    /// shard recovers **in parallel**; the per-shard [`RecoveryStats`] are
    /// returned in shard order.
    ///
    /// The shard layout is part of the session's identity: reopening an
    /// existing directory with a different shard count — or a directory
    /// holding *unsharded* durable state — would strand runs on shards
    /// the router no longer picks, so both are refused as
    /// [`RecoveryError::Incompatible`]. A shard whose snapshot is corrupt
    /// refuses too ([`RecoveryError::CorruptSnapshot`] — its history
    /// exists nowhere else). Any *other* per-shard recovery failure
    /// (I/O, recovery flush) **quarantines that shard** instead of
    /// failing the open: the session comes up degraded (its
    /// [`RecoveryStats`] entry is empty, check
    /// [`ShardedSession::degraded_state`]) and
    /// [`ShardedSession::reintegrate`] retries the recovery later.
    pub fn open(
        dir: impl Into<PathBuf>,
        mut config: ShardedConfig,
    ) -> Result<(Self, Vec<RecoveryStats>), RecoveryError> {
        let dir = dir.into();
        let spec = resolve_spec(&mut config.durable.session);
        let shards = config.shards.max(1);
        std::fs::create_dir_all(&dir)?;
        // Refuse a layout change on existing state: an unsharded session's
        // files directly in `dir`, or a different shard count.
        if dir.join(online::durable::WAL_FILE).exists()
            || dir.join(online::durable::SNAPSHOT_FILE).exists()
        {
            return Err(RecoveryError::Incompatible {
                path: dir,
                detail: "directory holds an unsharded durable session — \
                         opening it sharded would ignore its history"
                    .to_string(),
            });
        }
        let existing: Vec<PathBuf> = (0..)
            .map(|i| shard_dir(&dir, i))
            .take_while(|d| d.exists())
            .collect();
        if !existing.is_empty() && existing.len() != shards {
            return Err(RecoveryError::Incompatible {
                path: dir,
                detail: format!(
                    "directory holds {} shard(s) but {} were requested — \
                     resharding an existing session is not supported",
                    existing.len(),
                    shards
                ),
            });
        }

        // Recover every shard in parallel: each reads only its own WAL +
        // snapshot pair, so there is nothing to coordinate.
        let mut slots: Vec<Option<Result<OnlineSession, RecoveryError>>> =
            (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let shard_path = shard_dir(&dir, i);
                let config = config.durable.clone();
                scope.spawn(move || *slot = Some(OnlineSession::open(shard_path, config)));
            }
        });

        let mut states = Vec::with_capacity(shards);
        let mut stats = Vec::with_capacity(shards);
        for slot in slots {
            match slot.expect("shard recovery ran") {
                Ok(engine) => {
                    stats.push(engine.recovery().clone());
                    states.push(ShardState::Healthy(engine));
                }
                // The two refusals stay hard: a corrupt snapshot's history
                // exists nowhere else, and incompatible state means a
                // layout/format decision the operator must make.
                Err(e @ RecoveryError::CorruptSnapshot { .. })
                | Err(e @ RecoveryError::Incompatible { .. }) => return Err(e),
                // Everything else (I/O, recovery flush) degrades: the
                // shard opens quarantined and `reintegrate` retries.
                Err(e) => {
                    states.push(ShardState::Quarantined(Quarantine {
                        engine: None,
                        reason: QuarantineReason::Recovery(Arc::new(e)),
                        parked: Vec::new(),
                    }));
                    stats.push(RecoveryStats::default());
                }
            }
        }

        let session = ShardedSession {
            shards: states.into_iter().map(Mutex::new).collect(),
            routes: Mutex::new(HashMap::new()),
            spec,
            durable_ctx: Some((dir, config.durable)),
        };
        // Rebuild run affinity from the recovered shard stores; new runs
        // of already-known versions re-derive the same shard from the
        // deterministic version hash. A quarantined shard contributes no
        // routes until it reintegrates — its *new* runs still reach it
        // (the version hash is deterministic) and are parked, but
        // continuation events of its pre-crash runs are unroutable and
        // reject as `UnknownRun` until reintegration restores the routes.
        {
            let mut routes = session.routes.lock().unwrap_or_else(|e| e.into_inner());
            for i in 0..session.shards.len() {
                if let ShardState::Healthy(shard) = &*session.state(i) {
                    for key in shard.run_keys() {
                        routes.insert(key, i);
                    }
                }
            }
        }
        Ok((session, stats))
    }

    /// Sum of the per-shard WAL lengths (bytes since the last checkpoint;
    /// 0 in memory). Quarantined shards whose engine survived are
    /// included; a shard lost at recovery contributes 0.
    pub fn wal_len(&self) -> u64 {
        (0..self.shards.len())
            .map(|i| self.state(i).engine().map_or(0, OnlineSession::wal_len))
            .sum()
    }

    /// Per-shard recovery statistics, in shard order; `None` for an
    /// in-memory session. A shard quarantined at open (recovery failed)
    /// reports the empty stats; after a successful [`Self::reintegrate`]
    /// its entry reflects the reopened recovery.
    pub fn shard_recoveries(&self) -> Option<Vec<RecoveryStats>> {
        self.durable_ctx.as_ref()?;
        let of = |i| self.state(i).engine().map(|e| e.recovery().clone());
        Some(
            (0..self.shards.len())
                .map(|i| of(i).unwrap_or_default())
                .collect(),
        )
    }

    /// Drive a quarantined shard back to consistency; healthy shards are
    /// a no-op (`Ok(0)`). Returns the number of parked events replayed.
    ///
    /// The shard's WAL is the source of truth: if the engine was lost at
    /// open, the shard is reopened from its WAL + snapshot pair first
    /// (replaying everything it had durably accepted). The parked backlog
    /// is then ingested in arrival order — exactly-once, because a
    /// wholesale ingest failure is only ever raised after the WAL rolled
    /// the failed batch out of the log, so nothing parked was ever
    /// applied. A final flush folds the replay into live reports and the
    /// shard's run routes are restored.
    ///
    /// On error the shard **stays quarantined** with its original reason
    /// and nothing is lost: a failed reopen keeps the backlog parked, a
    /// wholesale replay failure re-parks the backlog, and a failed final
    /// flush leaves the (already WAL-durable) replayed events awaiting the
    /// next attempt. `reintegrate` may simply be called again.
    pub fn reintegrate(&self, shard: usize) -> Result<usize, EngineError> {
        if shard >= self.shards.len() {
            return Err(EngineError::Config {
                detail: format!("shard {shard} out of range ({} shards)", self.shards.len()),
            });
        }
        let mut state = self.state(shard);
        let q = match &mut *state {
            ShardState::Healthy(_) => return Ok(0),
            ShardState::Quarantined(q) => q,
        };

        if q.engine.is_none() {
            let (dir, config) = self
                .durable_ctx
                .as_ref()
                .ok_or_else(|| EngineError::Config {
                    detail: format!(
                        "shard {shard} has no engine and the session was not \
                     opened from a directory — cannot reopen it"
                    ),
                })?;
            match OnlineSession::open(shard_dir(dir, shard), config.clone()) {
                Ok(engine) => q.engine = Some(engine),
                Err(e) => return Err(EngineError::Recovery(e)),
            }
        }
        let engine = q.engine.as_ref().expect("engine ensured above");

        let parked = std::mem::take(&mut q.parked);
        let drained = parked.len();
        if !parked.is_empty() {
            match engine.ingest_batch(&parked).map_err(EngineError::from) {
                Ok(_) => {}
                Err(e) if e.failed_wholesale() => {
                    // Nothing of the backlog reached the shard (WAL append
                    // atomicity): re-park it and stay quarantined.
                    q.parked = parked;
                    return Err(e);
                }
                // Per-event rejections are final and deterministic — the
                // rest of the backlog applied, exactly as it would have
                // without the quarantine detour.
                Err(_) => {}
            }
        }
        engine.flush()?;

        let engine = q.engine.take().expect("engine ensured above");
        let keys = engine.run_keys();
        *state = ShardState::Healthy(engine);
        drop(state);

        let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        for key in keys {
            routes.insert(key, shard);
        }
        Ok(drained)
    }

    /// [`Self::reintegrate`] every quarantined shard, stopping at the
    /// first failure. Returns the total parked events replayed.
    pub fn reintegrate_all(&self) -> Result<usize, EngineError> {
        let mut drained = 0;
        for i in 0..self.shards.len() {
            drained += self.reintegrate(i)?;
        }
        Ok(drained)
    }

    /// Ingest one shard's sub-batch under its lock, parking on (or
    /// entering) quarantine. `Ok` counts events the shard took
    /// responsibility for — applied, or parked for reintegration.
    fn ingest_shard(&self, index: usize, group: &[TraceEvent]) -> Result<usize, EngineError> {
        let mut state = self.state(index);
        let result = match &mut *state {
            ShardState::Quarantined(q) => {
                q.parked.extend_from_slice(group);
                return Ok(group.len());
            }
            ShardState::Healthy(engine) => engine.ingest_batch(group).map_err(EngineError::from),
        };
        match result {
            Ok(n) => Ok(n),
            Err(e) if e.failed_wholesale() => {
                // The shard applied nothing of this group (a failed WAL
                // append rolls the whole batch out of the log), so parking
                // the group and degrading keeps exactly-once intact.
                quarantine_in_place(
                    &mut state,
                    QuarantineReason::Ingest(Arc::new(e)),
                    group.to_vec(),
                );
                Ok(group.len())
            }
            // A per-event rejection is final: the engine counted and
            // skipped it, the rest of the group applied.
            Err(e) => Err(e),
        }
    }
}

impl AnalysisEngine for ShardedSession {
    /// Partition the batch by run affinity and apply every non-empty
    /// sub-batch **in parallel** (per-shard WAL appends and store updates
    /// proceed concurrently); a batch that lands on one shard runs inline
    /// with no thread spawn.
    ///
    /// Contract nuance vs an unsharded session: on multiple rejections
    /// the error returned is the first failing shard's first rejection
    /// *in shard order* — which rejection that is can differ from the
    /// unsharded session's stream-order pick. The rejected-event *count*
    /// (`stats().events_rejected`) is identical either way.
    ///
    /// Degradation nuance: a sub-batch whose shard fails **wholesale** is
    /// parked (the shard quarantines, see module docs) and counts as
    /// accepted here — the error surfaces through
    /// [`ShardedSession::degraded_state`] instead of poisoning the batch.
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        let groups = match self.partition(events) {
            // Whole batch, one shard: feed the caller's slice straight
            // through — no clone, no per-shard Vec, no thread spawn.
            Partitioned::Single(shard, slice) => {
                return self.ingest_shard(shard, slice);
            }
            Partitioned::Groups(groups) => groups,
        };
        let active: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, _)| i)
            .collect();
        let results = self.fan_out(&active, |i| self.ingest_shard(i, &groups[i]));
        let mut accepted = 0usize;
        let mut failure = None;
        for result in results.into_iter().flatten() {
            match result {
                Ok(n) => accepted += n,
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(accepted),
        }
    }

    /// Flush every shard in parallel; the merged update set is sorted by
    /// run key. A shard whose flush fails is **quarantined** (typed
    /// reason, see [`ShardedSession::degraded_state`]) rather than
    /// failing the whole flush — the healthy shards' updates are still
    /// returned.
    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let results = self.fan_out(&all, |i| {
            let mut state = self.state(i);
            let result = match &mut *state {
                ShardState::Quarantined(_) => return Vec::new(),
                ShardState::Healthy(engine) => engine.flush(),
            };
            match result {
                Ok(updated) => updated,
                Err(e) => {
                    quarantine_in_place(
                        &mut state,
                        QuarantineReason::Flush(Arc::new(e.into())),
                        Vec::new(),
                    );
                    Vec::new()
                }
            }
        });
        let mut updated = Vec::new();
        for result in results.into_iter().flatten() {
            updated.extend(result);
        }
        updated.sort();
        Ok(updated)
    }

    fn report(&self, run: RunKey) -> Option<AnalysisReport> {
        match self.shard_of_run(run) {
            Some(i) => self.with_shard(i, |s| s.report(run)).flatten(),
            None => {
                (0..self.shards.len()).find_map(|i| self.with_shard(i, |s| s.report(run)).flatten())
            }
        }
    }

    /// Merged reports of the **healthy** shards (run keys are disjoint
    /// across shards, so the merge is exact). When shards are
    /// quarantined this is a partial answer — tag it with
    /// [`ShardedSession::degraded_state`].
    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        let mut out = HashMap::new();
        for i in 0..self.shards.len() {
            if let Some(shard_reports) = self.with_shard(i, |s| s.reports()) {
                out.extend(shard_reports);
            }
        }
        out
    }

    /// Summed stats of the **healthy** shards (partial while degraded —
    /// see [`ShardedSession::degraded_state`]).
    fn stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for i in 0..self.shards.len() {
            let Some(stats) = self.with_shard(i, |s| s.stats()) else {
                continue;
            };
            // Exhaustive destructuring (no `..`): adding a counter to
            // either stats struct must fail to compile here rather than
            // silently report 0 for sharded engines.
            let SessionStats {
                events_applied,
                events_rejected,
                events_replayed,
                flushes,
                runs_finished,
                incremental:
                    IncrementalStats {
                        flushes: incremental_flushes,
                        runs_reevaluated,
                        full_reevaluations,
                        instances_evaluated,
                    },
            } = stats;
            total.events_applied += events_applied;
            total.events_rejected += events_rejected;
            total.events_replayed += events_replayed;
            total.flushes += flushes;
            total.runs_finished += runs_finished;
            total.incremental.flushes += incremental_flushes;
            total.incremental.runs_reevaluated += runs_reevaluated;
            total.incremental.full_reevaluations += full_reevaluations;
            total.incremental.instances_evaluated += instances_evaluated;
        }
        total
    }

    fn spec(&self) -> Arc<CheckedSpec> {
        Arc::clone(&self.spec)
    }

    /// Merge every healthy shard's snapshot (counters and histogram
    /// buckets add, associatively — see `obs::MetricsSnapshot::merge`)
    /// and record the fan-in width as `kojak_engine_shards`, plus the
    /// degradation gauges `kojak_engine_shards_quarantined` and
    /// `kojak_engine_events_parked` (both 0 when whole).
    fn metrics(&self) -> obs::MetricsSnapshot {
        let mut out = obs::MetricsSnapshot::default();
        for i in 0..self.shards.len() {
            if let Some(snapshot) = self.with_shard(i, |s| s.metrics()) {
                out.merge(&snapshot);
            }
        }
        let degraded = self.degraded_state();
        out.push_gauge("kojak_engine_shards", self.shards.len() as u64);
        out.push_gauge(
            "kojak_engine_shards_quarantined",
            degraded.quarantined.len() as u64,
        );
        out.push_gauge(
            "kojak_engine_events_parked",
            degraded.parked_events() as u64,
        );
        out
    }

    fn recoverable_state(&self) -> RecoverableState {
        match &self.durable_ctx {
            Some((dir, _)) => RecoverableState::Sharded {
                shard_dirs: (0..self.shards.len()).map(|i| shard_dir(dir, i)).collect(),
            },
            None => RecoverableState::Ephemeral,
        }
    }

    /// Checkpoint every shard in parallel; like [`Self::flush`], a shard
    /// whose checkpoint fails quarantines instead of failing the call.
    fn checkpoint(&self) -> Result<(), EngineError> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.fan_out(&all, |i| {
            let mut state = self.state(i);
            let result = match &mut *state {
                ShardState::Quarantined(_) => return,
                ShardState::Healthy(engine) => engine.checkpoint(),
            };
            if let Err(e) = result {
                quarantine_in_place(
                    &mut state,
                    QuarantineReason::Flush(Arc::new(e.into())),
                    Vec::new(),
                );
            }
        });
        Ok(())
    }
}
